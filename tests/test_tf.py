import numpy as np
import pytest

import ionlab.krylov
import ionlab.tf
from ionlab.errors import ConvergenceError, DomainError, ParameterError
from ionlab.radial import RadialField, coulomb_potential, integrate_3d, make_log_grid
from ionlab.tf import (
    C_TF_DEFAULT,
    TFParams,
    _initial_density,
    default_tail_window,
    neutral_tail_solution,
    solve_tf,
    sommerfeld_amplitude,
    tf_energy,
    tf_scaling_check,
    tf_tail_exponent,
)


@pytest.fixture(scope="module")
def small_grid():
    return make_log_grid(1e-4, 400.0, 1100)


class TestMaximumIonization:
    def test_overfilled_mass_saturates_at_z(self, small_grid):
        sol = solve_tf(TFParams(z=1.0, n_electrons=2.0), small_grid)
        assert sol.mass == pytest.approx(1.0, rel=1e-3)
        assert sol.mu == 0.0

    def test_undersized_mass_pins_constraint(self, small_grid):
        sol = solve_tf(TFParams(z=1.0, n_electrons=0.5), small_grid)
        assert sol.mass == pytest.approx(0.5, rel=1e-6)
        assert sol.mu > 0

    def test_complementarity(self, small_grid):
        neutralish = solve_tf(TFParams(z=1.0, n_electrons=3.0), small_grid)
        assert neutralish.mu * (3.0 - neutralish.mass) == pytest.approx(0.0, abs=1e-9)
        ionized = solve_tf(TFParams(z=1.0, n_electrons=0.7), small_grid)
        assert ionized.mu > 0
        assert ionized.mu * (0.7 - ionized.mass) == pytest.approx(0.0, abs=1e-9)
        assert ionized.mass <= 0.7 * (1 + 1e-9)

    def test_stall_names_stage_and_charges(self, monkeypatch, small_grid):
        params = TFParams(z=1.0, n_electrons=1.0)
        monkeypatch.setattr(ionlab.krylov, "MAX_NEWTON_STEPS", 3)
        with pytest.raises(ConvergenceError, match=r"stage stalled .*\(Z=1, N=1\)"):
            solve_tf(params, small_grid)

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError):
            TFParams(z=0.0, n_electrons=1.0)
        with pytest.raises(ParameterError):
            TFParams(z=1.0, n_electrons=-2.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_nonpositive_tolerance_rejected(self, small_grid, tol):
        with pytest.raises(ParameterError):
            solve_tf(TFParams(z=1.0, n_electrons=1.0), small_grid, tol=tol)


def _bisection_multiplier(grid, coeff, phi, n_cap):
    """Reference multiplier: 80 bisection steps on mass(mu) = n_cap."""
    weight = 4.0 * np.pi * grid.w * grid.r**2
    lo, hi = 0.0, float(np.max(phi))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        mass = np.dot(weight, coeff * np.clip(phi - mid, 0.0, None) ** 1.5)
        lo, hi = (mid, hi) if mass > n_cap else (lo, mid)
    return 0.5 * (lo + hi)


class TestMultiplier:
    """The Newton-resolved multiplier of the projected update."""

    @pytest.mark.parametrize(
        "profile, fraction",
        [
            ("coulomb", 0.5),
            ("screened", 0.3),
            ("screened", 0.999),
            ("negative_tail", 0.6),
            # the support edge lands deep in the flat r^-4 tail
            ("power_tail", 0.999),
            ("power_tail", 0.9),
        ],
    )
    def test_matches_bisection_reference(self, small_grid, profile, fraction):
        from ionlab.tf import _projected_target

        r = small_grid.r
        params = TFParams(z=5.0, n_electrons=1.0)
        amp = sommerfeld_amplitude(params.c_tf)
        phi = {
            "coulomb": 5.0 / r,
            "screened": 5.0 / r * np.exp(-(5.0 ** (1.0 / 3.0)) * r),
            "negative_tail": 5.0 / r * np.exp(-r) - 0.5 / (r + 1.0),
            "power_tail": 5.0 / r * np.exp(-r) + amp / (r**4 + 1.0),
        }[profile]
        coeff = (3.0 / (5.0 * params.c_tf)) ** 1.5
        weight = 4.0 * np.pi * small_grid.w * r**2
        n_cap = fraction * np.dot(weight, coeff * np.clip(phi, 0.0, None) ** 1.5)

        mu, target = _projected_target(small_grid, params, phi, n_cap)
        mu_ref = _bisection_multiplier(small_grid, coeff, phi, n_cap)
        assert mu > 0
        assert mu == pytest.approx(mu_ref, rel=1e-12)
        assert np.dot(weight, target) == pytest.approx(n_cap, rel=1e-12)

    def test_unsettled_newton_raises(self, small_grid, monkeypatch):
        import ionlab.tf

        monkeypatch.setattr(ionlab.tf, "_MU_NEWTON_STEPS", 1)
        phi = 5.0 / small_grid.r * np.exp(-small_grid.r)
        with pytest.raises(ConvergenceError, match="multiplier stage"):
            ionlab.tf._projected_target(
                small_grid, TFParams(z=5.0, n_electrons=1.0), phi, 1e-3
            )


class TestNewtonSolve:
    """Newton-GMRES in the potential, against the converged answers of the
    damped fixed-point iteration it replaced (default grid)."""

    @pytest.mark.parametrize(
        "z, n, field, value, energy",
        [
            (1.0, 1.0, "mass", 0.9999838025359257, -0.3826749062984858),
            (5.0, 3.0, "mu", 0.5042324449214588, -15.986270916172021),
            (1.0, 0.5, "mu", 0.09566195276236858, -0.36685666835522995),
            (100.0, 90.0, "mu", 2.389178317569037, -17661.864836450102),
            (5.0, 10.0, "mass", 4.999985555488218, -16.336794070006547),
        ],
    )
    def test_matches_fixed_point_reference(self, z, n, field, value, energy):
        sol = solve_tf(TFParams(z=z, n_electrons=n))
        rel = {"mass": 1e-10, "mu": 1e-8}[field]
        assert getattr(sol, field) == pytest.approx(value, rel=rel, abs=0.0)
        assert sol.energy == pytest.approx(energy, rel=1e-12, abs=0.0)

    def test_reaches_tight_tolerance(self):
        # The far-field Coulomb shells are summed from the box edge inward;
        # as a difference of running totals they drowned in rounding and
        # the defect floored near 1e-8.
        sol = solve_tf(TFParams(z=1.0, n_electrons=1.0), tol=1e-9)
        assert sol.residual < 1e-9

    @pytest.mark.parametrize("z, n", [(10.0, 9.9999), (100.0, 99.9995)])
    def test_cap_just_below_z_binds(self, z, n):
        # The discrete neutral mass lies within 1e-5 of Z; any N < Z is
        # solved under the cap, so the mass never exceeds N.
        sol = solve_tf(TFParams(z=z, n_electrons=n))
        assert sol.mass == pytest.approx(n, rel=1e-12, abs=0.0)
        assert sol.mu > 0

    def test_ionized_case_is_one_newton_solve(self, monkeypatch):
        import ionlab.tf

        calls = []
        newton = ionlab.tf._newton

        def counted(*args, **kwargs):
            calls.append(args[0])
            return newton(*args, **kwargs)

        monkeypatch.setattr(ionlab.tf, "_newton", counted)
        sol = solve_tf(TFParams(z=5.0, n_electrons=3.0))
        assert calls == ["constrained stage"]
        assert sol.iterations <= 6


class TestNewtonStart:
    """The solve starts from Sommerfeld's closed-form atom, and its
    preconditioner leaves r phi free at the box edge."""

    @pytest.mark.parametrize("c_tf", [1.0, C_TF_DEFAULT])
    def test_sommerfeld_potential_limits(self, c_tf):
        # Z/r at the nucleus and the universal A r^-4 tail far out, at
        # every Z: the TF length b carries the c_tf and the Z.
        grid = make_log_grid(1e-8, 1e8, 400)
        r = grid.r
        amp = sommerfeld_amplitude(c_tf)
        for z in (1.0, 8.0):
            v_s, _ = _initial_density(grid, TFParams(z=z, n_electrons=z, c_tf=c_tf))
            assert r[0] * v_s[0] == pytest.approx(z, rel=1e-5, abs=0.0)
            gap = np.abs(r**4 * v_s / amp - 1.0)
            assert gap[-1] < 1e-4
            assert np.all(np.diff(gap[grid.n // 2:]) < 0)

    @pytest.fixture
    def jacobian_products(self, monkeypatch):
        # each Krylov step is one Jacobian product, one Coulomb solve
        count = [0]

        def counted(rho):
            count[0] += 1
            return coulomb_potential(rho)

        monkeypatch.setattr(ionlab.tf, "coulomb_potential", counted)
        return count

    @pytest.mark.parametrize(
        "z, n, steps, products",
        [(1.0, 1.0, 4, 8), (5.0, 10.0, 4, 8), (5.0, 3.0, 4, 12)],
    )
    def test_density_job_steps(self, jacobian_products, z, n, steps, products):
        assert solve_tf(TFParams(z=z, n_electrons=n)).iterations <= steps
        assert jacobian_products[0] <= products

    def test_tail_box_steps(self, jacobian_products):
        assert neutral_tail_solution(1.0).iterations <= 8
        assert jacobian_products[0] <= 16

    @pytest.mark.parametrize("z", [1.0, 4.0, 16.0, 64.0])
    def test_tfw_seed_steps(self, jacobian_products, z):
        from ionlab.tfw import default_tfw_grid

        assert solve_tf(TFParams(z=z, n_electrons=z), default_tfw_grid()).iterations <= 4
        assert jacobian_products[0] <= 9


class TestEnergyFunctional:
    def test_zero_density(self, small_grid):
        rho = RadialField(small_grid, np.zeros(small_grid.n))
        assert tf_energy(rho, TFParams(z=1.0, n_electrons=1.0)) == 0.0

    def test_reported_energy_self_consistent(self, small_grid):
        params = TFParams(z=1.0, n_electrons=1.0)
        sol = solve_tf(params, small_grid)
        assert tf_energy(sol.rho, params) == pytest.approx(sol.energy, abs=1e-10)

    def test_minimizer_beats_trial_densities(self, small_grid):
        params = TFParams(z=1.0, n_electrons=1.0)
        sol = solve_tf(params, small_grid)
        for scale in (0.5, 1.0, 2.0):
            trial = RadialField(small_grid, np.exp(-scale * small_grid.r))
            mass = integrate_3d(trial)
            trial = RadialField(small_grid, trial.values / mass)  # mass 1
            assert tf_energy(trial, params) >= sol.energy - 1e-12

    def test_negative_density_rejected(self, small_grid):
        rho = RadialField(small_grid, -np.ones(small_grid.n))
        with pytest.raises(DomainError):
            tf_energy(rho, TFParams(z=1.0, n_electrons=1.0))

    def test_energy_nonincreasing_in_n_and_flat_above_z(self, small_grid):
        params = [TFParams(z=1.0, n_electrons=n) for n in (0.4, 0.7, 1.0, 1.5, 2.5)]
        energies = [solve_tf(p, small_grid).energy for p in params]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-10
        assert energies[-1] == pytest.approx(energies[-2], abs=1e-8)


class TestScaling:
    # High-Z runs need the default resolution: on coarse grids the
    # box-edge region of the residual norm is noise-sensitive.
    def test_identity_case_roundoff(self, small_grid):
        mismatch = tf_scaling_check(TFParams(z=1.0, n_electrons=1.0), small_grid)
        assert mismatch < 1e-12

    def test_neutral_z10(self):
        assert tf_scaling_check(TFParams(z=10.0, n_electrons=10.0)) < 1e-3

    def test_ionized_z100(self):
        assert tf_scaling_check(TFParams(z=100.0, n_electrons=90.0)) < 1e-3


class TestTail:
    def test_neutral_exponent_near_minus_four(self, tf_tail_z1):
        fit = tf_tail_exponent(tf_tail_z1)
        assert not fit.compact_support
        assert fit.exponent == pytest.approx(-4.0, abs=0.1)

    def test_amplitude_matches_algebraic_oracle(self):
        # deep-window fit against A solving 12 A = 4 pi (3A/(5c))^(3/2)
        sol = neutral_tail_solution(100.0)
        window = tuple(np.array([3000.0, 6000.0]) * 100.0 ** (-1.0 / 3.0))
        fit = tf_tail_exponent(sol, window)
        assert fit.amplitude == pytest.approx(sommerfeld_amplitude(), rel=0.05)

    def test_tail_tolerance_scaled_once(self):
        # 5e-7 Z^(1/3), not 5e-7 Z^(2/3)
        assert neutral_tail_solution(100.0).residual < 5e-7 * 100.0 ** (1.0 / 3.0)

    def test_ionized_solution_flagged_compact(self, small_grid):
        sol = solve_tf(TFParams(z=1.0, n_electrons=0.5), small_grid)
        fit = tf_tail_exponent(sol, (5.0, 50.0))
        assert fit.compact_support
        assert fit.exponent is None

    def test_window_outside_grid_rejected(self, tf_neutral_z1):
        with pytest.raises(ParameterError):
            tf_tail_exponent(tf_neutral_z1, (5.0, 5000.0))

    def test_default_window_scales_with_charge(self):
        lo1, hi1 = default_tail_window(1.0)
        lo8, hi8 = default_tail_window(8.0)
        assert lo8 == pytest.approx(lo1 / 2.0)
        assert hi8 == pytest.approx(hi1 / 2.0)


class TestUniquenessAndPositivity:
    def test_two_starts_converge_to_same_density(self, small_grid):
        params = TFParams(z=2.0, n_electrons=2.0)
        sol_a = solve_tf(params, small_grid, tol=1e-9)

        # second run, uncapped, from the potential of a flat density
        from ionlab.radial import newton_potential
        from ionlab.tf import _newton

        flat = RadialField(small_grid, np.full(small_grid.n, 1e-3))
        phi0 = params.z / small_grid.r - newton_potential(flat).values
        (_, rho_b, _), res_b, _ = _newton(
            "flat start", small_grid, params, phi0, np.inf, tol=1e-9
        )
        assert res_b < 2e-9
        diff = integrate_3d(
            RadialField(small_grid, np.abs(sol_a.rho.values - rho_b))
        )
        assert diff < 1e-6

    def test_unshifted_potential_nonnegative_when_mass_below_z(self, small_grid):
        sol = solve_tf(TFParams(z=1.0, n_electrons=0.6), small_grid)
        # Z/r - rho*1/|x| = phi + mu must be pointwise nonnegative
        assert np.min(sol.phi.values + sol.mu) > -1e-12

    def test_grid_refinement_stability(self):
        params = TFParams(z=1.0, n_electrons=1.0)
        e1 = solve_tf(params, make_log_grid(1e-4, 400.0, 1100)).energy
        e2 = solve_tf(params, make_log_grid(1e-4, 400.0, 2200)).energy
        assert abs(e2 - e1) / abs(e2) < 1e-4
