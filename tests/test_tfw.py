import json

import numpy as np
import pytest

import ionlab.cli
import ionlab.hartree
import ionlab.krylov
import ionlab.radial
import ionlab.tf
import ionlab.tfw
from ionlab.errors import ConvergenceError, DomainError, ParameterError
from ionlab.radial import (
    RadialField,
    Tridiagonal,
    coulomb_potential,
    extremal_eigs,
    integrate_3d,
    make_log_grid,
)
from ionlab.tfw import (
    TFWParams,
    TFWSolution,
    _TFWModel,
    default_tfw_grid,
    excess_charge_sweep,
    solve_tfw,
    subharmonic_majorant_check,
)


class TestExcessCharge:
    def test_positive_for_unit_charge(self, tfw_z1):
        assert tfw_z1.q > 0

    def test_sweep_all_positive_and_bounded(self, tfw_sweep_rows):
        for z, q, _, _ in tfw_sweep_rows:
            assert 0 < q <= 10.0

    def test_sweep_increments_contract(self, tfw_sweep_rows):
        qs = {z: q for z, q, _, _ in tfw_sweep_rows}
        assert abs(qs[64.0] - qs[16.0]) < abs(qs[4.0] - qs[1.0])

    def test_point_values_converge_along_sweep(self, tfw_sweep_rows):
        u1 = [row[2] for row in tfw_sweep_rows]
        phi1 = [row[3] for row in tfw_sweep_rows]
        # u(1), phi(1) grow toward their limits; successive relative
        # changes settle down
        rel_u = [abs(b - a) / abs(b) for a, b in zip(u1, u1[1:])]
        rel_phi = [abs(b - a) / abs(b) for a, b in zip(phi1, phi1[1:])]
        assert rel_u[-1] < rel_u[0]
        assert rel_phi[-1] < rel_phi[0]

    def test_single_element_sweep(self):
        rows = excess_charge_sweep([2.0])
        assert len(rows) == 1
        assert rows[0][1] > 0

    def test_decade_sweep_contracts(self):
        rows = excess_charge_sweep([1.0, 10.0, 100.0])
        qs = {z: q for z, q, _, _ in rows}
        assert all(0 < q <= 10.0 for q in qs.values())
        assert abs(qs[100.0] - qs[10.0]) < abs(qs[10.0] - qs[1.0])

    def test_empty_sweep_rejected(self):
        with pytest.raises(ParameterError):
            excess_charge_sweep([])

    def test_sweep_in_any_order(self, capsysbinary):
        # every row is the solve at its own charge, so order is free
        up, down = excess_charge_sweep([1.0, 64.0]), excess_charge_sweep([64.0, 1.0])
        assert down == up[::-1]
        assert ionlab.cli.main(["tfw", "--sweep", "64,1"]) == 0
        table = json.loads(capsysbinary.readouterr().out)["table"]
        assert [row[0] for row in table] == [64.0, 1.0]

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            TFWParams(z=-1.0)
        with pytest.raises(ParameterError):
            TFWParams(z=1.0, c_w=0.0)
        with pytest.raises(ParameterError):
            TFWParams(z=1.0, c_tf=-0.1)
        assert TFWParams(z=1.0, c_tf=0.0).c_tf == 0.0

    def test_sweep_rows_pinned(self, tfw_sweep_rows):
        # Newton's converged answers at full precision, so that a Hartree
        # potential reused for the wrong density cannot pass unnoticed.
        expected = [
            (1.0, 0.08995520603502838, 0.05751431823215225, 0.7850483176290057),
            (4.0, 0.16451111286741948, 0.26670901242795053, 2.187353875349043),
            (16.0, 0.21964288185190384, 0.6621212636649667, 5.521844447074071),
            (64.0, 0.2628082470884152, 1.3383190378194387, 13.737183522490687),
        ]
        for row, want in zip(tfw_sweep_rows, expected, strict=True):
            assert row == pytest.approx(want, rel=1e-12)

    def test_sweep_rows_are_single_charge_solves(self, tfw_sweep_rows):
        # Each charge is solved from its own seed, so a row does not depend
        # on the other charges of the sweep.
        for z, q, u1, phi1 in tfw_sweep_rows:
            sol = solve_tfw(TFWParams(z=z))
            r = sol.u.grid.r
            assert (q, u1, phi1) == (
                sol.q,
                float(np.interp(1.0, r, sol.u.values)),
                float(np.interp(1.0, r, sol.phi.values)),
            )

    def test_rung_that_misses_tolerance_names_its_charge(self, monkeypatch):
        monkeypatch.setattr(ionlab.krylov, "MAX_NEWTON_STEPS", 5)
        with pytest.raises(ConvergenceError, match=r"Z=1\b"):
            excess_charge_sweep([1.0, 4.0])


class TestStationarity:
    def test_residual_small(self, tfw_z1):
        assert tfw_z1.residual < 1e-9

    def test_virial_defect_linear_in_r_min(self):
        # -9.88e-4 at r_min = 1e-4 and -1.03e-4 at 1e-5.  Not at Z = 1,
        # where the outer box sets the defect.
        params = TFWParams(z=64.0)
        coarse = solve_tfw(params, make_log_grid(1e-4, 100.0, 2000)).terms.virial_defect
        fine = solve_tfw(params, make_log_grid(1e-5, 100.0, 2000)).terms.virial_defect
        assert abs(fine) * 5.0 <= abs(coarse)

    def test_solution_mass_equals_nc(self, tfw_z1):
        mass = integrate_3d(RadialField(tfw_z1.u.grid, tfw_z1.u.values**2))
        assert mass == pytest.approx(tfw_z1.n_c, rel=1e-12)

    @pytest.mark.parametrize(
        "params, cap",
        [
            (TFWParams(z=1.0), None),
            (TFWParams(z=64.0), None),
            (TFWParams(z=1.0, c_tf=0.0), None),
            (TFWParams(z=1.0, c_tf=0.0), 0.6),
        ],
    )
    def test_coulomb_solve_budget_per_newton_step(self, monkeypatch, params, cap):
        """A Newton step costs one Coulomb solve per density tried, 1.11 to
        1.21 in these cases: the step is one band solve, with no Jacobian
        product, and the seed is closed-form."""
        solves = [0]
        coulomb = ionlab.radial.coulomb_potential

        def counted(*args, **kwargs):
            solves[0] += 1
            return coulomb(*args, **kwargs)

        monkeypatch.setattr(ionlab.radial, "coulomb_potential", counted)
        st = _TFWModel(params, default_tfw_grid()).minimize(cap)
        steps = st.iterations
        assert st.residual < ionlab.tfw._RESIDUAL_TOL
        assert steps < solves[0] <= 1.25 * steps

    def test_gradient_coefficient_trend(self):
        # weaker gradient correction -> smaller excess charge
        qs = []
        for c_w in (1.0, 0.3, 0.1):
            qs.append(solve_tfw(TFWParams(z=1.0, c_w=c_w)).q)
        print(f"q vs c_w (1.0, 0.3, 0.1): {qs}")
        assert qs[0] > qs[1] > qs[2] > 0


class TestNewtonWork:
    """What the solves cost, as counts rather than timings: the Newton step
    is one band solve that keeps the Jacobian's Hartree response through a
    discrete Poisson solve, and a charge with a bulk term starts from
    Sommerfeld's closed-form density, not from a gradient-free solve."""

    def test_sweep_steps_and_jacobian_products(self, monkeypatch):
        # 6, 5, 5 and 5 steps, and no Jacobian product: the densities' own
        # Hartree potentials are the only Coulomb solves.
        def refused(*args, **kwargs):
            raise AssertionError("a GMRES cycle or a Jacobian product ran")

        monkeypatch.setattr(ionlab.tfw, "newton_potential", ionlab.radial.coulomb_potential)
        monkeypatch.setattr(ionlab.radial, "coulomb_potential", refused)
        monkeypatch.setattr(ionlab.krylov, "_gmres", refused)
        steps = [solve_tfw(TFWParams(z=z)).iterations for z in (1.0, 4.0, 16.0, 64.0)]
        assert max(steps) <= 6

    @pytest.mark.parametrize(
        "solve, max_steps, max_coulomb",
        [
            (lambda: ionlab.hartree.compute_tc(), 12, 14),
            (lambda: ionlab.hartree.e_curve([0.6, 1.8]), 14, 17),
        ],
        ids=["compute_tc", "e_curve"],
    )
    def test_critical_mass_pass(self, monkeypatch, solve, max_steps, max_coulomb):
        # compute_tc takes 9 + 3 steps and e_curve 9 + 5, each with one
        # Coulomb solve per density tried.
        steps, solves = [], [0]
        coulomb, newton = ionlab.radial.coulomb_potential, ionlab.tfw.newton_krylov

        def counted_coulomb(*args, **kwargs):
            solves[0] += 1
            return coulomb(*args, **kwargs)

        def counted_newton(*args, **kwargs):
            out = newton(*args, **kwargs)
            steps.append(out[2])
            return out

        monkeypatch.setattr(ionlab.radial, "coulomb_potential", counted_coulomb)
        monkeypatch.setattr(ionlab.tfw, "newton_krylov", counted_newton)
        solve()
        assert sum(steps) <= max_steps
        assert solves[0] <= max_coulomb

    def test_sweep_runs_no_gradient_free_solve(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a gradient-free solve ran")

        monkeypatch.setattr(ionlab.tf, "solve_tf", refused)
        monkeypatch.setattr(ionlab.tf, "_newton", refused)
        assert len(excess_charge_sweep([1.0, 4.0, 16.0, 64.0])) == 4

    @pytest.mark.parametrize("cap", [None, 3.0])
    def test_step_solves_the_bordered_block_system(self, monkeypatch, cap):
        # At every Newton step, against a dense solve of
        # [T, 4 pi U, -psi; -2 U, A_N, 0; 2 psi^T, 0, 0] (d, w, t) = (-F, 0, -dm),
        # U = diag(u), the last row and column only in the capped stage.
        grid = make_log_grid(1e-4, 100.0, 200)
        model = _TFWModel(TFWParams(z=4.0), grid)
        n = grid.n

        def dense(t):
            return np.diag(t.diag) + np.diag(t.off, 1) + np.diag(t.off, -1)

        a, a_n = dense(model.a), dense(ionlab.radial._poisson_laplacian(grid, grid.w))
        gaps = []
        newton = ionlab.tfw.newton_krylov

        def checked(x, defect, linearize, *args):
            def checked_linearize(x, state):
                step = linearize(x, state)
                psi, lam, u, vh = state
                bulk = (20.0 / 9.0) * model.params.c_tf * np.abs(u) ** (4.0 / 3.0)
                t = a + np.diag(model.local_potential(u, vh) + bulk - lam)
                m = np.block([[t, 4.0 * np.pi * np.diag(u)], [-2.0 * np.diag(u), a_n]])
                if x.size > n:  # the capped stage; the uncapped one comes first
                    m = np.pad(m, ((0, 1), (0, 1)))
                    m[:n, -1], m[-1, :n] = -psi, 2.0 * psi

                def checked_step(rhs):
                    dx = step(rhs)
                    sol = np.linalg.solve(m, np.concatenate([rhs[:n], np.zeros(n), rhs[n:]]))
                    ref = np.concatenate([sol[:n], sol[2 * n:]])
                    gaps.append(np.max(np.abs(dx - ref)) / np.max(np.abs(ref)))
                    return dx

                return checked_step

            return newton(x, defect, checked_linearize, *args)

        monkeypatch.setattr(ionlab.tfw, "newton_krylov", checked)
        st = model.minimize(cap)
        assert st.residual < ionlab.tfw._RESIDUAL_TOL
        assert len(gaps) == st.iterations
        assert max(gaps) < 1e-12


class TestPositiveState:
    """E(|psi|) <= E(psi), so the minimizer is positive.  On large boxes
    Newton leaves the far tail changing sign below the stop, and the solve
    returns |u|, whose Hartree potential and energy are those of u."""

    @pytest.mark.parametrize("z", [64.0, 4096.0])
    def test_large_box_state_is_nonnegative(self, z):
        sol = solve_tfw(TFWParams(z=z), make_log_grid(1e-4, 400.0, 2200))
        assert np.all(sol.u.values >= 0.0)
        assert sol.residual < ionlab.tfw._RESIDUAL_TOL


class TestGroundState:
    """Newton stops at any stationary state; the minimizer is the one whose
    multiplier is the lowest eigenvalue of its own mean-field operator
    c_w A + v_loc(u), the next eigenvalue above it (by 3.1e-3 to 5.9e-3
    for the gradient-corrected states)."""

    @pytest.mark.parametrize(
        "params, cap",
        [(TFWParams(z=z), None) for z in (1.0, 4.0, 16.0, 64.0)]
        + [(TFWParams(z=1.0, c_tf=0.0), t) for t in (None, 0.2, 0.6)]
        + [(TFWParams(z=4.0, c_tf=0.0), 2.0)],
        ids=["tfw-Z1", "tfw-Z4", "tfw-Z16", "tfw-Z64", "hartree", "hartree-t0.2",
             "hartree-t0.6", "hartree-Z4-N2"],
    )
    def test_multiplier_is_the_lowest_eigenvalue(self, params, cap):
        model = _TFWModel(params, default_tfw_grid())
        st = model.minimize(cap)
        vloc = model.local_potential(st.u, st.vh)
        c_w = params.c_w
        lowest, second = extremal_eigs(
            Tridiagonal(c_w * model.a.diag + vloc, c_w * model.a.off), 2
        )
        assert abs(lowest - st.lam) <= 1e-10 * np.max(np.abs(vloc))
        assert second > st.lam


@pytest.mark.parametrize(
    "solve",
    [
        lambda: ionlab.tf.solve_tf(ionlab.tf.TFParams(z=5.0, n_electrons=3.0)),
        lambda: solve_tfw(TFWParams(z=4.0)),
        lambda: ionlab.hartree.e_curve([0.6, 1.8]),
        lambda: ionlab.hartree.compute_tc(),
        lambda: ionlab.hartree.hartree_energy_direct(3.0, 2.5),
    ],
    ids=["solve_tf", "solve_tfw", "e_curve", "compute_tc", "hartree_energy_direct"],
)
def test_no_coulomb_solve_after_the_last_newton_solve(monkeypatch, solve):
    """Every answer is read off the final state of the Newton solve that
    produced it, which carries the Hartree potential of its density, and a
    capped solve starts from the uncapped state rescaled onto the cap, whose
    Hartree potential rescales with it: once the first Newton solve begins,
    every Coulomb solve falls inside one."""
    count = {"solves": 0}
    marks = []  # the count on entering and on leaving each Newton solve
    coulomb = ionlab.radial.coulomb_potential

    def counted_coulomb(*args, **kwargs):
        count["solves"] += 1
        return coulomb(*args, **kwargs)

    def counted_newton(*args, **kwargs):
        marks.append(count["solves"])
        out = ionlab.krylov.newton_krylov(*args, **kwargs)
        marks.append(count["solves"])
        return out

    for module in (ionlab.radial, ionlab.tf):
        monkeypatch.setattr(module, "coulomb_potential", counted_coulomb)
    for module in (ionlab.tf, ionlab.tfw):
        monkeypatch.setattr(module, "newton_krylov", counted_newton)
    solve()
    assert marks
    assert marks[2::2] == marks[1:-1:2]
    assert count["solves"] == marks[-1]


class TestExactGradient:
    """F = (c_w A + vloc - lambda) psi is half the gradient in psi of the
    energy the solve reports, terms().total, less lambda's mass term."""

    @pytest.fixture(
        scope="class",
        params=[(TFWParams(z=z), None) for z in (1.0, 4.0, 16.0, 64.0)]
        + [(TFWParams(z=1.0, c_tf=0.0), t) for t in (0.2, 0.6)],
        ids=["tfw-Z1", "tfw-Z4", "tfw-Z16", "tfw-Z64", "hartree-t0.2", "hartree-t0.6"],
    )
    def state(self, request):
        params, cap = request.param
        model = _TFWModel(params, default_tfw_grid())
        st = model.minimize(cap)
        assert (st.lam < 0) == (cap is not None)
        return model, st

    def test_along_u(self, state):
        # E(s u) has the terms s^2 gradient, s^(10/3) bulk, s^2 attraction
        # and s^4 hartree, so d/ds at s = 1 needs no finite difference.
        model, st = state
        terms = model.terms(st.u, st.vh)
        de = 2.0 * terms.gradient + (10.0 / 3.0) * terms.bulk
        de += 4.0 * terms.hartree - 2.0 * terms.attraction
        psi = model.sw * st.u
        f, _ = model.stationarity(st.u, st.vh, st.lam)
        assert abs(de - 2.0 * st.lam * (psi @ psi) - 2.0 * (psi @ f)) <= 1e-12 * abs(terms.total)

    def test_in_a_random_direction(self, state):
        # The five-point central difference is exact on the quadratic and
        # quartic terms and, at this step, on the bulk term far inside the
        # bound; what it reads, up to 7e-10 |E|, is the end-node asymmetry
        # of the Coulomb map.
        model, st = state
        du = st.u * np.random.default_rng(46).standard_normal(st.u.size)
        eps = 3e-3

        def energy(s):
            u = st.u + s * eps * du
            return model.terms(u, model.coulomb(u)).total

        de = (8.0 * (energy(1) - energy(-1)) - (energy(2) - energy(-2))) / (12.0 * eps)
        psi, dpsi = model.sw * st.u, model.sw * du
        f, _ = model.stationarity(st.u, st.vh, st.lam)
        total = model.terms(st.u, st.vh).total
        assert abs(de - 2.0 * st.lam * (psi @ dpsi) - 2.0 * (f @ dpsi)) <= 1e-8 * abs(total)


class TestDenseOracle:
    """The Newton-Krylov solver against plain Newton on the dense Jacobian,
    with the Coulomb map assembled column by column from unit vectors."""

    @staticmethod
    def _dense_newton(model, u, cap=None):
        grid = model.grid
        p = model.params
        n = grid.n
        coul = np.column_stack(
            [coulomb_potential(RadialField(grid, e)).values for e in np.eye(n)]
        )
        a = np.diag(model.a.diag) + np.diag(model.a.off, 1) + np.diag(model.a.off, -1)
        sw = np.sqrt(4.0 * np.pi * grid.w) * grid.r  # the mass is sum psi^2
        psi = sw * u
        lam = 0.0
        if cap is not None:
            psi *= np.sqrt(cap / (psi @ psi))
        for _ in range(100):
            u = psi / sw
            bulk = p.c_tf * np.abs(u) ** (4.0 / 3.0)
            vloc = (5.0 / 3.0) * bulk - p.z / grid.r + coul @ (u * u) - lam
            f = p.c_w * (a @ psi) + vloc * psi
            jac = p.c_w * a + np.diag(vloc + (20.0 / 9.0) * bulk)
            jac += psi[:, None] * coul * (2.0 * u / sw)[None, :]
            if cap is not None:
                f = np.append(f, psi @ psi - cap)
                jac = np.block([[jac, -psi[:, None]], [2.0 * psi, np.zeros(1)]])
            dx = np.linalg.solve(jac, -f)
            psi = psi + dx[:n]
            if cap is not None:
                lam += dx[n]
            if np.linalg.norm(dx[:n]) < 1e-14 * np.linalg.norm(psi):
                return psi / sw, lam
        raise AssertionError("dense Newton did not converge")

    @pytest.mark.parametrize(
        "params, cap",
        [(TFWParams(z=1.0), None), (TFWParams(z=1.0, c_tf=0.0), 0.6)],
    )
    def test_agrees_with_dense_newton(self, params, cap):
        grid = make_log_grid(1e-4, 100.0, 300)
        model = _TFWModel(params, grid)
        st = model.minimize(cap)
        u, lam = st.u, st.lam
        # The dense iteration starts from the seed (rescaled onto the cap),
        # not from the solver's answer.
        u_ref, lam_ref = self._dense_newton(model, model.seed(), cap)
        assert np.max(np.abs(u - u_ref)) <= 1e-8 * np.max(np.abs(u_ref))
        q, q_ref = model.mass(u) - params.z, model.mass(u_ref) - params.z
        assert q == pytest.approx(q_ref, rel=1e-8)
        assert lam == pytest.approx(lam_ref, rel=1e-8, abs=0.0 if cap else 1e-300)


class TestMajorant:
    def test_passes_on_converged_solutions(self, tfw_sweep_rows, tfw_z1):
        chk = subharmonic_majorant_check(tfw_z1)
        assert chk.passed
        assert chk.monotone_beyond_bulk
        assert tfw_z1.q <= chk.q_bound + 1e-6

    def test_bound_taken_inside_the_bulk(self, tfw_z1):
        # over all r >= 1 the minimum sits at the grid's end, q + 3.2e-7
        chk = subharmonic_majorant_check(tfw_z1)
        assert chk.q_bound - tfw_z1.q > 1e-4

    def test_box_without_nodes_past_one_refused(self):
        sol = solve_tfw(TFWParams(z=64.0), make_log_grid(1e-4, 0.9, 800))
        with pytest.raises(DomainError, match=r"no grid node lies in \[1, r_bulk"):
            subharmonic_majorant_check(sol)

    def test_bound_is_order_one_at_z50(self):
        sol = solve_tfw(TFWParams(z=50.0))
        chk = subharmonic_majorant_check(sol)
        assert chk.passed
        assert chk.q_bound < 10.0

    def test_perturbed_input_rejected(self, tfw_z1):
        bad_u = tfw_z1.u.values.copy()
        tail = tfw_z1.u.grid.r > 5.0
        bad_u[tail] *= 1.5
        from ionlab.tfw import TFWSolution

        bad = TFWSolution(
            u=RadialField(tfw_z1.u.grid, bad_u),
            phi=tfw_z1.phi,
            n_c=tfw_z1.n_c,
            q=tfw_z1.q,
            terms=tfw_z1.terms,
            residual=tfw_z1.residual,
            iterations=tfw_z1.iterations,
            params=tfw_z1.params,
        )
        with pytest.raises(DomainError):
            subharmonic_majorant_check(bad)


    def test_unconverged_state_rejected(self, tfw_z1):
        """A state that solves the stationarity equation only to a relative
        residual of about 1e-6 is not scored."""
        grid = tfw_z1.u.grid
        model = _TFWModel(tfw_z1.params, grid)
        bump = np.exp(-((np.log(grid.r) - np.log(2.0)) ** 2))
        trial = tfw_z1.u.values * (1.0 + 1e-3 * bump)
        _, unit = model.stationarity(trial, model.coulomb(trial))
        bad_u = tfw_z1.u.values * (1.0 + 1e-3 * 1e-6 / unit * bump)
        vh = model.coulomb(bad_u)
        _, res = model.stationarity(bad_u, vh)
        assert 5e-7 < res < 2e-6
        bad = TFWSolution(
            u=RadialField(grid, bad_u),
            phi=RadialField(grid, tfw_z1.params.z / grid.r - vh),
            n_c=model.mass(bad_u),
            q=model.mass(bad_u) - tfw_z1.params.z,
            terms=model.terms(bad_u, vh),
            residual=res,
            iterations=tfw_z1.iterations,
            params=tfw_z1.params,
        )
        with pytest.raises(DomainError):
            subharmonic_majorant_check(bad)


class TestBulkLimit:
    def test_rescaled_density_approaches_gradient_free_model(self):
        """Z^-2 u_Z^2(Z^(-1/3) x) approaches the gradient-free neutral
        density of unit charge on the bulk window as Z grows."""
        from ionlab.tf import TFParams, solve_tf
        from ionlab.radial import make_log_grid

        tf_grid = make_log_grid(1e-4, 400.0, 1600)
        rho_tf = solve_tf(TFParams(z=1.0, n_electrons=1.0), tf_grid)

        window = (tf_grid.r >= 0.1) & (tf_grid.r <= 10.0)
        r_win = tf_grid.r[window]
        weights = tf_grid.w[window] * r_win**2
        norm = np.sum(weights * rho_tf.rho.values[window])

        errs = {}
        for z in (4.0, 64.0):
            sol = solve_tfw(TFWParams(z=z))
            g = sol.u.grid
            rescaled = (
                np.interp(r_win * z ** (-1.0 / 3.0), g.r, sol.u.values) ** 2 / z**2
            )
            errs[z] = np.sum(weights * np.abs(rescaled - rho_tf.rho.values[window])) / norm
        print(f"bulk-window L1 distances: {errs}")
        assert errs[64.0] < errs[4.0]
        assert errs[64.0] < 0.2
