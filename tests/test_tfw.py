import numpy as np
import pytest
import scipy.linalg

import ionlab.tfw
from ionlab.errors import ConvergenceError, DomainError, ParameterError
from ionlab.radial import RadialField, integrate_3d
from ionlab.tfw import (
    TFWOptions,
    TFWParams,
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

    def test_decreasing_sweep_rejected(self):
        with pytest.raises(ParameterError):
            excess_charge_sweep([4.0, 1.0])

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            TFWParams(z=-1.0)
        with pytest.raises(ParameterError):
            TFWParams(z=1.0, c_w=0.0)
        with pytest.raises(ParameterError):
            TFWParams(z=1.0, c_tf=-0.1)
        assert TFWParams(z=1.0, c_tf=0.0).c_tf == 0.0

    def test_sweep_rows_pinned(self, tfw_sweep_rows):
        # The flow's answers at full precision, so that a Hartree
        # potential reused for the wrong density cannot pass unnoticed.
        expected = [
            (1.0, 0.08991662850883442, 0.05751438425615938, 0.78504826370268),
            (4.0, 0.16488514026197443, 0.2667088548265247, 2.1873552989088436),
            (16.0, 0.21704730608260903, 0.6621203954080238, 5.521835342509976),
            (64.0, 0.19439553612937743, 1.338321923698479, 13.737197011876475),
        ]
        for row, want in zip(tfw_sweep_rows, expected, strict=True):
            assert row == pytest.approx(want, rel=1e-12)

    def test_rung_that_misses_tolerance_names_its_charge(self):
        with pytest.raises(ConvergenceError, match=r"Z=1\b"):
            excess_charge_sweep([1.0, 4.0], opts=TFWOptions(max_iter=5))


class TestStationarity:
    def test_residual_small(self, tfw_z1):
        assert tfw_z1.residual < 2e-6

    def test_solution_mass_equals_nc(self, tfw_z1):
        mass = integrate_3d(RadialField(tfw_z1.u.grid, tfw_z1.u.values**2))
        assert mass == pytest.approx(tfw_z1.n_c, rel=1e-12)

    def test_step_underflow_reports_steps_taken(self):
        model = _TFWModel(TFWParams(z=1.0, c_tf=0.0), default_tfw_grid())
        rising = iter(range(10**6))
        model.energy = lambda u, *_: float(next(rising))  # every step is rejected
        _, rel, iters, _ = model.implicit_flow(model.seed(), max_iter=1000, tol=1e-9)
        assert iters < 100  # eta = 0.1 halves below 1e-12 after 37 rejections
        assert rel >= 1e-9

    @pytest.mark.parametrize("cap", [None, 0.6])
    def test_one_coulomb_solve_per_candidate(self, monkeypatch, cap):
        """Each banded step yields one candidate density and costs one
        Coulomb solve; the seed costs the one extra."""
        counts = {"coulomb": 0, "banded": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ionlab.tfw, "newton_potential", counted("coulomb", ionlab.tfw.newton_potential)
        )
        monkeypatch.setattr(
            scipy.linalg, "solve_banded", counted("banded", scipy.linalg.solve_banded)
        )
        model = _TFWModel(TFWParams(z=1.0, c_tf=0.0), default_tfw_grid())
        _, rel, iters, _ = model.implicit_flow(model.seed(), 16_000, 2e-6, cap)
        assert rel < 2e-6
        assert counts["banded"] == iters - 1
        assert counts["coulomb"] == counts["banded"] + 1

    def test_gradient_coefficient_trend(self):
        # weaker gradient correction -> smaller excess charge
        qs = []
        for c_w in (1.0, 0.3, 0.1):
            qs.append(solve_tfw(TFWParams(z=1.0, c_w=c_w)).q)
        print(f"q vs c_w (1.0, 0.3, 0.1): {qs}")
        assert qs[0] > qs[1] > qs[2] > 0


class TestMajorant:
    def test_passes_on_converged_solutions(self, tfw_sweep_rows, tfw_z1):
        chk = subharmonic_majorant_check(tfw_z1)
        assert chk.passed
        assert chk.monotone_beyond_bulk
        assert tfw_z1.q <= chk.q_bound + 1e-6

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
            energy=tfw_z1.energy,
            residual=tfw_z1.residual,
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
