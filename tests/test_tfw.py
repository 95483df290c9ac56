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
from ionlab.radial import RadialField, coulomb_potential, integrate_3d, make_log_grid
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
            (1.0, 0.08995507883457154, 0.057514407705942176, 0.7850480774324045),
            (4.0, 0.1645107948736193, 0.2667091241761814, 2.187353028421035),
            (16.0, 0.21964232920703353, 0.6621212263690174, 5.521843624510402),
            (64.0, 0.2628075704735551, 1.33831898114277, 13.737183421425454),
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
        """A Newton step costs one Coulomb solve per density tried and one
        per Jacobian product, 4.6 to 6.7 in these cases (the gradient-free
        seed's own solves are not counted)."""
        counts = {"density": 0, "signed": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ionlab.tfw, "newton_potential", counted("density", ionlab.tfw.newton_potential)
        )
        monkeypatch.setattr(
            ionlab.tfw, "coulomb_potential", counted("signed", ionlab.tfw.coulomb_potential)
        )
        st = _TFWModel(params, default_tfw_grid()).minimize(cap)
        steps = st.iterations
        assert st.residual < ionlab.tfw._RESIDUAL_TOL
        assert counts["density"] > steps
        assert counts["signed"] >= steps
        assert counts["density"] + counts["signed"] <= 8 * steps

    def test_gradient_coefficient_trend(self):
        # weaker gradient correction -> smaller excess charge
        qs = []
        for c_w in (1.0, 0.3, 0.1):
            qs.append(solve_tfw(TFWParams(z=1.0, c_w=c_w)).q)
        print(f"q vs c_w (1.0, 0.3, 0.1): {qs}")
        assert qs[0] > qs[1] > qs[2] > 0


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
    produced it, which carries the Hartree potential of its density."""
    count = {"solves": 0, "at_last_newton": None}
    coulomb = ionlab.radial.coulomb_potential

    def counted_coulomb(*args, **kwargs):
        count["solves"] += 1
        return coulomb(*args, **kwargs)

    def counted_newton(*args, **kwargs):
        out = ionlab.krylov.newton_krylov(*args, **kwargs)
        count["at_last_newton"] = count["solves"]
        return out

    for module in (ionlab.radial, ionlab.tf, ionlab.tfw):
        monkeypatch.setattr(module, "coulomb_potential", counted_coulomb)
    for module in (ionlab.tf, ionlab.tfw):
        monkeypatch.setattr(module, "newton_krylov", counted_newton)
    solve()
    assert count["at_last_newton"] is not None
    assert count["solves"] == count["at_last_newton"]


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
        sr = grid.sr
        wm = grid.w / grid.mass
        psi = sr * u
        lam = 0.0
        if cap is not None:
            psi *= np.sqrt(cap / (wm @ (psi * psi)))
        for _ in range(100):
            u = psi / sr
            bulk = p.c_tf * np.abs(u) ** (4.0 / 3.0)
            vloc = (5.0 / 3.0) * bulk - p.z / grid.r + coul @ (u * u) - lam
            f = p.c_w * (a @ psi) + vloc * psi
            jac = p.c_w * a + np.diag(vloc + (20.0 / 9.0) * bulk)
            jac += psi[:, None] * coul * (2.0 * u / sr)[None, :]
            if cap is not None:
                f = np.append(f, wm @ (psi * psi) - cap)
                jac = np.block([[jac, -psi[:, None]], [2.0 * wm * psi, np.zeros(1)]])
            dx = np.linalg.solve(jac, -f)
            psi = psi + dx[:n]
            if cap is not None:
                lam += dx[n]
            if np.linalg.norm(dx[:n]) < 1e-14 * np.linalg.norm(psi):
                return psi / sr, lam
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
