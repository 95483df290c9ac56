import numpy as np
import pytest

from ionlab.errors import ConvergenceError, DomainError, ParameterError
from ionlab.hartree import (
    compute_tc,
    e_curve,
    hartree_energy_direct,
    minimize_e,
)
from ionlab.radial import make_log_grid
from ionlab.tfw import TFWParams, _TFWModel


@pytest.fixture(scope="module")
def grid():
    return make_log_grid(1e-4, 100.0, 1500)


class TestMinimize:
    def test_tiny_mass_is_hydrogenic(self, grid):
        st = minimize_e(1e-6, grid)
        assert st.mu == pytest.approx(0.25, rel=0.01)
        assert st.terms.total / 1e-6 == pytest.approx(-0.25, rel=0.01)
        assert st.bound_mass == pytest.approx(1e-6, rel=1e-9)

    def test_unit_mass_binds(self, grid):
        st = minimize_e(1.0, grid)
        assert st.terms.total < 0
        assert st.mu > 0
        assert st.bound_mass == pytest.approx(1.0, rel=1e-9)

    def test_above_critical_mass_saturates(self, grid, hartree_tc):
        st = minimize_e(2.0, grid)
        assert st.bound_mass < 2.0
        assert abs(st.mu) < 1e-6
        assert st.bound_mass == pytest.approx(hartree_tc, abs=0.02)

    def test_flat_branch_energy(self, grid):
        e16 = minimize_e(1.6, grid).terms.total
        e20 = minimize_e(2.0, grid).terms.total
        assert abs(e16 - e20) < 1e-4

    def test_nonpositive_mass_rejected(self, grid):
        with pytest.raises(ParameterError):
            minimize_e(0.0, grid)
        with pytest.raises(ParameterError):
            minimize_e(float("nan"), grid)

    def test_variational_against_trial_states(self, grid):
        st = minimize_e(1.0, grid)
        model = _TFWModel(TFWParams(z=1.0, c_tf=0.0), grid)
        for scale in (0.6, 1.0, 1.8):
            trial = np.exp(-scale * grid.r)
            trial /= np.sqrt(model.mass(trial))
            vh = model.coulomb(trial)
            assert model.terms(trial, vh).total >= st.terms.total - 1e-12


class TestCriticalMass:
    def test_in_expected_window(self, hartree_tc):
        assert 1.15 <= hartree_tc <= 1.27

    def test_below_proven_upper_bound(self, hartree_tc):
        assert hartree_tc < 1.5211

    def test_above_one(self, hartree_tc):
        assert hartree_tc > 1.0

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ParameterError):
            compute_tc(tol=0.0)
        with pytest.raises(ParameterError):
            compute_tc(tol=float("nan"))

    def test_tolerance_not_below_tc_rejected(self, hartree_tc):
        # tol = t_c would certify at a cap of 0, and tol > t_c at a negative one
        for tol in (hartree_tc, 1.5):
            with pytest.raises(ParameterError, match=r"t_c = 1\.207435"):
                compute_tc(tol=tol)

    def test_matches_multiplier_bisection(self, hartree_tc):
        # Oracle: bisect on the sign of mu(t) over [1, 2]; mu > 0 while
        # the mass cap binds, i.e. below t_c.
        lo, hi = 1.0, 2.0
        while hi - lo > 0.01:
            mid = 0.5 * (lo + hi)
            if minimize_e(mid).mu > 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - hartree_tc) < 0.01

    def test_uncertified_result_raises(self, monkeypatch, grid):
        # Every capped solve answers with the uncapped state: mu = 0.
        monkeypatch.setattr(_TFWModel, "minimize", lambda self, cap=None: self.uncapped)
        with pytest.raises(ConvergenceError):
            compute_tc(grid)

    def test_one_uncapped_solve_per_call(self, monkeypatch, grid):
        """compute_tc and e_curve reuse their one uncapped solve for every
        capped one, and their answers equal minimize_e's bit for bit."""
        import ionlab.tfw

        caps = []
        newton = ionlab.tfw._TFWModel.newton

        def counted(self, u, cap, stage, *lam):
            caps.append(cap)
            return newton(self, u, cap, stage, *lam)

        monkeypatch.setattr(ionlab.tfw._TFWModel, "newton", counted)
        tc = compute_tc(grid)
        assert caps.count(None) == 1
        caps.clear()
        rows = e_curve([0.6, 1.8], grid)
        assert caps.count(None) == 1
        assert tc == minimize_e(2.0, grid).bound_mass
        for t, energy, mu, bound in rows:
            st = minimize_e(t, grid)
            assert (energy, mu, bound) == (st.terms.total, st.mu, st.bound_mass)


class TestECurve:
    def test_strictly_decreasing_below_tc(self, grid):
        rows = e_curve([0.2, 0.6, 1.0], grid)
        es = [r[1] for r in rows]
        assert es[0] > es[1] > es[2]
        mus = [r[2] for r in rows]
        assert mus[0] >= mus[1] >= mus[2] > 0  # mu nonincreasing

    def test_flat_above_tc(self, grid):
        rows = e_curve([1.6, 1.8, 2.0], grid)
        es = [r[1] for r in rows]
        assert max(es) - min(es) < 1e-4
        masses = [r[3] for r in rows]
        assert max(masses) - min(masses) < 1e-4

    def test_empty_input_rejected(self, grid):
        with pytest.raises(ParameterError):
            e_curve([], grid)
        with pytest.raises(ParameterError):
            e_curve([0.5, -1.0], grid)
        with pytest.raises(ParameterError):
            e_curve([0.5, float("nan")], grid)

    def test_virial_defect_small(self):
        # 2K + P vanishes at a minimizer, on the cap or off it: a dilation
        # keeps the mass.  The default grid reads -9.78e-5 to -9.87e-5.
        for t in (0.2, 0.6, 1.0, 2.0):
            assert abs(minimize_e(t).terms.virial_defect) < 2e-4, t


class TestScalingConsistency:
    @pytest.mark.parametrize(
        "n_particles, z, grid_args",
        [
            (3.0, 2.5, (1e-4, 100.0, 1500)),
            # At Z = 0.5 on the default grid plain Newton from the
            # hydrogenic seed runs into the null state; the deflated steps
            # reach the minimizer.
            (1.5, 0.5, None),
            # Two capped solves whose mass defect sits at the 1e-9 stop.
            (3.0, 4.0, None),
            (1.5, 0.5, (1e-5, 100.0, 2000)),
        ],
        ids=["N3-Z2.5", "N1.5-Z0.5", "N3-Z4", "N1.5-Z0.5-rmin1e-5"],
    )
    def test_unscaled_matches_rescaled_form(self, n_particles, z, grid_args):
        grid = make_log_grid(*grid_args) if grid_args else None
        direct = hartree_energy_direct(n_particles, z, grid)
        t = (n_particles - 1.0) / z
        st = minimize_e(t, grid)
        predicted = n_particles * z**3 / (n_particles - 1.0) * st.terms.total
        assert abs(direct - predicted) / abs(direct) < 1e-3

    def test_direct_requires_multiple_particles(self, grid):
        with pytest.raises(ParameterError):
            hartree_energy_direct(1.0, 1.0, grid)

    def test_direct_rejects_cap_above_critical_mass(self, grid):
        # N - 1 = 2 > t_c Z: the normalized minimum is not attained.
        with pytest.raises(DomainError):
            hartree_energy_direct(3.0, 1.0, grid)


class TestReferenceValues:
    """Values of the eigenvalue-replacement SCF that an earlier gradient
    flow replaced, on the default grid (residual 1e-6, brentq to 1e-8 in
    mass on the flat branch)."""

    @pytest.mark.parametrize(
        "t, energy",
        [
            (0.2, -0.04396397510868701),
            (0.6, -0.09977151641401312),
            (1.0, -0.1219587057232827),
            (1.6, -0.12416627130963892),
            (2.0, -0.12416627130963892),
        ],
    )
    def test_e_of_t(self, t, energy):
        assert minimize_e(t).terms.total == pytest.approx(energy, rel=1e-8)

    def test_direct_energy(self):
        assert hartree_energy_direct(3.0, 2.5) == pytest.approx(
            -2.6793934190345583, rel=1e-8
        )

    def test_critical_mass_pinned(self, hartree_tc):
        # Newton's converged t_c at full precision, not just the old SCF's 1e-8.
        assert hartree_tc == pytest.approx(1.207435045943805, rel=1e-12)
