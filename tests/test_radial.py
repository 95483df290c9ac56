import dataclasses
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ionlab.errors import DomainError, ParameterError
from ionlab.radial import (
    RadialField,
    RadialGrid,
    Tridiagonal,
    coulomb_potential,
    extremal_eigs,
    integrate_3d,
    make_log_grid,
    newton_potential,
    reduced_laplacian,
    tridiagonal_solver,
)
from ionlab.tf import _TAIL_GRID_N, _TAIL_R_MAX


class TestLogGrid:
    def test_log_spacing_ratios_equal(self):
        g = make_log_grid(1e-4, 1e2, 4)
        ratios = g.r[1:] / g.r[:-1]
        assert g.r[0] == pytest.approx(1e-4)
        assert g.r[-1] == pytest.approx(1e2)
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_exponential_quadrature_within_1e_minus_6(self):
        g = make_log_grid(1e-4, 1e2, 2000)
        val = g.w @ np.exp(-g.r)
        assert abs(val - 1.0) < 1e-6

    def test_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            make_log_grid(1.0, 1.0, 10)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ParameterError):
            make_log_grid(-1.0, 10.0, 100)
        with pytest.raises(ParameterError):
            make_log_grid(1e-4, 1e2, 2)


def _reference_log_grid(r_min, r_max, n):
    """The log-grid arithmetic, written out once more: the record must
    derive exactly these arrays from its three numbers."""
    x = np.linspace(np.log(r_min), np.log(r_max), n)
    h = x[1] - x[0]
    r = np.exp(x)
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    w = h * r * c
    w[0] += r_min
    mass = 2.0 * np.sinh(0.5 * h) * r
    return r, w, mass, float(h)


_TAIL_SCALE_Z5 = 5.0 ** (-1.0 / 3.0)


class TestGridRecord:
    def test_fields_are_the_three_numbers(self):
        assert [f.name for f in dataclasses.fields(RadialGrid)] == ["r_min", "r_max", "n"]
        g = make_log_grid(1e-4, 400.0, 2200)
        assert (g.r_min, g.r_max, g.n) == (1e-4, 400.0, 2200)

    def test_equal_grids_compare_and_hash_equal(self):
        a, b = make_log_grid(1e-4, 100, 2000), make_log_grid(1e-4, 100.0, 2000)
        assert a == b and hash(a) == hash(b) and len({a, b, RadialGrid(1e-4, 100, 2000)}) == 1
        assert a != make_log_grid(1e-4, 100.0, 2001)
        assert dataclasses.replace(a, n=4000) == make_log_grid(1e-4, 100.0, 4000)

    @pytest.mark.parametrize(
        "r_min, r_max, n",
        [
            (np.nan, 100.0, 2000),
            (1e-4, np.nan, 2000),
            (0.0, 100.0, 2000),
            (-1.0, 100.0, 2000),
            (1.0, 1.0, 10),
            (1e-4, 1e-5, 2000),
            (1e-4, np.inf, 2000),
            (1.0, np.nextafter(1.0, 2.0), 2000),
            (1e-4, 100.0, 3),
            (1.0, sys.float_info.max, 5),  # finite radii, overflowing weights
            (1e-4, 100.0, 2000.0),
            (1e-4, 100.0, True),
        ],
    )
    def test_refused(self, r_min, r_max, n):
        with pytest.raises(ParameterError):
            RadialGrid(r_min, r_max, n)

    @pytest.mark.parametrize(
        "r_min, r_max, n",
        [
            (1e-4, 100.0, 2000),
            (1e-4, 400.0, 2200),
            (1e-4, 100.0, 8000),
            (1e-4 * _TAIL_SCALE_Z5, _TAIL_R_MAX * _TAIL_SCALE_Z5, _TAIL_GRID_N),
        ],
    )
    def test_derived_arrays_bit_for_bit(self, r_min, r_max, n):
        g = make_log_grid(r_min, r_max, n)
        r, w, mass, h = _reference_log_grid(r_min, r_max, n)
        assert np.array_equal(g.r, r) and np.array_equal(g.w, w)
        assert np.array_equal(g.mass, mass) and g.log_step == h

    def test_psi_scale_and_read_only_arrays(self, default_grid):
        g = default_grid
        assert np.array_equal(g.sr, np.sqrt(4.0 * np.pi * g.mass) * g.r)
        for arr in (g.r, g.w, g.mass, g.sr):
            assert isinstance(arr, np.ndarray) and arr.dtype == float
            assert not arr.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.r = g.r.copy()


class TestIntegrate3d:
    def test_exponential_8pi(self, default_grid):
        f = RadialField(default_grid, np.exp(-default_grid.r))
        assert integrate_3d(f, 0) == pytest.approx(8 * np.pi, abs=1e-8)

    def test_zero_integrand(self, default_grid):
        f = RadialField(default_grid, np.zeros(default_grid.n))
        for p in (-2, -1, 0, 1, 3):
            assert integrate_3d(f, p) == 0.0

    def test_gaussian_over_r_2pi(self, default_grid):
        f = RadialField(default_grid, np.exp(-default_grid.r**2))
        assert integrate_3d(f, -1) == pytest.approx(2 * np.pi, abs=1e-6)

    def test_power_below_minus_two_rejected(self, default_grid):
        f = RadialField(default_grid, np.exp(-default_grid.r))
        with pytest.raises(ParameterError):
            integrate_3d(f, -3)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
    )
    def test_linearity(self, a, b):
        g = make_log_grid(1e-3, 50.0, 300)
        f1 = RadialField(g, np.exp(-g.r))
        f2 = RadialField(g, np.exp(-2 * g.r) * g.r)
        combo = RadialField(g, a * f1.values + b * f2.values)
        lhs = integrate_3d(combo, 0)
        rhs = a * integrate_3d(f1, 0) + b * integrate_3d(f2, 0)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestNewtonPotential:
    def test_uniform_ball_is_point_charge_outside(self, default_grid):
        g = default_grid
        radius, charge = 2.0, 3.0
        dens = charge / (4.0 / 3.0 * np.pi * radius**3)
        rho = RadialField(g, np.where(g.r <= radius, dens, 0.0), nonnegative=True)
        phi = newton_potential(rho)
        outside = g.r > 1.02 * radius
        # discrete enclosed charge differs from the nominal one at O(h)
        assert np.allclose(phi.values[outside] * g.r[outside], charge, rtol=0.02)
        # but r*phi is exactly flat beyond the support
        rphi = phi.values * g.r
        edge = np.searchsorted(g.r, radius) + 2
        assert np.max(np.abs(rphi[edge:] - rphi[-1])) < 1e-12 * charge

    def test_zero_density(self, default_grid):
        rho = RadialField(default_grid, np.zeros(default_grid.n), nonnegative=True)
        assert np.all(newton_potential(rho).values == 0.0)

    def test_hydrogen_density_analytic(self, default_grid):
        g = default_grid
        rho = RadialField(g, np.exp(-g.r) / (8 * np.pi), nonnegative=True)
        phi = newton_potential(rho)
        exact = 1.0 / g.r - np.exp(-g.r) * (1.0 / g.r + 0.5)
        assert np.max(np.abs(phi.values - exact)) < 1e-6

    def test_monotone_nonincreasing(self, default_grid):
        r = default_grid.r
        rho = RadialField(default_grid, np.exp(-0.5 * r) * (1 + r), nonnegative=True)
        phi = newton_potential(rho)
        assert np.all(np.diff(phi.values) <= 1e-12)

    def test_complementarity_with_integrate(self, default_grid):
        g = default_grid
        rho = RadialField(g, np.exp(-g.r**2), nonnegative=True)
        phi = newton_potential(rho)
        mass = integrate_3d(rho, 0)
        assert g.r[-1] * phi.values[-1] == pytest.approx(mass, abs=1e-8)

    def test_negative_density_rejected(self, default_grid):
        rho = RadialField(default_grid, -np.ones(default_grid.n))
        with pytest.raises(DomainError):
            newton_potential(rho)

    def test_signed_entry_point_is_linear(self, default_grid):
        g = default_grid
        pos = np.exp(-g.r)
        neg = (1.0 + g.r) * np.exp(-0.5 * g.r)
        plus = newton_potential(RadialField(g, pos)).values
        assert np.array_equal(coulomb_potential(RadialField(g, pos)).values, plus)
        minus = newton_potential(RadialField(g, neg)).values
        signed = coulomb_potential(RadialField(g, 2.0 * pos - 3.0 * neg)).values
        assert np.allclose(signed, 2.0 * plus - 3.0 * minus, rtol=0, atol=1e-13 * np.max(minus))


    def test_outer_shells_keep_far_field_accuracy(self, default_grid):
        # int_r^R e^(-s) ds = e^(-r) - e^(-R) falls below the rounding of
        # the full-box integral by r ~ 37; summed inward it stays accurate.
        from ionlab.radial import _cumulative_integral

        g = default_grid
        f = np.exp(-g.r)
        outer = _cumulative_integral(g, f, inward=True)
        window = (g.r > 1.0) & (g.r < 40.0)
        exact = np.exp(-g.r[window]) - np.exp(-g.r_max)
        assert np.max(np.abs(outer[window] / exact - 1.0)) < 1e-3

    @pytest.mark.parametrize("inward", [False, True])
    def test_end_correction_equals_numpy_gradient_rule(self, inward):
        """The written-out derivative of the end correction is
        np.gradient(g, h) to the bit, on a 4-point grid and a default one."""
        from ionlab.radial import _cumulative_integral

        for g in (make_log_grid(1e-3, 10.0, 4), make_log_grid(1e-4, 100.0, 2000)):
            for f in (np.exp(-g.r), np.sin(g.r) / (1.0 + g.r**3)):
                h = g.log_step
                y = f * g.r
                seg = 0.5 * h * (y[:-1] + y[1:])
                gp = np.gradient(y, h)
                c = h * h / 12.0
                if inward:
                    ref = np.append(np.cumsum(seg[::-1])[::-1], 0.0) - c * (gp[-1] - gp)
                else:
                    ref = np.append(0.0, np.cumsum(seg)) - c * (gp - gp[0])
                assert np.array_equal(_cumulative_integral(g, f, inward=inward), ref)


def _dense(t):
    return np.diag(t.diag) + np.diag(t.off, 1) + np.diag(t.off, -1)


def _hydrogen(grid):
    a = reduced_laplacian(grid)
    return Tridiagonal(a.diag - 1.0 / grid.r, a.off)


class TestReducedLaplacian:
    def test_hydrogen_ground_state(self, default_grid):
        vals = extremal_eigs(_hydrogen(default_grid), k=1)
        assert vals[0] == pytest.approx(-0.25, abs=1e-3)

    def test_symmetry_exact(self, coarse_grid):
        a = reduced_laplacian(coarse_grid)
        columns = np.column_stack([a @ e for e in np.eye(coarse_grid.n)])
        assert a.off.shape == (coarse_grid.n - 1,)
        assert np.array_equal(columns, columns.T)
        assert np.array_equal(columns, _dense(a))

    @pytest.mark.parametrize("n", [2000, 8000])
    def test_product_equals_csr_bit_for_bit(self, n):
        import scipy.sparse

        g = make_log_grid(1e-4, 1e2, n)
        a = reduced_laplacian(g)
        csr = scipy.sparse.diags([a.off, a.diag, a.off], [-1, 0, 1], format="csr")
        for x in (np.sin(np.arange(n)) * g.r, np.random.default_rng(5).standard_normal(n)):
            assert np.array_equal(a @ x, csr @ x)

    def test_annihilates_linear_reduced_functions(self, default_grid):
        a = reduced_laplacian(default_grid)
        s = np.sqrt(4.0 * np.pi * default_grid.mass)
        out = (a @ (s * 3.7 * default_grid.r)) / s
        scale = np.max(np.abs(a.diag))
        assert np.max(np.abs(out[1:-1])) < 1e-12 * scale

    def test_doubling_n_halves_hydrogen_error(self):
        errors = []
        for n in (32, 64, 128, 256):
            vals = extremal_eigs(_hydrogen(make_log_grid(1e-4, 1e2, n)), k=1)
            errors.append(abs(vals[0] + 0.25))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 2.0


class TestExtremalEigs:
    """The tridiagonal path (bisection) against oracles."""

    @staticmethod
    def _hardy(grid):
        a = reduced_laplacian(grid)
        return Tridiagonal(a.diag - 1.0 / (4.0 * grid.r**2), a.off)

    @pytest.mark.parametrize("kind", ["hardy", "diagonal"], ids=lambda kind: f"{kind}-smallest")
    def test_matches_dense_eigh(self, kind):
        # Dense eigh is accurate only to eps * ||T|| absolute, so the grid is
        # graded mildly enough for that to stay below 1e-10 of every eigenvalue
        # compared; the strongly graded case is checked against eig_banded below.
        g = make_log_grid(1.0, 10.0, 400)
        mat = self._hardy(g)
        if kind == "diagonal":
            mat = Tridiagonal(np.log(g.r) ** 2, np.zeros(g.n - 1))
        vals = extremal_eigs(mat, k=8)
        ref_vals = scipy.linalg.eigh(_dense(mat), subset_by_index=(0, 7), eigvals_only=True)
        assert np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-10, atol=0)

    def test_wrong_off_length_rejected(self):
        for size in (0, 10, 11):
            mat = Tridiagonal(2.0 * np.ones(10), np.ones(size))
            with pytest.raises(ValueError):
                extremal_eigs(mat)
            with pytest.raises(ValueError):
                tridiagonal_solver(mat)

    def test_graded_hardy_matches_banded_solver(self):
        # stebz at its default tolerance (eps * ||T||_1) misses these by ~1e-4.
        g = make_log_grid(1e-4, 1e2, 2000)
        mat = self._hardy(g)
        vals = extremal_eigs(mat, k=8)
        band = np.vstack([np.concatenate(([0.0], mat.off)), mat.diag])
        ref = scipy.linalg.eig_banded(band, select="i", select_range=(0, 7), eigvals_only=True)
        np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0)


class TestTridiagonalSolver:
    """One factorization, many solves: bit for bit what solve_banded((1, 1),
    ...) returns, with its errors."""

    @staticmethod
    def _band(t):
        """t in LAPACK band storage: superdiagonal, diagonal, subdiagonal."""
        return np.vstack([np.append(0.0, t.off), t.diag, np.append(t.off, 0.0)])

    @staticmethod
    def _tfw_matrix():
        from ionlab.tfw import TFWParams, _TFWModel, default_tfw_grid

        model = _TFWModel(TFWParams(z=1.0), default_tfw_grid())
        u = model.seed()
        vloc = model.local_potential(u, model.coulomb(u))
        return Tridiagonal(model.a.diag + vloc, model.a.off), model.grid.sr * u

    @staticmethod
    def _pivoting_matrix(n=200):
        rng = np.random.default_rng(3)
        t = Tridiagonal(rng.uniform(-0.1, 0.1, n), rng.uniform(-4, 4, n - 1))
        ipiv = scipy.linalg.lapack.dgttrf(t.off, t.diag, t.off)[4]
        assert np.count_nonzero(ipiv != np.arange(1, n + 1)) > n // 2  # |off| > |diag| mostly
        return t, rng.standard_normal(n)

    @pytest.mark.parametrize("kind", ["tfw", "pivoting"])
    def test_equals_solve_banded(self, kind):
        t, rhs = self._tfw_matrix() if kind == "tfw" else self._pivoting_matrix()
        kept = (t.diag.copy(), t.off.copy())
        solve = tridiagonal_solver(t)
        for b in (rhs, np.cos(np.arange(rhs.size)), rhs):
            assert np.array_equal(solve(b), scipy.linalg.solve_banded((1, 1), self._band(t), b))
        assert np.array_equal(t.diag, kept[0]) and np.array_equal(t.off, kept[1])

    def test_singular_band_raises_linalg_error(self):
        t, rhs = self._pivoting_matrix(8)
        t.diag[0] = t.off[0] = 0.0  # first column zero
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.solve_banded((1, 1), self._band(t), rhs)
        with pytest.raises(np.linalg.LinAlgError):
            tridiagonal_solver(t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        t, rhs = self._pivoting_matrix(8)
        solve = tridiagonal_solver(t)
        rhs[3] = bad
        for call in (
            lambda: scipy.linalg.solve_banded((1, 1), self._band(t), rhs), lambda: solve(rhs)
        ):
            with pytest.raises(ValueError):
                call()
        for arr in (t.diag, t.off):
            arr[2] = bad
            for call in (
                lambda: scipy.linalg.solve_banded((1, 1), self._band(t), np.ones(8)),
                lambda: tridiagonal_solver(t),
            ):
                with pytest.raises(ValueError):
                    call()
            arr[2] = 1.0


def test_field_length_mismatch_rejected(coarse_grid):
    with pytest.raises(ParameterError):
        RadialField(coarse_grid, np.ones(coarse_grid.n + 3))


def test_nonnegative_tag_enforced(coarse_grid):
    with pytest.raises(DomainError):
        RadialField(coarse_grid, -np.ones(coarse_grid.n), nonnegative=True)
