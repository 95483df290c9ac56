import numpy as np
import pytest

from ionlab.errors import DomainError, ParameterError
from ionlab.opchecks import (
    BUMP_HALF_WIDTHS,
    BUMP_PER_WIDTH,
    BUMP_WALL_CLEARANCE_NODES,
    IMS_BOUND,
    _band_product,
    _bump_matrix,
    _canonical_coefficients,
    _smooth_bump,
    check_double_commutator_cube,
    check_hardy,
    check_ims_x2,
    check_lieb_symmetrization,
    commutator_with_diagonal,
    double_commutator_matrix,
    symmetrized_product,
)
from ionlab.radial import Tridiagonal, extremal_eigs, make_log_grid, reduced_laplacian


def _whole_grid_bumps(g):
    """Reference: every bump of the dictionary evaluated on the whole grid
    (on a box that all BUMP_HALF_WIDTHS fit)."""
    x = np.log(g.r)
    clear = BUMP_WALL_CLEARANCE_NODES * g.log_step
    return np.array([
        np.sqrt(4.0 * np.pi * g.mass) * _smooth_bump((x - c) / half)
        for half in BUMP_HALF_WIDTHS
        for c in np.linspace(x[0] + clear + half, x[-1] - clear - half, BUMP_PER_WIDTH)
    ]).T


class TestHardy:
    def test_default_grid_passes(self, default_grid):
        rep = check_hardy(default_grid, tol=1e-2)
        assert rep.passed
        assert rep.extremal_eigenvalue >= -1e-2

    def test_coarse_16_point_grid(self):
        # 16 points over 13.8 units of log r: fewer than 10 per unit
        with pytest.raises(DomainError):
            check_hardy(make_log_grid(1e-4, 1e2, 16), tol=1.0)

    def test_negative_tolerance_rejected(self, coarse_grid):
        with pytest.raises(ParameterError):
            check_hardy(coarse_grid, tol=-1.0)
        with pytest.raises(ParameterError):
            check_hardy(coarse_grid, tol=float("nan"))


class TestLiebSymmetrization:
    def test_default_grid_passes(self, default_grid):
        rep = check_lieb_symmetrization(default_grid, tol=1e-2)
        assert rep.passed

    def test_sign_flip_fails(self, coarse_grid):
        g = coarse_grid
        a = reduced_laplacian(g)
        vals = extremal_eigs(symmetrized_product(a, -g.r), k=1)
        assert vals[0] < -1e-2

    def test_identity_times_r(self, coarse_grid):
        g = coarse_grid
        ident = Tridiagonal(np.ones(g.n), np.zeros(g.n - 1))
        vals = extremal_eigs(symmetrized_product(ident, g.r), k=1)
        assert vals[0] == pytest.approx(2 * g.r_min, rel=1e-12)


class TestImsX2:
    """The identity part is clean and the eigenvalue sits at the sharp
    constant 1/4 - 1 = -3/4 of the -Laplace convention, up to the
    finite-box gap; it lies below -3/8, the bound of -Laplace/2."""

    def test_identity_deviation_small(self, default_grid):
        rep = check_ims_x2(default_grid, tol=1e-2)
        assert rep.details["identity_rel_deviation"] < 1e-8

    @pytest.mark.parametrize(
        "spec",
        [(1e-4, 1e2, 2000), (1e-2, 1e2, 1000), (1e-8, 1e4, 600), (0.5, 2.0, 400),
         (1e-4, 1e2, 140)],
    )
    def test_identity_defect_in_closed_form(self, spec):
        # On a log grid S - (R A R - I) = tridiag(-1/2, 1, -1/2) exactly, so
        # the reported deviation is sqrt(1.5 n - 0.5) / |A|_F: the grid's,
        # not the identity's.
        g = make_log_grid(*spec)
        r = g.r
        a = reduced_laplacian(g)
        s_op = symmetrized_product(a, r**2)
        dev_diag = 0.5 * s_op.diag - (r * a.diag * r - 1.0)
        dev_upper = 0.5 * s_op.off - r[:-1] * a.off * r[1:]
        dev_lower = 0.5 * s_op.off - r[1:] * a.off * r[:-1]
        assert np.abs(dev_diag - 1.0).max() <= 1e-9
        assert max(np.abs(dev_upper + 0.5).max(), np.abs(dev_lower + 0.5).max()) <= 1e-9
        rel_dev = check_ims_x2(g, tol=1e-2).details["identity_rel_deviation"]
        a_norm = np.sqrt(a.diag @ a.diag + 2.0 * (a.off @ a.off))
        assert rel_dev == pytest.approx(np.sqrt(1.5 * g.n - 0.5) / a_norm, rel=1e-10)

    def test_eigenvalue_at_sharp_constant(self):
        # -3/4 + (pi/L)^2 is the minimum on a log box of length L; the
        # Dirichlet ghost cells add one log step h at each end
        errors = []
        for n in (500, 1000, 2000):
            g = make_log_grid(1e-4, 1e2, n)
            rep = check_ims_x2(g, tol=1e-2)
            box = np.log(g.r[-1] / g.r[0]) + 2.0 * g.log_step
            expected = -0.75 + (np.pi / box) ** 2
            assert rep.extremal_eigenvalue >= -0.75
            errors.append(abs(rep.extremal_eigenvalue - expected))
        assert max(errors) < 1e-5
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize(
        "spec, eigenvalue, deviation",
        [
            ((1e-2, 1e2, 1000), -0.6341165932781224, 2.564707540058563e-08),
            ((0.1, 1e3, 2000), -0.6338866091500677, 6.423963167186543e-07),
            ((0.5, 1.2e4, 3000), -0.6531052129357705, 8.960640298151665e-06),
        ],
        ids=["1e-2..1e2", "0.1..1e3", "0.5..1.2e4"],
    )
    def test_passes_whatever_the_identity_deviation(self, spec, eigenvalue, deviation):
        # Resolved grids whose eigenvalue lies above -3/4 pass, although
        # the grid's identity deviation is well above 1e-8: it is reported,
        # not graded.
        g = make_log_grid(*spec)
        rep = check_ims_x2(g, tol=1e-2)
        assert rep.passed
        assert rep.extremal_eigenvalue == pytest.approx(eigenvalue, rel=1e-12)
        box = np.log(g.r[-1] / g.r[0]) + 2.0 * g.log_step
        assert rep.extremal_eigenvalue == pytest.approx(-0.75 + (np.pi / box) ** 2, abs=1e-5)
        assert rep.details == {"identity_rel_deviation": pytest.approx(deviation, rel=1e-10)}
        assert rep.details["identity_rel_deviation"] > 1e-8

    def test_stated_bound_fails_as_measured(self, default_grid):
        rep = check_ims_x2(default_grid, tol=1e-2, bound=-3.0 / 8.0)
        assert rep.bound == -3.0 / 8.0
        assert not rep.passed  # eigenvalue ~ -0.70 < -3/8 - tol

    def test_passes_at_sharp_bound(self, default_grid):
        rep = check_ims_x2(default_grid, tol=1e-2)
        assert IMS_BOUND == rep.bound == -0.75
        assert rep.passed

    def test_zero_operator_case(self, coarse_grid):
        # with A = 0 both sides of the identity vanish
        g = coarse_grid
        zero = Tridiagonal(np.zeros(g.n), np.zeros(g.n - 1))
        prod = symmetrized_product(zero, np.zeros(g.n))
        assert not prod.diag.any() and not prod.off.any()

    def test_coarse_grid_report_recorded(self):
        with pytest.raises(DomainError):
            check_ims_x2(make_log_grid(1e-4, 1e2, 64), tol=1e-2)


class TestDoubleCommutator:
    def test_default_grid_passes(self, default_grid):
        rep = check_double_commutator_cube(default_grid, tol=1e-1)
        assert rep.passed
        assert rep.name == "double_commutator_r3"
        assert rep.extremal_eigenvalue <= 1e-1

    def test_identity_weight_commutes(self, coarse_grid):
        # a constant weight commutes with the Laplacian, so the single
        # commutator, and with it the double, vanishes identically
        a = reduced_laplacian(coarse_grid)
        c = commutator_with_diagonal(a, np.full(coarse_grid.n, 2.5))
        assert c.shape == (coarse_grid.n - 1,)
        assert not c.any()

    def test_commutator_entrywise_formula(self, coarse_grid):
        g = coarse_grid
        a = reduced_laplacian(g)
        a_dense = np.diag(a.diag) + np.diag(a.off, 1) + np.diag(a.off, -1)
        gv = g.r**2
        c = commutator_with_diagonal(a, gv)
        dense = a_dense @ np.diag(gv) - np.diag(gv) @ a_dense
        c_dense = np.diag(c, 1) - np.diag(c, -1)
        assert np.allclose(c_dense, dense, rtol=1e-12, atol=1e-8)

    @pytest.mark.parametrize(
        "spec", [(1e-4, 100, 2000), (1e-4, 100, 8000), (1e-8, 1000, 600), (0.5, 1.2e4, 3000)]
    )
    def test_rows_and_product_equal_sparse_bit_for_bit(self, spec):
        """The rows of M and the Galerkin product M B against the sparse
        products A C - C A and m @ B, formed inline in CSR.  A CSR product
        sums each row in storage order; with sorted columns that is the
        ascending order of the einsum, and of the CSR matrix the check
        built before it held M by rows."""
        import scipy.sparse

        g = make_log_grid(*spec)
        a = reduced_laplacian(g)
        c = commutator_with_diagonal(a, g.r**3.0)
        a_csr = scipy.sparse.diags([a.off, a.diag, a.off], [-1, 0, 1], format="csr")
        c_csr = scipy.sparse.diags([-c, c], [-1, 1], format="csr")
        m_csr = (a_csr @ c_csr - c_csr @ a_csr).tocsr()
        m_csr.sort_indices()
        m = double_commutator_matrix(g)
        assert m.shape == (g.n, 5)
        for s in range(5):
            k = s - 2  # row i of column s holds M_(i, i + k)
            assert np.array_equal(m[max(0, -k):g.n - max(0, k), s], m_csr.diagonal(k))
        assert not m[:2, 0].any() and not m[:1, 1].any()
        assert not m[-1:, 3].any() and not m[-2:, 4].any()
        b = _bump_matrix(g)
        assert np.array_equal(_band_product(m, b), m_csr @ b)

    def test_quadratic_form_matches_continuum(self, default_grid):
        # smooth compactly supported bump: discrete form vs -24 int r phi'^2
        g = default_grid
        m = double_commutator_matrix(g)
        x = np.log(g.r)
        t = (x - np.log(1.0)) / 2.0
        phi = np.where(np.abs(t) < 1, np.exp(1.0 - 1.0 / (1.0 - np.minimum(t * t, 0.999999))), 0.0)
        psi = np.sqrt(4 * np.pi * g.mass) * phi
        quad = float(psi @ _band_product(m, psi[:, None])[:, 0])
        dphi = np.gradient(phi, g.r)
        cont = -24.0 * 4 * np.pi * np.trapezoid(g.r * dphi**2, g.r)
        assert quad == pytest.approx(cont, rel=2e-3)

    def test_default_grid_value_pinned(self, default_grid):
        rep = check_double_commutator_cube(default_grid, tol=1e-1)
        assert rep.extremal_eigenvalue == pytest.approx(-0.49984851757279103, rel=1e-9)

    def test_dictionary_avoids_walls(self, default_grid):
        b = _bump_matrix(default_grid)
        assert not b[:10].any() and not b[-10:].any()

    @pytest.mark.parametrize(
        "n,size",
        # n = 500 and 8000 each prune one column next to the threshold:
        # kept sigma/sigma_max 1.30e-6 and 1.26e-6, pruned 8.07e-7 and 9.76e-7
        [(500, 119), (2000, 120), (8000, 119)],
    )
    def test_dictionary_spans_the_thin_svd(self, n, size):
        g = make_log_grid(1e-4, 100, n)
        b = _bump_matrix(g)
        c = _canonical_coefficients(b.T @ b)
        assert c.shape == (b.shape[1], size)
        # B C is orthonormal only to the Gram's accuracy, so its span is
        # compared through an orthonormal basis of it
        q = b @ c
        assert np.abs(q.T @ q - np.eye(size)).max() < 1e-5
        u, sv, _ = np.linalg.svd(_whole_grid_bumps(g), full_matrices=False)
        u = u[:, sv > 1e-6 * sv[0]]
        cosines = np.linalg.svd(u.T @ np.linalg.qr(q)[0], compute_uv=False)
        assert u.shape[1] == size
        assert cosines.min() >= 1.0 - 1e-10

    @pytest.mark.parametrize(
        "spec, rel",
        [((1e-4, 100, 500), 1e-9), ((1e-4, 100, 2000), 1e-9), ((1e-4, 100, 8000), 1e-9),
         # r_min = 1e-8 resolves the value to a few 1e-6 only (see README)
         ((1e-8, 1000, 600), 1e-5)],
    )
    def test_value_matches_explicit_svd_dictionary(self, spec, rel):
        # the oracle: Ritz values on the thin SVD's orthonormal basis of the
        # raw bumps, pruned by sigma > 1e-6 sigma_max
        g = make_log_grid(*spec)
        u, sv, _ = np.linalg.svd(_whole_grid_bumps(g), full_matrices=False)
        u = u[:, sv > 1e-6 * sv[0]]
        mred = u.T @ _band_product(double_commutator_matrix(g), u)
        oracle = np.linalg.eigvalsh(0.5 * (mred + mred.T))[-1]
        rep = check_double_commutator_cube(g, tol=1e-1)
        assert rep.details == {"dictionary_size": u.shape[1]}
        assert rep.extremal_eigenvalue == pytest.approx(oracle, rel=rel)

    @pytest.mark.parametrize(
        "r_min,r_max,n", [(1e-4, 100, 8000), (1e-8, 1000, 600), (0.5, 1.2e4, 3000)]
    )
    def test_support_evaluation_is_bit_identical(self, r_min, r_max, n):
        g = make_log_grid(r_min, r_max, n)
        assert np.array_equal(_bump_matrix(g), _whole_grid_bumps(g))

    @pytest.mark.parametrize(
        "r_min,r_max,n",
        [
            # 10+ points per unit of log r, but roughness 3.5, 3.27, 2.71
            # and 3.43; unrefused, the first reads +2596 with all 120 columns
            (1e-4, 1e2, 256),
            (1e-4, 1e2, 278),
            (1e-3, 1.0, 209),
            (1e-4, 10.0, 250),
            (0.5, 2.0, 400),  # no bump fits the box
        ],
    )
    def test_unresolved_dictionary_refused(self, r_min, r_max, n):
        with pytest.raises(DomainError):
            check_double_commutator_cube(make_log_grid(r_min, r_max, n), tol=1e-1)


@pytest.mark.parametrize(
    "check",
    [check_hardy, check_lieb_symmetrization, check_ims_x2, check_double_commutator_cube],
)
def test_coarse_grid_refused(check):
    # 64 points over 13.8 units of log r: fewer than 10 per unit
    with pytest.raises(DomainError):
        check(make_log_grid(1e-4, 1e2, 64), tol=1e-2)


@pytest.mark.parametrize("check", [check_hardy, check_lieb_symmetrization])
def test_violation_magnitude_shrinks_with_resolution(check):
    defects = []
    for n in (250, 500, 1000):
        rep = check(make_log_grid(1e-4, 1e2, n), tol=1e-2)
        defects.append(max(0.0, -rep.extremal_eigenvalue))
    assert all(b <= a + 1e-12 for a, b in zip(defects, defects[1:]))


def test_reports_serialize(default_grid):
    rep = check_hardy(default_grid, tol=1e-2)
    d = rep.to_dict()
    assert set(d) >= {"name", "extremal_eigenvalue", "tolerance", "passed", "grid"}
