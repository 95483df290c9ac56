from itertools import combinations
from math import erf, pi, sqrt

import numpy as np
import pytest

import ionlab.hf
from ionlab.errors import BasisError, CapacityError, ConvergenceError, ParameterError
from ionlab.hf import (
    OneBodyBasis,
    _project_box_trace,
    build_sgauss_basis,
    exact_diagonalization,
    fock_matrix,
    hf_energy,
    random_basis,
    solve_hf_relaxed,
    solve_hf_scf,
    spectrum_scan,
)
from ionlab.radial import RadialField, integrate_3d, make_log_grid


@pytest.fixture(scope="module")
def helium_like():
    return build_sgauss_basis(2.0, [0.3, 1.2, 4.8])


class TestBasisConstruction:
    def test_single_shell_analytic_value(self):
        b = build_sgauss_basis(1.0, [0.5])
        expected = 3 * 0.5 - 2 * np.sqrt(2 * 0.5 / np.pi)
        assert b.h0[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_single_shell_quadrature_oracle(self):
        a, z = 0.5, 1.0
        g = make_log_grid(1e-5, 60.0, 3000)
        norm = (2 * a / np.pi) ** 0.75
        chi = norm * np.exp(-a * g.r**2)
        kinetic = integrate_3d(RadialField(g, chi * (6 * a - 4 * a * a * g.r**2) * chi))
        attraction = z * integrate_3d(RadialField(g, chi * chi), radial_power=-1)
        b = build_sgauss_basis(z, [a])
        assert b.h0[0, 0] == pytest.approx(kinetic - attraction, abs=1e-8)

    def test_eri_eightfold_symmetry(self, helium_like):
        e = helium_like.eri
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0)]:
            assert np.max(np.abs(e - np.transpose(e, perm))) < 1e-12

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(BasisError):
            build_sgauss_basis(1.0, [0.5, 0.5])

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            build_sgauss_basis(-1.0, [0.5])
        with pytest.raises(ParameterError):
            build_sgauss_basis(1.0, [])

    def test_eri_equal_the_formula_with_its_boys_factor(self, rng):
        """Leaving out the F0(0) = 1 factor changes no bit of the ERIs."""

        def boys_f0(t):
            """F0(t) = (1/2) sqrt(pi/t) erf(sqrt(t)), continuously 1 at t = 0."""
            return 1.0 if t == 0.0 else 0.5 * sqrt(pi / t) * erf(sqrt(t))

        for d in range(1, 7):
            a = np.sort(0.08 * 3.1 ** np.arange(d) * np.exp(rng.uniform(-0.25, 0.25, d)))
            norms = (2.0 * a / np.pi) ** 0.75
            p = a[:, None] + a[None, :]
            pq = p[:, :, None, None] + p[None, None, :, :]
            eri = (
                2.0 * np.pi**2.5
                / (p[:, :, None, None] * p[None, None, :, :] * np.sqrt(pq))
                * np.vectorize(boys_f0)(np.zeros_like(pq))
            )
            eri = (
                eri
                * norms[:, None, None, None]
                * norms[None, :, None, None]
                * norms[None, None, :, None]
                * norms[None, None, None, :]
            )
            s = (np.pi / p) ** 1.5 * norms[:, None] * norms[None, :]
            evals, evecs = np.linalg.eigh(s)
            x = evecs @ np.diag(evals**-0.5) @ evecs.T
            eri = np.einsum("pi,qj,rk,sl,pqrs->ijkl", x, x, x, x, eri, optimize=True)
            assert np.array_equal(build_sgauss_basis(1.0, a).eri, eri)

    def test_interaction_positive_semidefinite(self, helium_like, rng):
        for _ in range(10):
            m = rng.normal(size=(3, 3))
            m = 0.5 * (m + m.T)
            quad = np.einsum("ijkl,ij,kl", helium_like.eri, m, m)
            assert quad >= -1e-12


class TestEnergyAndFock:
    def test_zero_gamma(self, helium_like):
        assert hf_energy(np.zeros((3, 3)), helium_like) == 0.0

    def test_rank_one_selfinteraction_cancels(self, helium_like, rng):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        gamma = np.outer(v, v)
        direct = np.einsum("ijkl,ij,kl", helium_like.eri, gamma, gamma)
        exch = np.einsum("ikjl,ij,kl", helium_like.eri, gamma, gamma)
        assert direct == pytest.approx(exch, rel=1e-12)
        assert hf_energy(gamma, helium_like) == pytest.approx(
            float(v @ helium_like.h0 @ v), rel=1e-12
        )

    def test_matches_bruteforce_contraction(self, rng):
        basis = random_basis(rng, 4)
        m = rng.normal(size=(4, 4))
        gamma = 0.25 * (m + m.T)
        expected = float(np.sum(basis.h0 * gamma))
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    for l in range(4):
                        expected += 0.5 * basis.eri[i, j, k, l] * (
                            gamma[i, j] * gamma[k, l] - gamma[i, k] * gamma[j, l]
                        )
        assert hf_energy(gamma, basis) == pytest.approx(expected, abs=1e-12)

    def test_fock_is_energy_gradient(self, helium_like, rng):
        gamma = np.diag([1.0, 0.5, 0.0])
        f = fock_matrix(gamma, helium_like)
        eps = 1e-6
        for i, j in [(0, 0), (0, 1), (1, 2)]:
            d = np.zeros((3, 3))
            d[i, j] = d[j, i] = eps
            num = (hf_energy(gamma + d, helium_like) - hf_energy(gamma - d, helium_like)) / (
                4 * eps if i != j else 2 * eps
            )
            assert num == pytest.approx(f[i, j], rel=1e-5, abs=1e-7)

    def test_two_body_kernel_matches_einsum(self, rng):
        """Fock matrix and energy from W = basis.two_body against the 4-index
        contractions they replace, on random symmetric gamma."""
        for d in range(2, 9):
            basis = random_basis(rng, d)
            w = basis.two_body
            assert np.array_equal(w, w.T)
            for _ in range(3):
                m = rng.normal(size=(d, d))
                gamma = 0.5 * (m + m.T)
                j = np.einsum("ijkl,kl->ij", basis.eri, gamma)
                k = np.einsum("ikjl,kl->ij", basis.eri, gamma)
                f_ref = basis.h0 + j - k
                f_ref = 0.5 * (f_ref + f_ref.T)
                e_ref = float(np.sum(basis.h0 * gamma)) + 0.5 * (
                    np.einsum("ijkl,ij,kl", basis.eri, gamma, gamma)
                    - np.einsum("ikjl,ij,kl", basis.eri, gamma, gamma)
                )
                f = fock_matrix(gamma, basis)
                e = hf_energy(gamma, basis)
                assert np.max(np.abs(f - f_ref)) <= 1e-13 * np.max(np.abs(f_ref))
                assert e == pytest.approx(e_ref, rel=1e-13)
                assert e == pytest.approx(0.5 * np.sum((basis.h0 + f) * gamma), rel=1e-13)

    def test_exchange_never_exceeds_direct_for_box_states(self, helium_like, rng):
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            occ = rng.uniform(0, 1, size=3)
            gamma = (q * occ) @ q.T
            direct = np.einsum("ijkl,ij,kl", helium_like.eri, gamma, gamma)
            exch = np.einsum("ikjl,ij,kl", helium_like.eri, gamma, gamma)
            assert direct - exch >= -1e-12


class TestSolvers:
    def test_single_orbital_basis(self):
        b = build_sgauss_basis(1.0, [0.8])
        st = solve_hf_scf(b, 1)
        assert st.gamma == pytest.approx(np.ones((1, 1)))
        assert st.energy == pytest.approx(b.h0[0, 0])

    def test_full_shell_is_identity(self, helium_like):
        st = solve_hf_scf(helium_like, 3)
        assert np.allclose(st.gamma, np.eye(3), atol=1e-10)
        assert st.energy == pytest.approx(hf_energy(np.eye(3), helium_like), abs=1e-12)

    def test_projection_property(self, helium_like):
        st = solve_hf_scf(helium_like, 2)
        assert np.linalg.norm(st.gamma @ st.gamma - st.gamma) < 1e-8

    def test_helium_beats_random_determinants(self, helium_like, rng):
        st = solve_hf_scf(helium_like, 2)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            gamma = q[:, :2] @ q[:, :2].T
            assert st.energy <= hf_energy(gamma, helium_like) + 1e-10

    def test_relaxed_n1_is_lowest_eigenvalue(self, rng):
        basis = random_basis(rng, 4)
        st = solve_hf_relaxed(basis, 1)
        assert st.energy == pytest.approx(float(np.linalg.eigvalsh(basis.h0)[0]), abs=1e-7)

    def test_relaxed_n0(self, helium_like):
        st = solve_hf_relaxed(helium_like, 0)
        assert st.energy == 0.0
        assert np.all(st.gamma == 0.0)

    def test_relaxed_feasibility(self, helium_like):
        st = solve_hf_relaxed(helium_like, 2)
        evals = np.linalg.eigvalsh(st.gamma)
        assert np.all(evals > -1e-10)
        assert np.all(evals < 1 + 1e-10)
        assert np.trace(st.gamma) == pytest.approx(2.0, abs=1e-9)
        assert st.relaxed is None

    def test_relaxed_is_one_descent(self, rng, monkeypatch):
        basis = random_basis(rng, 5)
        calls = []
        fock = ionlab.hf.fock_matrix
        monkeypatch.setattr(
            ionlab.hf, "fock_matrix", lambda g, b: calls.append(1) or fock(g, b)
        )
        st = solve_hf_relaxed(basis, 2, seed=0)
        assert st.converged
        assert len(calls) == st.iterations  # one Fock build per step, one start
        assert np.array_equal(st.gamma, solve_hf_relaxed(basis, 2, seed=1).gamma)

    def test_relaxed_projects_once_per_step(self, rng, monkeypatch):
        """Every first trial point reads as a rise, so each line search
        backtracks once: still one projection and one Fock build per step."""
        basis = random_basis(rng, 5)
        calls = {"fock_matrix": [], "_project_box_trace": []}
        for name, log in calls.items():
            fn = getattr(ionlab.hf, name)
            monkeypatch.setattr(ionlab.hf, name, lambda *a, fn=fn, log=log: (
                log.append(1) or fn(*a)))
        energies = []
        energy = ionlab.hf.hf_energy
        monkeypatch.setattr(ionlab.hf, "hf_energy", lambda g, b: (
            energies.append(1) or (energy(g, b) if len(energies) % 2 else np.inf)))
        st = solve_hf_relaxed(basis, 2)
        assert st.converged
        steps = st.iterations - 1  # the last iteration passes the stop test
        assert len(energies) == 1 + 2 * steps  # the start, then two trials a step
        assert len(calls["_project_box_trace"]) == steps
        assert len(calls["fock_matrix"]) == st.iterations

    def test_line_search_failure_reports_iteration_reached(self, helium_like, monkeypatch):
        rising = iter(range(10**6))
        monkeypatch.setattr(ionlab.hf, "hf_energy", lambda g, b: float(next(rising)))
        st = solve_hf_relaxed(helium_like, 2)
        assert st.iterations == 1  # every trial step rises, so the first line search fails
        assert st.converged is False

    def test_scf_failure_names_stage_and_size(self, helium_like, monkeypatch):
        monkeypatch.setattr(ionlab.hf, "_SCF_MAX_ITER", 1)
        monkeypatch.setattr(ionlab.hf, "_SCF_TOL", 1e-30)
        with pytest.raises(ConvergenceError, match=r"scf stage.*n=2, dim=3"):
            solve_hf_scf(helium_like, 2)

    def test_cli_hf_runs_one_relaxed_descent(self, monkeypatch):
        from ionlab import cli

        calls = []
        fock = ionlab.hf.fock_matrix
        monkeypatch.setattr(
            ionlab.hf, "fock_matrix", lambda g, b: calls.append(1) or fock(g, b)
        )
        report = cli.run(cli.RunConfig("hf", {"n": 2}))
        diags = report.diagnostics
        # the relaxed steps, the Fock matrix at the relaxed seed, then the SCF
        assert len(calls) == diags["relaxed_iterations"] + 1 + diags["scf_iterations"]
        assert report.payload["relaxed_converged"]

    def test_invalid_n(self, helium_like):
        with pytest.raises(ParameterError):
            solve_hf_scf(helium_like, 0)
        with pytest.raises(ParameterError):
            solve_hf_relaxed(helium_like, 5)

    @pytest.mark.parametrize("solve", [solve_hf_relaxed, solve_hf_scf, exact_diagonalization])
    @pytest.mark.parametrize("n", [2.0, 2.5, True, np.float64(2.0)], ids=repr)
    def test_non_integer_n_refused(self, helium_like, solve, n):
        with pytest.raises(ParameterError, match="electron count must be an integer"):
            solve(helium_like, n)

    def test_numpy_integer_n_accepted(self, helium_like):
        two = np.int64(2)
        assert solve_hf_relaxed(helium_like, two).energy == solve_hf_relaxed(helium_like, 2).energy
        assert solve_hf_scf(helium_like, two).energy == solve_hf_scf(helium_like, 2).energy
        assert exact_diagonalization(helium_like, two) == exact_diagonalization(helium_like, 2)


def _sgauss_family():
    """s-Gaussian bases of charge Z and d exponents geomspace(a_min, 50 Z^2, d),
    each with the electron counts 1, Z, Z+1 and Z+2 that fit."""
    for z in (1, 2, 3, 4, 6):
        for d, a_min in ((8, 2e-2), (12, 5e-3), (16, 2e-3), (20, 1e-3)):
            basis = build_sgauss_basis(z, np.geomspace(a_min, 50.0 * z * z, d))
            for n in sorted({1, z, z + 1, z + 2}):
                if n <= d:
                    yield basis, n


class TestRelaxedDescent:
    def test_sgauss_family_within_40_steps(self, monkeypatch):
        """Every relaxed solve of the family converges, feasibly, to the SCF
        energy within A5's 1e-6, in at most 40 spectral projected-gradient
        steps (the halve-or-grow step rule took up to 70), projecting once
        per step."""
        calls = []
        project = ionlab.hf._project_box_trace
        monkeypatch.setattr(ionlab.hf, "_project_box_trace",
                            lambda m, n: calls.append(1) or project(m, n))
        solves = 0
        for basis, n in _sgauss_family():
            calls.clear()
            st = solve_hf_relaxed(basis, n)
            assert st.converged and st.iterations <= 40, (basis.z, basis.dim, n)
            assert len(calls) == st.iterations - 1
            solves += 1
            evals = np.linalg.eigvalsh(st.gamma)
            assert evals.min() >= -1e-10 and evals.max() <= 1 + 1e-10
            assert np.trace(st.gamma) == pytest.approx(n, abs=1e-9)
            scf = solve_hf_scf(basis, n)
            assert abs(scf.energy - st.energy) / (1.0 + abs(scf.energy)) <= 1e-6
        assert solves == 76


def _bisection_projection(sym, n):
    """Reference: the water-filling level by 200 bisection steps."""
    evals, evecs = np.linalg.eigh(sym)
    lo, hi = float(np.min(evals)) - 1.5, float(np.max(evals)) + 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(np.clip(evals - mid, 0.0, 1.0)) > n:
            lo = mid
        else:
            hi = mid
    occ = np.clip(evals - 0.5 * (lo + hi), 0.0, 1.0)
    return (evecs * occ) @ evecs.T


class TestBoxTraceProjection:
    def _cases(self, rng):
        for d in range(1, 7):
            for _ in range(12):
                m = rng.normal(size=(d, d)) * rng.choice([0.1, 1.0, 10.0])
                yield 0.5 * (m + m.T)
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            # repeated eigenvalues; gaps above 1 make t(theta) flat at integer n
            yield (q * np.where(np.arange(d) % 2, 0.3, -1.2)) @ q.T
            yield (q * 3.0 * np.arange(d)) @ q.T
            yield np.zeros((d, d))

    def test_feasible_and_matches_bisection(self, rng):
        for sym in self._cases(rng):
            d = sym.shape[0]
            for n in [*range(d + 1), *rng.uniform(0.0, d, size=3)]:
                p = _project_box_trace(sym, n)
                evals = np.linalg.eigvalsh(p)
                assert np.trace(p) == pytest.approx(n, abs=1e-12)
                assert evals.min() >= -1e-12 and evals.max() <= 1 + 1e-12
                assert np.max(np.abs(p - _bisection_projection(sym, n))) <= 1e-12


class TestExactDiagonalization:
    def test_single_particle_is_h0_ground(self, rng):
        basis = random_basis(rng, 5)
        assert exact_diagonalization(basis, 1) == pytest.approx(
            float(np.linalg.eigvalsh(basis.h0)[0]), abs=1e-12
        )

    def test_full_sector_single_determinant(self, helium_like):
        assert exact_diagonalization(helium_like, 3) == pytest.approx(
            hf_energy(np.eye(3), helium_like), abs=1e-12
        )

    def test_below_mean_field(self, helium_like):
        scf = solve_hf_scf(helium_like, 2)
        assert exact_diagonalization(helium_like, 2) <= scf.energy + 1e-12

    def test_capacity_guard(self):
        big = OneBodyBasis(
            dim=40,
            h0=np.eye(40),
            eri=np.zeros((1, 1, 1, 1)),
            z=1.0,
            exponents=np.arange(1.0, 41.0),
        )
        with pytest.raises(CapacityError):
            exact_diagonalization(big, 20)

    def test_capacity_guard_bounds_the_dense_sector(self, monkeypatch):
        # C(20, 10) = 184 756 states: a 273 GB dense Hamiltonian.
        basis = build_sgauss_basis(2.0, 0.05 * 3.0 ** np.arange(20))

        def unreachable(basis, n):
            raise AssertionError("sector Hamiltonian built past the cap")

        monkeypatch.setattr(ionlab.hf, "_sector_hamiltonian", unreachable)
        with pytest.raises(CapacityError):
            exact_diagonalization(basis, 10)

    def test_sector_is_the_fock_space_block(self, rng):
        """Each sector Hamiltonian is the n-particle block of the dense
        Jordan-Wigner Hamiltonian on all 2^d occupations (bit p = orbital p)."""
        for d in range(2, 7):
            basis = random_basis(rng, d)
            states = np.arange(2**d)
            a = np.zeros((d, 2**d, 2**d))  # a[p][b ^ 2^p, b] = (-1)^(bits of b below p)
            for p in range(d):
                occupied = states[(states >> p) & 1 == 1]
                below = [bin(b & ((1 << p) - 1)).count("1") for b in occupied]
                a[p][occupied ^ (1 << p), occupied] = (-1.0) ** np.array(below)
            adag = np.transpose(a, (0, 2, 1))
            hop = np.einsum("pij,qjk->pqik", adag, a)  # a+_p a_q
            pair = np.einsum("pij,qjk->pqik", adag, adag)  # a+_p a+_q
            drop = np.einsum("sij,rjk->srik", a, a)  # a_s a_r
            # <pq|rs> = (pr|qs)
            fock = np.einsum("pq,pqik->ik", basis.h0, hop) + 0.5 * np.einsum(
                "prqs,pqij,srjk->ik", basis.eri, pair, drop
            )
            count = np.array([bin(b).count("1") for b in states])
            for n in range(d + 1):
                # the sector's order: itertools.combinations, lexicographic
                index = [sum(1 << i for i in occ) for occ in combinations(range(d), n)]
                block = fock[np.ix_(index, index)]
                assert sorted(index) == sorted(states[count == n])
                h = ionlab.hf._sector_hamiltonian(basis, n)
                scale = np.max(np.abs(block))
                assert np.max(np.abs(h - block)) <= 1e-12 * scale
                lowest = np.linalg.eigvalsh(block)[0]
                assert np.linalg.eigvalsh(h)[0] == pytest.approx(lowest, rel=1e-12, abs=1e-300)

    def test_excitation_tables_cached_read_only(self, rng):
        """A second call hands back the same read-only tables, and the
        sector Hamiltonian built from them is unchanged."""
        basis = random_basis(rng, 6)
        ionlab.hf._excitations.cache_clear()
        h_fresh = ionlab.hf._sector_hamiltonian(basis, 3)
        first = ionlab.hf._excitations(6, 3)
        second = ionlab.hf._excitations(6, 3)
        assert ionlab.hf._excitations.cache_info().hits == 2
        assert all(a is b for a, b in zip(first, second))
        for table in second:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0
        assert np.array_equal(ionlab.hf._sector_hamiltonian(basis, 3), h_fresh)

    def test_empty_sector(self, helium_like):
        assert exact_diagonalization(helium_like, 0) == 0.0

    def test_matches_subset_eigensolver(self, rng):
        """The full symmetric eigensolve gives the lowest eigenvalue that
        LAPACK's subset solver (evr, index 0 only) gives, in every sector."""
        import scipy.linalg

        for d in range(2, 7):
            for _ in range(3):
                basis = random_basis(rng, d)
                for n in range(1, d + 1):
                    h = ionlab.hf._sector_hamiltonian(basis, n)
                    ref = scipy.linalg.eigh(h, eigvals_only=True, subset_by_index=(0, 0))[0]
                    assert exact_diagonalization(basis, n) == pytest.approx(ref, rel=1e-12)


class TestSpectrumScan:
    def test_strong_nucleus_binds_first_three(self):
        basis = build_sgauss_basis(8.0, [0.25, 0.5, 1.1, 4.3])
        sc = spectrum_scan(basis)
        assert sc.energies[0] == 0.0
        for n in range(3):
            assert sc.energies[n + 1] < sc.energies[n]

    def test_weak_nucleus_flags_recorded(self):
        basis = build_sgauss_basis(0.1, [0.3, 1.0, 3.0, 9.0])
        sc = spectrum_scan(basis)
        print(f"weak-charge monotonicity violations: {sc.monotonicity_violations}")
        assert isinstance(sc.monotonicity_violations, tuple)

    def test_two_level_spectrum_size(self):
        basis = build_sgauss_basis(1.0, [0.4, 1.6])
        sc = spectrum_scan(basis)
        assert sc.energies.shape == (3,)
        assert sc.energies[0] == 0.0


class TestLiebPrinciple:
    def test_relaxed_equals_projection_on_random_bases(self, rng):
        worst = 0.0
        for trial in range(6):
            d = int(rng.integers(2, 7))
            basis = random_basis(rng, d)
            for n in range(1, d + 1):
                scf = solve_hf_scf(basis, n, seed=trial)
                rel = solve_hf_relaxed(basis, n, seed=trial)
                p = scf.gamma
                f = fock_matrix(p, basis)
                scale = 1.0 + abs(float(np.trace(basis.h0)))
                assert np.linalg.norm(f @ p - p @ f) < 1e-11 * scale
                assert np.linalg.norm(p @ p - p) < 1e-12
                gap = abs(scf.energy - rel.energy) / (1.0 + abs(scf.energy))
                worst = max(worst, gap)
                assert gap <= 1e-6
                assert exact_diagonalization(basis, n) <= scf.energy + 1e-10 * (
                    1 + abs(scf.energy)
                )
        print(f"worst relative relaxed/projection gap: {worst:.2e}")
