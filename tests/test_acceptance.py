"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line before asserting, so the final status
of every criterion is visible in the pytest output (run with -s or look
at captured output for failures).
"""

import time

import numpy as np
import pytest

import ionlab.cli as cli
from ionlab.errors import DomainError
from ionlab.radial import make_log_grid


def _line(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# --- criterion 1: maximum ionization --------------------------------------


@pytest.mark.parametrize("z,n", [(1.0, 2.0), (5.0, 10.0), (20.0, 40.0)])
def test_criterion_1_tf_maximum_ionization(z, n):
    from ionlab.tf import TFParams, solve_tf

    t0 = time.perf_counter()
    sol = solve_tf(TFParams(z=z, n_electrons=n))
    elapsed = time.perf_counter() - t0
    rel = abs(sol.mass - z) / z
    ok = _line(
        "A1",
        rel < 1e-3 and elapsed < 10.0,
        f"Z={z} N={n}: mass={sol.mass:.6f} (rel err {rel:.1e}), {elapsed:.1f}s",
    )
    assert ok


# --- criterion 2: scaling identity and potential tail ----------------------


@pytest.mark.parametrize("z", [10.0, 100.0])
def test_criterion_2_tf_scaling_identity(z):
    from ionlab.tf import TFParams, tf_scaling_check

    mismatch = tf_scaling_check(TFParams(z=z, n_electrons=z))
    ok = _line("A2", mismatch < 1e-3, f"Z={z}: scaling mismatch {mismatch:.2e}")
    assert ok


@pytest.mark.parametrize("z", [1.0, 10.0, 30.0, 100.0])
def test_criterion_2_tf_tail_exponent(z):
    from ionlab.tf import neutral_tail_solution, tf_tail_exponent

    sol = neutral_tail_solution(z)
    fit = tf_tail_exponent(sol)
    ok = _line(
        "A2",
        fit.exponent is not None and abs(fit.exponent + 4.0) < 0.1,
        f"Z={z}: tail exponent {fit.exponent:.3f} on window {fit.window}",
    )
    assert ok


# --- criterion 3: critical bound mass --------------------------------------


def test_criterion_3_hartree_critical_mass(hartree_tc):
    from ionlab.hartree import e_curve

    t0 = time.perf_counter()
    low = e_curve([0.2, 0.6, 1.0])
    high = e_curve([1.6, 1.8, 2.0])
    elapsed = time.perf_counter() - t0

    tc_ok = 1.15 <= hartree_tc <= 1.27 and hartree_tc < 1.5211
    es_low = [r[1] for r in low]
    decreasing = es_low[0] > es_low[1] > es_low[2]
    es_high = [r[1] for r in high]
    flat = max(es_high) - min(es_high) < 1e-4
    ok = _line(
        "A3",
        tc_ok and decreasing and flat and elapsed < 300.0,
        f"tc={hartree_tc:.4f}, e-curve low {np.round(es_low, 6).tolist()}, "
        f"high spread {max(es_high) - min(es_high):.2e}, {elapsed:.0f}s",
    )
    assert ok


# --- criterion 4: excess charge --------------------------------------------


def test_criterion_4_tfw_excess_charge(tfw_sweep_rows):
    from ionlab.tfw import TFWParams, TFWSolution, subharmonic_majorant_check, solve_tfw

    qs = {z: q for z, q, _, _ in tfw_sweep_rows}
    positive = all(q > 0 for q in qs.values())
    bounded = all(q <= 10.0 for q in qs.values())
    contracting = abs(qs[64.0] - qs[16.0]) < abs(qs[4.0] - qs[1.0])

    majorant_ok = True
    for z in (1.0, 4.0, 16.0, 64.0):
        chk = subharmonic_majorant_check(solve_tfw(TFWParams(z=z)))
        majorant_ok = majorant_ok and chk.passed
    ok = _line(
        "A4",
        positive and bounded and contracting and majorant_ok,
        f"q={ {z: round(q, 4) for z, q in qs.items()} }, "
        f"increments contract={contracting}, majorant={majorant_ok}",
    )
    assert ok


# --- criterion 5: relaxed vs projection minima ------------------------------


def test_criterion_5_relaxed_equals_projection():
    from ionlab.hf import (
        exact_diagonalization,
        random_basis,
        solve_hf_relaxed,
        solve_hf_scf,
    )

    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    chain_ok = True
    bases = 0
    while bases < 20:
        d = int(rng.integers(2, 7))
        basis = random_basis(rng, d)
        bases += 1
        for n in range(1, d + 1):
            scf = solve_hf_scf(basis, n, seed=bases)
            rel = solve_hf_relaxed(basis, n, seed=bases)
            gap = abs(scf.energy - rel.energy) / (1.0 + abs(scf.energy))
            worst_gap = max(worst_gap, gap)
            if exact_diagonalization(basis, n) > scf.energy + 1e-10 * (
                1.0 + abs(scf.energy)
            ):
                chain_ok = False
    elapsed = time.perf_counter() - t0
    ok = _line(
        "A5",
        worst_gap <= 1e-6 and chain_ok and elapsed < 120.0,
        f"20 bases: worst gap {worst_gap:.2e}, variational chain {chain_ok}, {elapsed:.0f}s",
    )
    assert ok


# --- criterion 6: operator inequalities ------------------------------------

_OPCHECK_CASES = [
    ("hardy", "check_hardy", 1e-2),
    ("lieb_symmetrization", "check_lieb_symmetrization", 1e-2),
    ("ims_x2", "check_ims_x2", 1e-2),
    ("double_commutator", "check_double_commutator_cube", 1e-1),
]


@pytest.mark.parametrize("name,fn_name,tol", _OPCHECK_CASES)
def test_criterion_6_operator_inequalities(name, fn_name, tol, default_grid):
    import ionlab.opchecks as oc

    fn = getattr(oc, fn_name)
    rep = fn(default_grid, tol)

    defects = []
    for n in (500, 1000, 2000):
        r = fn(make_log_grid(1e-4, 1e2, n), tol)
        if r.side == "lower":
            defects.append(max(0.0, r.bound - r.extremal_eigenvalue))
        else:
            defects.append(max(0.0, r.extremal_eigenvalue - r.bound))
    shrinking = all(b <= a + 1e-12 for a, b in zip(defects, defects[1:]))

    # 64 points over 13.8 units of log r cannot resolve any of the checks
    try:
        fn(make_log_grid(1e-4, 1e2, 64), tol)
        refused = False
    except DomainError:
        refused = True

    ok = _line(
        "A6",
        rep.passed and shrinking and refused,
        f"{name}: extremal {rep.extremal_eigenvalue:.6g} vs bound {rep.bound:g} "
        f"(tol {tol:g}), defect sequence {['%.3g' % d for d in defects]}, "
        f"n=64 {'refused' if refused else 'NOT refused'}",
    )
    assert ok


# --- criterion 7: classical constants ---------------------------------------


def test_criterion_7_classical_constants(rng):
    from ionlab.classical import PointConfig, beta_optimize, pair_infimum_scan, sigal_check

    best, _ = pair_infimum_scan(5000, seed=13)
    pair_ok = 0.5 - 1e-6 <= best <= 0.5 + 1e-3

    beta_best, _ = beta_optimize(50, restarts=10, seed=13)
    floor = 0.82 - 1.55 * 50 ** (-2.0 / 3.0)
    beta_ok = floor <= beta_best <= 1.05

    sigal_ok = all(
        sigal_check(PointConfig(rng.normal(size=(10, 3)))) for _ in range(1000)
    )
    ok = _line(
        "A7",
        pair_ok and beta_ok and sigal_ok,
        f"pair min {best:.8f}, beta(50) {beta_best:.4f} in [{floor:.4f}, 1.05], "
        f"sigal 1000/1000 {sigal_ok}",
    )
    assert ok


# --- criterion 8: liquid drop ------------------------------------------------


def test_criterion_8_liquid_drop():
    from ionlab.drop import (
        ball_energy,
        binding_gap_lower_bound,
        cutting_identities_check,
        mc_ball_coulomb,
        minimize_f,
        mstar,
        mstar_from_splitting,
    )

    c = 2.0 ** (2.0 / 3.0)
    printed = abs(mstar() - 5 * (2 - c) / (c - 1)) < 1e-12
    s_star, f_star = minimize_f()
    three_way = (
        abs(mstar() - mstar_from_splitting()) < 1e-8
        and abs(mstar() - 5 * f_star) < 1e-8
    )

    s_grid = np.linspace(0.01, 0.99, 99)
    below = all(binding_gap_lower_bound(mstar() - 1e-6, s) > 0 for s in s_grid)
    above = any(binding_gap_lower_bound(mstar() + 1e-6, s) <= 0 for s in s_grid)

    rep = cutting_identities_check(np.array([0.2, -1.1, 0.7]))
    cutting = rep.quad_error < 1e-8

    mc = mc_ball_coulomb(1.0, 10**6, seed=17)
    mc_ok = abs(mc - ball_energy(1.0).coulomb) / ball_energy(1.0).coulomb < 5e-3

    ok = _line(
        "A8",
        printed and three_way and below and above and cutting and mc_ok,
        f"mstar={mstar():.10f} (3-way {three_way}), gap sign flip ok={below and above}, "
        f"cutting err {rep.quad_error:.1e}, MC rel err "
        f"{abs(mc - ball_energy(1.0).coulomb) / ball_energy(1.0).coulomb:.2e}",
    )
    assert ok


# --- criterion 9: determinism -------------------------------------------------


@pytest.mark.parametrize(
    "command,params",
    [
        ("drop", {"m": 1.0, "check_identities": True}),
        ("beta", {"n": 8, "restarts": 3}),
        ("pairinf", {"samples": 200}),
        ("opcheck", {"check": "hardy", "grid_n": 300}),
        ("hartree", {"tc": True}),
        ("tfw", {"sweep": [1.0, 4.0]}),
        ("hf", {"z": 8.0, "exponents": [0.25, 0.5, 1.1, 4.3], "scan": True}),
    ],
)
def test_criterion_9_determinism(command, params):
    cfg = cli.RunConfig(command=command, parameters=params, seed=42)
    first = cli.emit(cli.run(cfg))
    second = cli.emit(cli.run(cfg))
    ok = _line("A9", first == second, f"{command}: {len(first)} bytes, identical")
    assert ok
