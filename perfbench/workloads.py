"""The four benchmark workloads: their inputs, their jobs and the answer checks.

Every workload is a closed loop with one client: one pass runs its jobs one
after another (``cli-cold`` starts one child process at a time).  ``build``
turns the workload seed into the inputs and is timed as part of set-up; the
jobs pass only those inputs to ``ionlab``.  A check returns the list of ways
an answer misses its acceptance tolerance; an empty list is a pass.

The radial workloads (``density``, ``critical-mass``) solve fixed problems,
because their answers are checked against fixed acceptance numbers
(mass = min(N, Z), the t_c window); there the seed sets the job order.
``certificates`` draws its bases and solver seeds from the seed, one basis
of each dimension 2-6, so that every seed does about the same amount of
work.  ``cli-cold`` passes the seed to every command's ``--seed``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

from spans import Probe


@dataclass
class Job:
    name: str
    stage: str                    # which end-to-end stage the job's time counts in
    run: Callable                 # () -> result
    check: Callable               # result -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple                 # (stage1, stage2): names of the two stage metrics
    pass_s: float                 # typical pass on a 2-core box at the seed commit
    build: Callable               # (numpy Generator, src directory) -> list of Job
    present: frozenset            # probes whose counts are nonzero on this workload
    notes: Callable | None = None  # (results by job name) -> extra report lines


# --- probes ------------------------------------------------------------------

PROBES = (
    Probe("radial.newton_potential", "ionlab.radial", "newton_potential"),
    Probe("radial.extremal_eigs", "ionlab.radial", "extremal_eigs"),
    Probe("tf.solve_tf", "ionlab.tf", "solve_tf", iterations=lambda s: s.iterations),
    Probe("tfw.excess_charge_sweep", "ionlab.tfw", "excess_charge_sweep"),
    Probe("tfw.implicit_flow", "ionlab.tfw", "_TFWModel.implicit_flow", span=False,
          iterations=lambda out: out[2]),
    Probe("scipy.linalg.solve_banded", "scipy.linalg", "solve_banded", span=False),
    Probe("hartree.compute_tc", "ionlab.hartree", "compute_tc"),
    Probe("hartree.minimize_e", "ionlab.hartree", "minimize_e",
          iterations=lambda s: s.iterations),
    Probe("hf.solve_hf_scf", "ionlab.hf", "solve_hf_scf",
          iterations=lambda s: s.iterations),
    Probe("hf.solve_hf_relaxed", "ionlab.hf", "solve_hf_relaxed",
          iterations=lambda s: s.iterations, converged=lambda s: s.converged),
    Probe("hf.exact_diagonalization", "ionlab.hf", "exact_diagonalization"),
    Probe("hf.fock_matrix", "ionlab.hf", "fock_matrix", span=False),
    Probe("hf.hf_energy", "ionlab.hf", "hf_energy", span=False),
    Probe("opchecks.hardy", "ionlab.opchecks", "check_hardy"),
    Probe("opchecks.lieb_symmetrization", "ionlab.opchecks", "check_lieb_symmetrization"),
    Probe("opchecks.ims_x2", "ionlab.opchecks", "check_ims_x2"),
    Probe("opchecks.double_commutator", "ionlab.opchecks", "check_double_commutator_cube"),
    Probe("classical.beta_optimize", "ionlab.classical", "beta_optimize"),
)


# --- density -------------------------------------------------------------------


def _tf_check(z, n):
    target = min(z, n)

    def check(sol):
        bad = []
        # Criterion A1: relative mass error below 1e-3.
        if not abs(sol.mass - target) <= 1e-3 * target:
            bad.append(f"mass {sol.mass:.9g}, want {target:g}")
        if n < z and not sol.mu > 0:
            bad.append(f"mu {sol.mu:.3g} is not positive for N < Z")
        return bad

    return check


def _tail_check(sol):
    from ionlab.tf import tf_tail_exponent

    bad = _tf_check(1.0, 1.0)(sol)
    fit = tf_tail_exponent(sol)
    if fit.exponent is None or not abs(fit.exponent + 4.0) < 0.1:
        bad.append(f"tail exponent {fit.exponent}, want -4 +- 0.1")
    return bad


def _sweep_check(rows):
    qs = {z: q for z, q, _, _ in rows}
    bad = [f"q({z:g}) = {q:.6g} outside (0, 10]" for z, q in qs.items() if not 0 < q <= 10]
    if not abs(qs[64.0] - qs[16.0]) < abs(qs[4.0] - qs[1.0]):
        bad.append(f"increments do not contract: q = {qs}")
    return bad


def _build_density(rng, src):
    from ionlab import tf, tfw

    tf_grid = tf.default_tf_grid()
    tfw_grid = tfw.default_tfw_grid()
    jobs = []
    for z, n in ((1.0, 1.0), (5.0, 10.0), (5.0, 3.0)):
        params = tf.TFParams(z=z, n_electrons=n)
        jobs.append(Job(f"solve_tf Z={z:g} N={n:g}", "tf",
                        lambda p=params: tf.solve_tf(p, tf_grid), _tf_check(z, n)))
    jobs.append(Job("neutral_tail_solution(1)", "tf",
                    lambda: tf.neutral_tail_solution(1.0), _tail_check))
    zs = [1.0, 4.0, 16.0, 64.0]
    jobs.append(Job("excess_charge_sweep(1,4,16,64)", "tfw",
                    lambda: tfw.excess_charge_sweep(zs, grid=tfw_grid), _sweep_check))
    return [jobs[i] for i in rng.permutation(len(jobs))]


# --- critical-mass -----------------------------------------------------------


def _tc_check(tc):
    return [] if 1.15 <= tc <= 1.27 else [f"t_c {tc:.6g} outside [1.15, 1.27]"]


def _ecurve_check(rows):
    e = {t: energy for t, energy, _, _ in rows}
    return [] if e[1.8] < e[0.6] else [f"e(1.8) = {e[1.8]:.9g} not below e(0.6) = {e[0.6]:.9g}"]


def _build_critical_mass(rng, src):
    from ionlab import hartree

    grid = hartree.default_hartree_grid()
    jobs = [
        Job("compute_tc(tol=0.01)", "tc",
            lambda: hartree.compute_tc(grid, tol=0.01), _tc_check),
        Job("e_curve(0.6, 1.8)", "ecurve",
            lambda: hartree.e_curve([0.6, 1.8], grid), _ecurve_check),
    ]
    return [jobs[i] for i in rng.permutation(len(jobs))]


# --- certificates ------------------------------------------------------------

OPCHECK_SIZES = (2000, 4000, 8000)
SHARP_IMS_BOUND = -0.75  # 1/4 - 1: the Hardy constant minus one


def _hf_run(basis, seed):
    from ionlab import hf

    rows = []
    for n in range(1, basis.dim + 1):
        scf = hf.solve_hf_scf(basis, n, seed=seed)
        rel = hf.solve_hf_relaxed(basis, n, seed=seed)
        rows.append((n, scf.energy, rel.energy, hf.exact_diagonalization(basis, n)))
    return rows


def _hf_check(rows):
    # Criterion A5 at its stated tolerances.
    bad = []
    for n, e_scf, e_rel, e_exact in rows:
        scale = 1.0 + abs(e_scf)
        if not abs(e_scf - e_rel) / scale <= 1e-6:
            bad.append(f"n={n}: SCF-relaxed gap {abs(e_scf - e_rel) / scale:.2e} > 1e-6")
        if not e_exact <= e_scf + 1e-10 * scale:
            bad.append(f"n={n}: exact {e_exact:.12g} above SCF {e_scf:.12g}")
    return bad


def _opcheck_check(rep):
    return [] if rep.passed else [
        f"{rep.name}: extremal {rep.extremal_eigenvalue:.6g} vs bound {rep.bound:g}"]


def _beta_check(n):
    floor = 0.82 - 1.55 * n ** (-2.0 / 3.0)

    def check(out):
        value = out[0]
        return [] if floor <= value <= 1.05 else [f"beta {value:.6g} outside [{floor:.4f}, 1.05]"]

    return check


def _build_certificates(rng, src):
    from ionlab import classical, hf, opchecks
    from ionlab.radial import make_log_grid

    jobs = []
    for d in rng.permutation([2, 3, 4, 5, 6]):
        basis = hf.random_basis(rng, int(d))
        seed = int(rng.integers(2**31))
        jobs.append(Job(f"hf d={d}", "hf", lambda b=basis, s=seed: _hf_run(b, s), _hf_check))
    checks = (
        ("hardy", lambda g: opchecks.check_hardy(g, 1e-2)),
        ("lieb_symmetrization", lambda g: opchecks.check_lieb_symmetrization(g, 1e-2)),
        ("ims_x2", lambda g: opchecks.check_ims_x2(g, 1e-2, bound=SHARP_IMS_BOUND)),
        ("double_commutator", lambda g: opchecks.check_double_commutator_cube(g, 1e-1)),
    )
    for size in OPCHECK_SIZES:
        grid = make_log_grid(1e-4, 100.0, size)
        for name, fn in checks:
            jobs.append(Job(f"{name} n={size}", "opcheck",
                            lambda f=fn, g=grid: f(g), _opcheck_check))
    beta_seed = int(rng.integers(2**31))
    jobs.append(Job(f"beta_optimize(50, restarts=10, seed={beta_seed})", "other",
                    lambda: classical.beta_optimize(50, restarts=10, seed=beta_seed),
                    _beta_check(50)))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _certificate_notes(results):
    """The documented known-red: ims_x2 graded at its shipped bound."""
    from ionlab import opchecks

    lines = []
    for name, rep in results.items():
        if rep is None or not name.startswith("ims_x2"):
            continue
        shipped = opchecks.IMS_BOUND
        ok = (rep.details["identity_rel_deviation"] < 1e-8
              and rep.extremal_eigenvalue >= shipped - rep.tolerance)
        lines.append(
            f"known_red: {name} at shipped bound {shipped:g}: extremal "
            f"{rep.extremal_eigenvalue:.6g} -> {'PASS' if ok else 'FAIL'}"
            f" (graded against the sharp bound {SHARP_IMS_BOUND:g})")
    return lines


# --- cli-cold ----------------------------------------------------------------

CLI_COMMANDS = (
    ("drop", "--check-identities"),
    ("opcheck", "--check", "hardy"),
    ("hf", "--n", "2"),
    ("hf", "--scan"),
    ("beta",),
    ("pairinf",),
    ("sigal",),
    ("tf", "--Z", "1", "--N", "2", "--format", "csv"),
)

_FINISHED = re.compile(rb"finished in ([0-9.eE+-]+)s")


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CommandResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    run_s: float | None


def _run_command(argv, src):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ionlab.cli", *argv],
                          capture_output=True, env=child_env(src), timeout=120)
    wall = time.perf_counter() - t0
    m = _FINISHED.search(proc.stderr)
    return CommandResult(proc.returncode, proc.stdout, proc.stderr, wall,
                         float(m.group(1)) if m else None)


def _cli_check(first):
    """A9: exit code 0 and the same stdout bytes as the first repetition."""

    def check(res):
        bad = []
        if res.returncode != 0:
            bad.append(f"exit code {res.returncode}: {res.stderr.decode(errors='replace')[-300:]}")
        if not res.stdout:
            bad.append("empty stdout")
        if first.setdefault("stdout", res.stdout) != res.stdout:
            bad.append("stdout differs from the first repetition")
        return bad

    return check


def _build_cli(rng, src):
    jobs = []
    for cmd in CLI_COMMANDS:
        argv = [*cmd, "--seed", str(int(rng.integers(2**31)))]
        jobs.append(Job("ionlab " + " ".join(argv), "cmd",
                        lambda a=argv: _run_command(a, src), _cli_check({})))
    return [jobs[i] for i in rng.permutation(len(jobs))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "density",
            ("tf", "tfw"),
            6.5,
            _build_density,
            frozenset({"radial.newton_potential", "tf.solve_tf", "tfw.excess_charge_sweep",
                       "tfw.implicit_flow", "scipy.linalg.solve_banded"}),
        ),
        Workload(
            "critical-mass",
            ("tc", "ecurve"),
            8.0,
            _build_critical_mass,
            frozenset({"radial.newton_potential", "radial.extremal_eigs",
                       "hartree.compute_tc", "hartree.minimize_e"}),
        ),
        Workload(
            "certificates",
            ("hf", "opcheck"),
            5.0,
            _build_certificates,
            frozenset({"radial.extremal_eigs", "hf.solve_hf_scf", "hf.solve_hf_relaxed",
                       "hf.exact_diagonalization", "hf.fock_matrix", "hf.hf_energy",
                       "opchecks.hardy", "opchecks.lieb_symmetrization", "opchecks.ims_x2",
                       "opchecks.double_commutator", "classical.beta_optimize"}),
            _certificate_notes,
        ),
        Workload(
            "cli-cold",
            ("cmd", "cmd"),
            6.0,
            _build_cli,
            frozenset(),
        ),
    )
}
