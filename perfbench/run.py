"""Benchmark for ionlab: end-to-end timings untraced, per-layer spans traced.

    python3 perfbench/run.py --workload density --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; ``ionlab`` is imported from its ``src``
directory, never from an installed copy.  Set-up (a fresh-process
``import ionlab`` plus building the workload's inputs from the seed) is
repeated and its median reported.  Then a fixed number of passes, about
``--seconds`` worth at the seed commit and at least two so that every run
repeats its jobs, run back to back; every job's answer is checked at the
acceptance tolerances.  Human-readable lines go to stdout first; the last
line is one JSON object: ``correct``, ``attempted`` (jobs run), ``failed``
(jobs that raised or missed a tolerance) and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, with ``trace.overhead`` from the pairing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_PASSES = 2
OVERRUN = 1.25
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ionlab; "
    "print(time.perf_counter() - t, ionlab.__file__)"
)


def fresh_import_s(env) -> float:
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                         env=env, check=True, timeout=120, text=True).stdout.split()
    if Path(out[1]).resolve().parent != SRC / "ionlab":
        raise RuntimeError(f"child imported ionlab from {out[1]}, not {SRC}")
    return float(out[0])


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall_s = 0.0
        self.stage_s = defaultdict(float)
        self.job_s = []           # (job name, seconds)
        self.job_counts = {}      # job name -> its calls and reported iterations (traced)
        self.failures = []        # (job name, problem)
        self.results = {}         # job name -> result
        self.layers = None        # tracer snapshot (traced passes)


def run_pass(jobs, tracer) -> Pass:
    p = Pass(tracer is not None)
    if tracer is not None:
        tracer.reset()
    for job in jobs:
        before = tracer.totals() if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception:  # a failing job is counted and the run goes on
            dt = time.perf_counter() - t0
            p.failures.append((job.name, traceback.format_exc(limit=3).strip()))
            out = None
        else:
            dt = time.perf_counter() - t0
            try:
                for problem in job.check(out):
                    p.failures.append((job.name, problem))
            except Exception:
                p.failures.append((job.name, traceback.format_exc(limit=3).strip()))
        p.wall_s += dt
        p.stage_s[job.stage] += dt
        p.job_s.append((job.name, dt))
        p.results[job.name] = out
        if tracer is not None:
            after = tracer.totals()
            p.job_counts[job.name] = {
                k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)
            }
    if tracer is not None:
        p.layers = tracer.snapshot()
    return p


def tail_percentile(samples):
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    import numpy as np

    for pct in range(99, 0, -1):
        value = float(np.percentile(samples, pct))
        if sum(x > value for x in samples) >= TAIL_BEYOND:
            return pct, value
    raise ValueError(f"{len(samples)} samples are too few for a tail percentile")


def layer_metrics(snaps, cli_import_s, cli_samples):
    """Per-layer metrics of the traced passes: counts of one pass, median self times."""
    first = snaps[0]
    calls = defaultdict(int, first["calls"])
    edges = defaultdict(int, first["edges"])
    iters = defaultdict(int, first["iterations"])
    conv = defaultdict(int, first["converged"])

    def self_s(name):
        return statistics.median(s["self_s"].get(name, 0.0) for s in snaps)

    m = {}
    for name in ("radial.newton_potential", "radial.extremal_eigs"):
        m[name + ".calls"] = (calls[name], "count")
        m[name + ".self_s"] = (self_s(name), "s")
    m["tf.solve_tf.calls"] = (calls["tf.solve_tf"], "count")
    m["tf.solve_tf.self_s"] = (self_s("tf.solve_tf"), "s")
    m["tf.solve_tf.iterations"] = (iters["tf.solve_tf"], "count")
    m["tf.solve_tf.coulomb_solves"] = (edges[("tf.solve_tf", "radial.newton_potential")], "count")
    m["tfw.excess_charge_sweep.self_s"] = (self_s("tfw.excess_charge_sweep"), "s")
    m["tfw.flow_steps"] = (
        edges[("tfw.excess_charge_sweep", "scipy.linalg.solve_banded")], "count")
    m["tfw.flow_iterations"] = (iters["tfw.implicit_flow"], "count")
    m["hartree.compute_tc.self_s"] = (self_s("hartree.compute_tc"), "s")
    m["hartree.compute_tc.eigensolves"] = (
        edges[("hartree.compute_tc", "radial.extremal_eigs")], "count")
    m["hartree.minimize_e.calls"] = (calls["hartree.minimize_e"], "count")
    m["hartree.minimize_e.self_s"] = (self_s("hartree.minimize_e"), "s")
    m["hartree.minimize_e.iterations"] = (iters["hartree.minimize_e"], "count")
    m["hartree.minimize_e.eigensolves"] = (
        edges[("hartree.minimize_e", "radial.extremal_eigs")], "count")
    relaxed = "hf.solve_hf_relaxed"
    m[relaxed + ".calls"] = (calls[relaxed], "count")
    m[relaxed + ".self_s"] = (self_s(relaxed), "s")
    m[relaxed + ".iterations"] = (iters[relaxed], "count")
    m[relaxed + ".fock_calls"] = (edges[(relaxed, "hf.fock_matrix")], "count")
    m[relaxed + ".converged_ratio"] = (conv[relaxed] / calls[relaxed] if calls[relaxed] else 0.0,
                                       "ratio")
    m["hf.solve_hf_scf.self_s"] = (self_s("hf.solve_hf_scf"), "s")
    m["hf.solve_hf_scf.iterations"] = (iters["hf.solve_hf_scf"], "count")
    m["hf.solve_hf_scf.fock_calls"] = (edges[("hf.solve_hf_scf", "hf.fock_matrix")], "count")
    m["hf.exact_diagonalization.self_s"] = (self_s("hf.exact_diagonalization"), "s")
    m["hf.fock_matrix.calls"] = (calls["hf.fock_matrix"], "count")
    m["hf.hf_energy.calls"] = (calls["hf.hf_energy"], "count")
    for check in ("hardy", "lieb_symmetrization", "ims_x2", "double_commutator"):
        m[f"opchecks.{check}.self_s"] = (self_s(f"opchecks.{check}"), "s")
    m["classical.beta_optimize.self_s"] = (self_s("classical.beta_optimize"), "s")
    m["cli.import_s"] = (cli_import_s, "s")
    runs = [r.run_s for r in cli_samples if r.run_s is not None]
    m["cli.run_s"] = (statistics.median(runs) if runs else 0.0, "s")
    m["cli.overhead_s"] = (
        statistics.median(r.wall_s - r.run_s for r in cli_samples if r.run_s is not None)
        if runs else 0.0, "s")
    return m


def selftest(workload, snaps, probes):
    """Nonzero counts exactly where the workload table says a layer works."""
    problems = []
    for snap in snaps:
        for probe in probes:
            n = snap["calls"].get(probe.name, 0)
            if probe.name in workload.present and n == 0:
                problems.append(f"{probe.name} counted 0 calls, expected some")
            if probe.name not in workload.present and n != 0:
                problems.append(f"{probe.name} counted {n} calls, expected 0")
    return sorted(set(problems))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ionlab" / "__init__.py").is_file():
        print(f"perfbench: no ionlab sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # One client on one core: e_curve runs on an IONLAB_THREADS pool when it is
    # set, and BLAS thread pools added about 10% run-to-run spread on 2 cores.
    # Set before numpy loads; children inherit it.
    os.environ.pop("IONLAB_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy as np

    from spans import Tracer
    from workloads import PROBES, WORKLOADS, CommandResult, child_env

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args)
    print("env:", json.dumps(env, sort_keys=True))

    # --- set-up: fresh-process import plus input construction, repeated ---
    cenv = child_env(SRC)
    import_s = [fresh_import_s(cenv) for _ in range(SETUP_REPS)]
    import ionlab

    if Path(ionlab.__file__).resolve().parent != SRC / "ionlab":
        print(f"perfbench: imported ionlab from {ionlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    build_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        jobs = workload.build(np.random.default_rng(args.seed), SRC)
        build_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(a + b for a, b in zip(import_s, build_s))
    print(f"setup: import_s {[round(x, 4) for x in import_s]}, "
          f"build_s {[round(x, 5) for x in build_s]}, median sum {setup_s:.4f} s")

    # --- timed passes ---
    # The pass count follows from --seconds and the workload's typical pass,
    # so every run of a workload takes the same number of samples.  On a box
    # much slower than that, the run stops before it overruns --seconds by
    # more than OVERRUN.
    n_passes = max(MIN_PASSES, round(args.seconds / workload.pass_s))
    tracer = Tracer(PROBES) if args.trace else None
    passes = []
    start = time.perf_counter()
    for i in range(n_passes):
        if i >= MIN_PASSES and (time.perf_counter() - start
                                + statistics.median(q.wall_s for q in passes)
                                > OVERRUN * args.seconds):
            print(f"stopping after {i} of {n_passes} passes: "
                  f"another would end past {OVERRUN:g} x --seconds")
            break
        traced = bool(args.trace) and i % 2 == 1
        if traced:
            with tracer.installed():
                p = run_pass(jobs, tracer)
        else:
            p = run_pass(jobs, None)
        passes.append(p)
        print(f"pass {i + 1} ({'traced' if traced else 'untraced'}): {p.wall_s:.4f} s, "
              + ", ".join(f"{k} {v:.4f} s" for k, v in sorted(p.stage_s.items()))
              + (f", {len(p.failures)} failed" if p.failures else ""))

    attempted = sum(len(p.job_s) for p in passes)
    failed_jobs = sum(len({name for name, _ in p.failures}) for p in passes)
    for p in passes:
        for name, problem in p.failures:
            print(f"FAIL {name}: {problem}")
    correct = failed_jobs == 0

    for name, _ in passes[0].job_s:
        times = [dict(p.job_s)[name] for p in passes]
        counts = next((p.job_counts[name] for p in passes if p.traced), None)
        print(f"job {name}: median {statistics.median(times):.4f} s over {len(times)}"
              + (f"; counts {json.dumps(counts, sort_keys=True)}" if counts is not None else ""))
    if workload.notes is not None:
        for line in workload.notes(passes[0].results):
            print(line)

    untraced = [p for p in passes if not p.traced]
    cli_samples = [r for p in passes for r in p.results.values()
                   if isinstance(r, CommandResult)]
    if cli_samples:
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    named = {}  # the figures behind the metrics, under their per-workload names
    wall = statistics.median(p.wall_s for p in untraced)
    named["wall_s"] = (wall, "s")
    named["setup_s"] = (setup_s, "s")
    named["fail_frac"] = (failed_jobs / attempted, f"of {attempted} jobs")
    named["peak_rss_mb"] = (rss_mb, "MB")
    if cli_samples:
        # Tracing wraps functions in this process only, so every pass's
        # children count as untraced samples.
        cmd = [r.wall_s for r in cli_samples]
        pct, tail = tail_percentile(cmd)
        stage1, stage2 = statistics.median(cmd), tail
        named["cmd_s.p50"] = (stage1, f"s (median of {len(cmd)} commands)")
        named["cmd_s.tail"] = (stage2, f"s (p{pct} of {len(cmd)} commands)")
    else:
        s1, s2 = workload.stages
        stage1 = statistics.median(p.stage_s[s1] for p in untraced)
        stage2 = statistics.median(p.stage_s[s2] for p in untraced)
        named[f"{s1}_s"] = (stage1, "s")
        named[f"{s2}_s"] = (stage2, "s")
    for key, (value, unit) in named.items():
        print(f"metric {key} = {value:.6g} {unit}")

    if not args.trace:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "stage1_s": (stage1, "s"),
            "stage2_s": (stage2, "s"),
        }
    else:
        traced = [p for p in passes if p.traced]
        snaps = [p.layers for p in traced]
        for p in traced[1:]:
            for key in ("calls", "edges", "iterations", "converged"):
                if p.layers[key] != snaps[0][key]:
                    print(f"FAIL traced passes disagree on {key}: "
                          f"{snaps[0][key]} vs {p.layers[key]}")
                    correct = False
        metrics = layer_metrics(snaps, statistics.median(import_s), cli_samples)
        metrics["trace.overhead"] = (
            statistics.median(p.wall_s for p in traced) / wall - 1.0, "ratio")
        for key, (value, unit) in metrics.items():
            print(f"layer {key} = {value:.6g} {unit}")
        if tracer.missing:
            print("probes not found, counted as 0: " + ", ".join(tracer.missing))
        problems = selftest(workload, snaps, PROBES)
        print("selftest: " + ("PASS" if not problems else "FAIL: " + "; ".join(problems)))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_jobs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
