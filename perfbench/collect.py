"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out results.json
    python3 perfbench/collect.py --workloads density --seeds 1-5

Reads the workloads and ``run_seconds`` from BENCHMARK.json, runs
``perfbench/run.py`` once per (workload, seed), one run at a time, and
prints for each metric the median, the quartiles and the spread
(quartile distance over median, from ``statistics.quantiles(n=4)``).
``--out`` also writes every run's result and report lines as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_PREFIXES = ("env:", "setup:", "pass ", "job ", "metric ", "layer ", "known_red",
                   "selftest", "probes not found", "FAIL")


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    doc = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            run_s = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "run_s": run_s, "result": result,
                         "report": [ln for ln in lines[:-1] if ln.startswith(REPORT_PREFIXES)]})
            print(f"{name} seed {seed} ({run_s:.1f} s): correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        keys = runs[0]["result"]["metrics"]
        summary = {k: summarise([r["result"]["metrics"][k]["value"] for r in runs]) for k in keys}
        for k, s in summary.items():
            print(f"  {name} {k}: median {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
                  f" spread {s['spread']:.3f}")
        doc["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
