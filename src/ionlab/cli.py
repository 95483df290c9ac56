"""Command-line entry point, run configuration and report emission.

Every run is a RunConfig (command + validated parameters + seed) and
produces a RunReport whose payload serializes deterministically: same
config and seed give byte-identical output.  Floats are printed with 17
significant digits, which round-trips 64-bit values exactly.

Exit codes: 0 success, 2 validation error (an unreadable --config file
or an unwritable --out path included), 3 convergence failure, 4 capacity
overrun.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .errors import (
    CapacityError,
    ConvergenceError,
    FormatError,
    IonlabError,
    ParameterError,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_CAPACITY = 4


def _convert(key: str, conv, value):
    """Apply key's converter.  Only bool keys take booleans, int
    keys take only integral values, and float keys and float lists only
    finite ones; anything the converter cannot take exactly raises
    ParameterError naming the key."""
    bad = ParameterError(f"invalid value {value!r} for parameter {key!r}")
    if isinstance(value, bool) != (conv is bool):
        raise bad
    if conv is bool:
        return value
    if conv is int and isinstance(value, float) and not value.is_integer():
        raise bad
    try:
        if conv != list[float]:
            value = conv(value)
        elif isinstance(value, str):
            value = [float(x) for x in value.split(",") if x]
        else:
            value = [float(x) for x in value]
    except (TypeError, ValueError):
        raise bad from None
    if conv in (float, list[float]) and not np.isfinite(value).all():
        raise bad
    return value


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0
    output_path: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ParameterError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise ParameterError(f"unknown format {self.format!r}")
        flags = _COMMANDS[self.command].__annotations__
        clean = {}
        for key, value in self.parameters.items():
            if key not in flags:
                raise ParameterError(
                    f"unknown parameter {key!r} for command {self.command!r}"
                )
            clean[key] = _convert(key, flags[key], value)
        object.__setattr__(self, "parameters", clean)


@dataclass(frozen=True)
class RunReport:
    config: RunConfig
    payload: dict
    table: list | None
    columns: tuple | None
    timings: dict
    diagnostics: dict

    def to_jsonable(self) -> dict:
        # Wall time stays off the document: emitted bytes must be a pure
        # function of (config, seed).  Timings go to the stderr log.
        return {
            "config": {
                "command": self.config.command,
                "parameters": self.config.parameters,
                "seed": self.config.seed,
                "format": self.config.format,
            },
            "payload": self.payload,
            "table_columns": list(self.columns) if self.columns else None,
            "table": self.table,
            "diagnostics": self.diagnostics,
            "version": __version__,
        }


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise FormatError(f"cannot write {v!r} as a JSON number")
        return _fmt(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    if isinstance(v, np.ndarray):
        return _json_value(v.tolist())
    if isinstance(v, dict):
        items = sorted(v.items())
        return "{" + ",".join(json.dumps(str(k)) + ":" + _json_value(x) for k, x in items) + "}"
    raise FormatError(f"cannot serialize {type(v).__name__}")


def emit(report: RunReport) -> bytes:
    """Serialize a report in its config's format: stable-key JSON, or CSV
    for tabular payloads."""
    if report.config.format == "json":
        return (_json_value(report.to_jsonable()) + "\n").encode()
    if report.table is None or report.columns is None:
        raise FormatError("payload has no table; use json format")
    lines = [",".join(report.columns)]
    for row in report.table:
        cells = []
        for x in row:
            if isinstance(x, (float, np.floating)):
                cells.append(_fmt(x))
            else:
                cells.append(str(x))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _run_tf(
    seed, *, Z: float = 1.0, N: float = None, ctf: float = None,
    grid_n: int = None, rmin: float = None, rmax: float = None, tol: float = 1e-8,
):
    from .tf import C_TF_DEFAULT, TFParams, default_tf_grid, solve_tf

    tfp = TFParams(
        z=Z, n_electrons=Z if N is None else N,
        c_tf=C_TF_DEFAULT if ctf is None else ctf,
    )
    given = (("r_min", rmin), ("r_max", rmax), ("n", grid_n))
    grid = replace(default_tf_grid(), **{k: v for k, v in given if v is not None})
    sol = solve_tf(tfp, grid, tol=tol)
    payload = {
        "Z": tfp.z, "N": tfp.n_electrons, "mu": sol.mu, "mass": sol.mass,
        "energy": sol.terms.total, "residual": sol.residual,
    }
    table = [
        (float(r), float(rho), float(phi))
        for r, rho, phi in zip(grid.r, sol.rho.values, sol.phi.values)
    ]
    return payload, table, ("r", "rho", "phi"), {"iterations": sol.iterations}


def _run_hartree(
    seed, *, t: float = 1.0, tc: bool = False, tol: float = 0.01,
    grid_n: int = None, ts: list[float] = None,
):
    from .hartree import compute_tc, default_hartree_grid, e_curve, minimize_e

    grid = None if grid_n is None else replace(default_hartree_grid(), n=grid_n)
    if tc:
        return {"tc": compute_tc(grid, tol=tol), "tol": tol}, None, None, {}
    if ts is not None:
        rows = e_curve(ts, grid)
        return {"points": len(rows)}, rows, ("t", "e", "mu", "bound_mass"), {}
    st = minimize_e(t, grid)
    payload = {
        "t": st.t, "e": st.terms.total, "mu": st.mu, "bound_mass": st.bound_mass,
        "residual": st.residual,
    }
    return payload, None, None, {"iterations": st.iterations}


def _run_tfw(
    seed, *, Z: float = 1.0, sweep: list[float] = None, ctf: float = None,
    cw: float = None,
):
    from .tfw import TFWParams, excess_charge_sweep, solve_tfw, subharmonic_majorant_check

    kw = {k: v for k, v in (("c_tf", ctf), ("c_w", cw)) if v is not None}
    if sweep is not None:
        rows = excess_charge_sweep(sweep, **kw)
        return {"points": len(rows)}, rows, ("Z", "q", "u_at_1", "phi_at_1"), {}
    sol = solve_tfw(TFWParams(z=Z, **kw))
    chk = subharmonic_majorant_check(sol)
    payload = {
        "Z": Z, "n_c": sol.n_c, "q": sol.q, "energy": sol.terms.total,
        "residual": sol.residual, "majorant_bound": chk.q_bound,
        "majorant_passed": chk.passed,
    }
    return payload, None, None, {"iterations": sol.iterations}


def _run_hf(
    seed, *, z: float = 1.0, exponents: list[float] = (0.25, 1.0, 4.0),
    n: int = 1, scan: bool = False,
):
    from .hf import build_sgauss_basis, exact_diagonalization, solve_hf_scf, spectrum_scan

    basis = build_sgauss_basis(z, exponents)
    if scan:
        sc = spectrum_scan(basis)
        payload = {
            "z": z,
            "energies": list(map(float, sc.energies)),
            "monotonicity_violations": [list(map(float, v)) for v in sc.monotonicity_violations],
            "convexity_violations": [list(map(float, v)) for v in sc.convexity_violations],
        }
        return payload, None, None, {}
    scf = solve_hf_scf(basis, n)
    rel = scf.relaxed
    payload = {
        "z": z, "n": n, "E_scf": scf.energy, "E_relaxed": rel.energy,
        "E_exact": exact_diagonalization(basis, n),
        "relaxed_gap": abs(scf.energy - rel.energy),
        "relaxed_converged": rel.converged,
        "fermi_degenerate": scf.fermi_degenerate,
    }
    diags = {
        "scf_iterations": scf.iterations,
        "relaxed_iterations": rel.iterations,
        "relaxed_stationarity_gap": rel.stationarity_gap,
    }
    return payload, None, None, diags


def _run_beta(seed, *, n: int = 50, restarts: int = 10):
    from .classical import beta_optimize

    value, config = beta_optimize(n, restarts=restarts, seed=seed)
    payload = {
        "n": n, "restarts": restarts, "best_value": value,
        "floor": 0.82 - 1.55 * n ** (-2.0 / 3.0),
    }
    return payload, None, None, {}


def _run_pairinf(seed, *, samples: int = 10_000):
    from .classical import pair_infimum_scan

    best, arg = pair_infimum_scan(samples, seed=seed)
    return {"samples": samples, "min_found": best, "argmin": arg.tolist()}, None, None, {}


def _run_sigal(seed, *, n: int = 10, eps: float = 0.1, trials: int = 100):
    from .classical import PointConfig, sigal_check

    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    basic_all = True
    improved_failures = 0
    for _ in range(trials):
        cfg = PointConfig(rng.normal(size=(n, 3)))
        if not sigal_check(cfg):
            basic_all = False
        if not sigal_check(cfg, epsilon=eps, improved=True):
            improved_failures += 1
    payload = {
        "n": n, "trials": trials, "epsilon": eps,
        "basic_all_hold": basic_all,
        "improved_failures": improved_failures,
    }
    return payload, None, None, {}


def _run_drop(
    seed, *, m: float = 1.0, split: float = None, check_identities: bool = False,
    mc_pairs: int = None,
):
    from .drop import (
        ball_energy,
        binding_gap_lower_bound,
        cutting_identities_check,
        mc_ball_coulomb,
        mstar,
    )

    be = ball_energy(m)
    payload = {
        "m": m, "perimeter": be.perimeter, "coulomb": be.coulomb,
        "total": be.total, "mstar": mstar(),
    }
    if split is not None:
        payload["binding_gap_bound"] = binding_gap_lower_bound(m, split)
    if check_identities:
        rep = cutting_identities_check(
            np.array([0.0, 0.0, 1.0]), mc_nodes=mc_pairs or 0, seed=seed
        )
        payload["cutting"] = rep.to_dict()
    elif mc_pairs is not None:
        payload["mc_coulomb"] = mc_ball_coulomb(m, mc_pairs, seed=seed)
    return payload, None, None, {}


def _run_opcheck(seed, *, check: str = "all", grid_n: int = 2000, tol: float = 1e-2):
    from .opchecks import (
        check_double_commutator_cube,
        check_hardy,
        check_ims_x2,
        check_lieb_symmetrization,
    )
    from .radial import make_log_grid

    grid = make_log_grid(1e-4, 100.0, grid_n)
    checks = {
        "hardy": check_hardy,
        "lieb": check_lieb_symmetrization,
        "ims_x2": check_ims_x2,
        "double_commutator": check_double_commutator_cube,
    }
    if check != "all":
        if check not in checks:
            raise ParameterError(f"unknown check {check!r}")
        checks = {check: checks[check]}
    payload = {name: fn(grid, tol).to_dict() for name, fn in checks.items()}
    return payload, None, None, {}


# Each command is its runner, called as runner(seed, **parameters).  The
# runner's keyword-only parameters are the command's parameters: each is
# also a flag, "--" plus the name with "_" written "-"; its default is the
# value when the flag is absent (None where the flag selects a branch or
# the library owns the default), and its annotation is not a type hint but
# the converter _convert applies: bool, int, float, str or list[float].
_COMMANDS = {
    "tf": _run_tf,
    "hartree": _run_hartree,
    "tfw": _run_tfw,
    "hf": _run_hf,
    "beta": _run_beta,
    "pairinf": _run_pairinf,
    "sigal": _run_sigal,
    "drop": _run_drop,
    "opcheck": _run_opcheck,
}


def run(config: RunConfig) -> RunReport:
    """Dispatch a validated config; deterministic given (config, seed)."""
    t0 = time.perf_counter()
    payload, table, columns, diags = _COMMANDS[config.command](
        config.seed, **config.parameters
    )
    elapsed = time.perf_counter() - t0
    return RunReport(
        config=config,
        payload=payload,
        table=table,
        columns=columns,
        # Wall time is not part of the determinism contract; keep it out
        # of the payload and round it coarsely for the log.
        timings={"elapsed_s": round(elapsed, 3)},
        diagnostics=diags,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionlab",
        description="Mean-field atomic models and classical Coulomb checks",
    )
    parser.add_argument("--version", action="version", version=f"ionlab {__version__}")
    sub = parser.add_subparsers(dest="command")
    for cmd, runner in _COMMANDS.items():
        p = sub.add_parser(cmd)
        for key, conv in runner.__annotations__.items():
            flag = "--" + key.replace("_", "-")
            if conv is bool:
                p.add_argument(flag, dest=key, action="store_true")
            else:
                p.add_argument(flag, dest=key)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--config", default=None, help="JSON file merged under flags")
    return parser


def _config_from_args(args) -> RunConfig:
    reserved = {"command", "seed", "out", "format", "config"}
    params = {}
    if args.config:
        try:
            with open(args.config) as fh:
                params.update(json.load(fh))
        except OSError as exc:
            raise ParameterError(f"cannot read config {args.config}: {exc.strerror}") from None
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"config {args.config} is not a JSON object: {exc}") from None
    for key, value in vars(args).items():
        if key in reserved or value is None or value is False:
            continue
        params[key] = value
    return RunConfig(
        command=args.command,
        parameters=params,
        seed=args.seed,
        output_path=args.out,
        format=args.format,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return EXIT_VALIDATION
    try:
        config = _config_from_args(args)
        report = run(config)
        data = emit(report)
    except (ParameterError, FormatError, IonlabError) as exc:
        if isinstance(exc, ConvergenceError):
            print(f"ionlab: convergence error: {exc}", file=sys.stderr)
            return EXIT_CONVERGENCE
        if isinstance(exc, CapacityError):
            print(f"ionlab: capacity error: {exc}", file=sys.stderr)
            return EXIT_CAPACITY
        print(f"ionlab: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if config.output_path:
        try:
            with open(config.output_path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"ionlab: cannot write {config.output_path}: {exc.strerror}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.buffer.write(data)
    print(
        f"ionlab: {config.command} finished in {report.timings['elapsed_s']}s",
        file=sys.stderr,
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
