"""Command-line entry point, run configuration and report emission.

Every run is a RunConfig (command + validated parameters + seed) and
produces a RunReport whose payload serializes deterministically: same
config and seed give byte-identical output.  Floats are printed with 17
significant digits, which round-trips 64-bit values exactly.

Exit codes: 0 success, 2 validation error (an unreadable --config file
or an unwritable --out path included), 3 convergence failure, 4 capacity
overrun.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

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

# Per-command parameter schema: name -> converter.  Each key is also the
# command's flag, "--" plus the key with "_" written "-".
_SCHEMAS = {
    "tf": {"Z": float, "N": float, "ctf": float, "grid_n": int, "rmin": float,
           "rmax": float, "tol": float},
    "hartree": {"t": float, "tc": bool, "tol": float, "grid_n": int,
                "ts": "float_list"},
    "tfw": {"Z": float, "sweep": "float_list", "ctf": float, "cw": float},
    "hf": {"z": float, "exponents": "float_list", "n": int, "scan": bool},
    "beta": {"n": int, "restarts": int},
    "pairinf": {"samples": int},
    "sigal": {"n": int, "eps": float, "trials": int},
    "drop": {"m": float, "split": float, "check_identities": bool,
             "mc_pairs": int},
    "opcheck": {"check": str, "grid_n": int, "tol": float},
}

COMMANDS = tuple(_SCHEMAS)


def _convert(key: str, conv, value):
    """Apply key's schema converter.  Only bool keys take booleans, int
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
        if conv != "float_list":
            value = conv(value)
        elif isinstance(value, str):
            value = [float(x) for x in value.split(",") if x]
        else:
            value = [float(x) for x in value]
    except (TypeError, ValueError):
        raise bad from None
    if conv in (float, "float_list") and not np.isfinite(value).all():
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
        if self.command not in COMMANDS:
            raise ParameterError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise ParameterError(f"unknown format {self.format!r}")
        schema = _SCHEMAS[self.command]
        clean = {}
        for key, value in self.parameters.items():
            if key not in schema:
                raise ParameterError(
                    f"unknown parameter {key!r} for command {self.command!r}"
                )
            clean[key] = _convert(key, schema[key], value)
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


def _run_tf(params: dict, seed: int):
    from .radial import make_log_grid
    from .tf import C_TF_DEFAULT, TFParams, default_tf_grid, solve_tf

    z = params.get("Z", 1.0)
    n = params.get("N", z)
    tfp = TFParams(z=z, n_electrons=n, c_tf=params.get("ctf", C_TF_DEFAULT))
    if {"grid_n", "rmin", "rmax"} & params.keys():
        grid = make_log_grid(
            params.get("rmin", 1e-4), params.get("rmax", 400.0),
            params.get("grid_n", 2200),
        )
    else:
        grid = default_tf_grid()
    sol = solve_tf(tfp, grid, tol=params.get("tol", 1e-8))
    payload = {
        "Z": tfp.z, "N": tfp.n_electrons, "mu": sol.mu, "mass": sol.mass,
        "energy": sol.energy, "residual": sol.residual,
    }
    table = [
        (float(r), float(rho), float(phi))
        for r, rho, phi in zip(grid.r, sol.rho.values, sol.phi.values)
    ]
    diags = {"iterations": sol.iterations}
    return payload, table, ("r", "rho", "phi"), diags


def _run_hartree(params: dict, seed: int):
    from .hartree import compute_tc, default_hartree_grid, e_curve, minimize_e
    from .radial import make_log_grid

    grid = None
    if "grid_n" in params:
        base = default_hartree_grid()
        grid = make_log_grid(base.r_min, base.r_max, params["grid_n"])
    if params.get("tc"):
        tol = params.get("tol", 0.01)
        tc = compute_tc(grid, tol=tol)
        return {"tc": tc, "tol": tol}, None, None, {}
    if "ts" in params:
        rows = e_curve(params["ts"], grid)
        payload = {"points": len(rows)}
        return payload, rows, ("t", "e", "mu", "bound_mass"), {}
    t = params.get("t", 1.0)
    st = minimize_e(t, grid)
    payload = {
        "t": st.t, "e": st.energy, "mu": st.mu, "bound_mass": st.bound_mass,
        "residual": st.residual,
    }
    return payload, None, None, {"iterations": st.iterations}


def _run_tfw(params: dict, seed: int):
    from .tfw import TFWParams, excess_charge_sweep, solve_tfw, subharmonic_majorant_check

    kw = {}
    if "ctf" in params:
        kw["c_tf"] = params["ctf"]
    if "cw" in params:
        kw["c_w"] = params["cw"]
    if "sweep" in params:
        rows = excess_charge_sweep(params["sweep"], **kw)
        return {"points": len(rows)}, rows, ("Z", "q", "u_at_1", "phi_at_1"), {}
    z = params.get("Z", 1.0)
    sol = solve_tfw(TFWParams(z=z, **kw))
    chk = subharmonic_majorant_check(sol)
    payload = {
        "Z": z, "n_c": sol.n_c, "q": sol.q, "energy": sol.energy,
        "residual": sol.residual, "majorant_bound": chk.q_bound,
        "majorant_passed": chk.passed,
    }
    return payload, None, None, {"iterations": sol.iterations}


def _run_hf(params: dict, seed: int):
    from .hf import (
        build_sgauss_basis,
        exact_diagonalization,
        solve_hf_scf,
        spectrum_scan,
    )

    z = params.get("z", 1.0)
    exps = params.get("exponents", [0.25, 1.0, 4.0])
    basis = build_sgauss_basis(z, exps)
    if params.get("scan"):
        sc = spectrum_scan(basis)
        payload = {
            "z": z,
            "energies": list(map(float, sc.energies)),
            "monotonicity_violations": [list(map(float, v)) for v in sc.monotonicity_violations],
            "convexity_violations": [list(map(float, v)) for v in sc.convexity_violations],
        }
        return payload, None, None, {}
    n = params.get("n", 1)
    scf = solve_hf_scf(basis, n)
    rel = scf.relaxed
    exact = exact_diagonalization(basis, n)
    payload = {
        "z": z, "n": n, "E_scf": scf.energy, "E_relaxed": rel.energy,
        "E_exact": exact,
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


def _run_beta(params: dict, seed: int):
    from .classical import beta_optimize

    n = params.get("n", 50)
    restarts = params.get("restarts", 10)
    value, config = beta_optimize(n, restarts=restarts, seed=seed)
    payload = {
        "n": n, "restarts": restarts, "best_value": value,
        "floor": 0.82 - 1.55 * n ** (-2.0 / 3.0),
    }
    return payload, None, None, {}


def _run_pairinf(params: dict, seed: int):
    from .classical import pair_infimum_scan

    samples = params.get("samples", 10_000)
    best, arg = pair_infimum_scan(samples, seed=seed)
    return (
        {"samples": samples, "min_found": best, "argmin": arg.tolist()},
        None,
        None,
        {},
    )


def _run_sigal(params: dict, seed: int):
    from .classical import PointConfig, sigal_check

    n = params.get("n", 10)
    eps = params.get("eps", 0.1)
    trials = params.get("trials", 100)
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    basic_all = True
    improved_failures = 0
    for _ in range(trials):
        pts = rng.normal(size=(n, 3))
        cfg = PointConfig(pts)
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


def _run_drop(params: dict, seed: int):
    from .drop import (
        ball_energy,
        binding_gap_lower_bound,
        cutting_identities_check,
        mc_ball_coulomb,
        mstar,
    )

    m = params.get("m", 1.0)
    be = ball_energy(m)
    payload = {
        "m": m, "perimeter": be.perimeter, "coulomb": be.coulomb,
        "total": be.total, "mstar": mstar(),
    }
    if "split" in params:
        payload["binding_gap_bound"] = binding_gap_lower_bound(m, params["split"])
    if params.get("check_identities"):
        rep = cutting_identities_check(
            np.array([0.0, 0.0, 1.0]), mc_nodes=params.get("mc_pairs", 0), seed=seed
        )
        payload["cutting"] = rep.to_dict()
    if "mc_pairs" in params and not params.get("check_identities"):
        payload["mc_coulomb"] = mc_ball_coulomb(m, params["mc_pairs"], seed=seed)
    return payload, None, None, {}


def _run_opcheck(params: dict, seed: int):
    from .opchecks import (
        check_double_commutator_cube,
        check_hardy,
        check_ims_x2,
        check_lieb_symmetrization,
    )
    from .radial import make_log_grid

    grid = make_log_grid(1e-4, 100.0, params.get("grid_n", 2000))
    tol = params.get("tol", 1e-2)
    which = params.get("check", "all")
    checks = {
        "hardy": lambda: check_hardy(grid, tol),
        "lieb": lambda: check_lieb_symmetrization(grid, tol),
        "ims_x2": lambda: check_ims_x2(grid, tol),
        "double_commutator": lambda: check_double_commutator_cube(grid, tol),
    }
    if which != "all":
        if which not in checks:
            raise ParameterError(f"unknown check {which!r}")
        selected = {which: checks[which]}
    else:
        selected = checks
    payload = {name: fn().to_dict() for name, fn in selected.items()}
    return payload, None, None, {}


_RUNNERS = {
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
    payload, table, columns, diags = _RUNNERS[config.command](
        config.parameters, config.seed
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
    for cmd, schema in _SCHEMAS.items():
        p = sub.add_parser(cmd)
        for key, conv in schema.items():
            flag = "--" + key.replace("_", "-")
            if conv is bool:
                p.add_argument(flag, dest=key, action="store_true")
            else:
                p.add_argument(flag, dest=key, type=str if conv == "float_list" else conv)
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
        parser.print_help()
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
