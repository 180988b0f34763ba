"""Command-line front end: solve, verify, sweep, fit.

Exit codes: 0 success (all applicable checks hold), 1 numerical failure or
bound violation, 2 usage/input error; nothing else.  Potentials and sweep
configs are accepted either inline as JSON or as a path to a JSON file.
CSV output is byte-stable across runs: fixed 17-significant-digit floats,
'.' decimal separator, '\\n' line endings, rows in config order.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .bounds import (
    TolerancePolicy,
    gap_lower_bound,
    kirsch_comparison_bound,
    verify,
)
from .fdsolver import SolverError, default_cell_count, solve_extrapolated
from .oracle import OracleError, decompose, eigenvalues_exact, prufer_count
from .potentials import InverseSquareCapped, from_dict, interval_norms, to_dict

SWEEP_CSV_HEADER = (
    "L,lambda0,lambda1,gap,inf_phi0,sup_phi0,theorem_bound,kirsch_bound,"
    "error_estimate,checks_passed,checks_total,status"
)


class InputError(ValueError):
    """Bad usage or malformed input: exit code 2."""


def _load_json_arg(text: str, what: str) -> dict:
    """Accept inline JSON (leading '{') or a path to a JSON file."""
    raw = text.strip()
    if not raw.startswith("{"):
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {what} file '{text}': {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{what} JSON must be an object, got {type(data).__name__}")
    return data


def _parse_potential(text: str):
    try:
        return from_dict(_load_json_arg(text, "potential"))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _sanitize(x: float) -> Optional[float]:
    return None if isinstance(x, float) and math.isnan(x) else x


def _positive(value: float, flag: str) -> float:
    if not (value > 0.0 and math.isfinite(value)):
        raise InputError(f"{flag} must be finite and > 0, got {value}")
    return value


def cmd_solve(args) -> int:
    p = _parse_potential(args.potential)
    L = _positive(args.length, "--length")
    n0 = args.cells if args.cells is not None else default_cell_count(L)
    result = solve_extrapolated(p, L, n0=n0, levels=args.levels)
    out = {
        "potential": to_dict(p),
        "L": L,
        "n0": n0,
        "levels": args.levels,
        "lambda0": result.lambda0,
        "lambda1": result.lambda1,
        "gap": result.gap,
        "inf_phi0": result.inf_phi0,
        "sup_phi0": result.sup_phi0,
        "error_estimate": list(result.error_estimate),
        "observed_order": [_sanitize(o) for o in result.observed_order],
    }
    print(json.dumps(out, indent=2))
    return 0


def _oracle_section(p, L, result, tol: float) -> dict:
    if isinstance(p, InverseSquareCapped):
        gap = result.gap
        below = prufer_count(p, L, result.lambda0 - 0.5 * gap)
        mid = prufer_count(p, L, 0.5 * (result.lambda0 + result.lambda1))
        above = prufer_count(p, L, result.lambda1 + 0.5 * gap)
        ok = below == 0 and mid == 1 and above >= 2
        return {
            "mode": "count",
            "count_below_lambda0": below,
            "count_between": mid,
            "count_above_lambda1": above,
            "ok": ok,
        }
    ex0, ex1 = eigenvalues_exact(decompose(p, L), 2)
    scale = math.pi ** 2 / (L * L)
    dev = max(
        abs(result.lambda0 - ex0) / max(abs(ex0), scale),
        abs(result.lambda1 - ex1) / max(abs(ex1), scale),
    )
    return {
        "mode": "eigenvalues",
        "lambda0": ex0,
        "lambda1": ex1,
        "rel_dev": dev,
        "tol": tol,
        "ok": dev <= tol,
    }


def cmd_verify(args) -> int:
    p = _parse_potential(args.potential)
    L = _positive(args.length, "--length")
    policy = TolerancePolicy(eps_rel=_positive(args.eps_rel, "--eps-rel"))
    oracle_tol = _positive(args.oracle_tol, "--oracle-tol")
    n0 = args.cells if args.cells is not None else default_cell_count(L)
    result = solve_extrapolated(p, L, n0=n0, levels=args.levels)
    report = verify(p, L, result, policy)
    payload = report.to_dict()
    payload["lambda0"] = result.lambda0
    payload["lambda1"] = result.lambda1
    payload["gap"] = result.gap
    ok = report.all_hold
    if args.oracle:
        section = _oracle_section(p, L, result, oracle_tol)
        payload["oracle"] = section
        ok = ok and section["ok"]
    print(json.dumps(payload, indent=2))
    return 0 if ok else 1


@dataclass(frozen=True)
class SweepConfig:
    potential: object
    l_values: tuple
    cells_per_unit: int = 64
    min_cells: int = 256
    levels: int = 3
    output: Optional[str] = None
    plot_script: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        if "potential" not in d:
            raise InputError("sweep config missing field 'potential'")
        try:
            potential = from_dict(d["potential"])
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if "L_values" in d:
            ls = d["L_values"]
            if not (isinstance(ls, list) and len(ls) >= 1):
                raise InputError("sweep field 'L_values' must be a non-empty list")
            l_values = tuple(float(x) for x in ls)
        elif all(k in d for k in ("L_min", "L_max", "count")):
            lmin, lmax, count = float(d["L_min"]), float(d["L_max"]), int(d["count"])
            if not (0.0 < lmin < lmax):
                raise InputError("sweep fields must satisfy 0 < L_min < L_max")
            if count < 2:
                raise InputError("sweep field 'count' must be >= 2")
            l_values = tuple(float(x) for x in np.geomspace(lmin, lmax, count))
        else:
            raise InputError(
                "sweep config needs either 'L_values' or 'L_min'/'L_max'/'count'"
            )
        if not all(x > 0.0 and math.isfinite(x) for x in l_values):
            raise InputError("sweep L values must be finite and strictly positive")
        if any(b <= a for a, b in zip(l_values, l_values[1:])):
            raise InputError("sweep L values must be strictly increasing")
        cpu = int(d.get("cells_per_unit", 64))
        min_cells = int(d.get("min_cells", 256))
        levels = int(d.get("levels", 3))
        if cpu < 1:
            raise InputError("sweep field 'cells_per_unit' must be >= 1")
        if min_cells < 64:
            raise InputError("sweep field 'min_cells' must be >= 64")
        if levels not in (2, 3, 4):
            raise InputError("sweep field 'levels' must be 2, 3 or 4")
        return cls(
            potential=potential,
            l_values=l_values,
            cells_per_unit=cpu,
            min_cells=min_cells,
            levels=levels,
            output=d.get("output"),
            plot_script=d.get("plot_script"),
        )


def _sweep_row(cfg: SweepConfig, L: float) -> str:
    n0 = default_cell_count(L, cfg.cells_per_unit, cfg.min_cells)
    try:
        result = solve_extrapolated(cfg.potential, L, n0=n0, levels=cfg.levels)
        report = verify(cfg.potential, L, result)
        norms = interval_norms(cfg.potential, L)
        theorem = gap_lower_bound(norms, L).value
        kirsch = kirsch_comparison_bound(result.inf_phi0, result.sup_phi0, L)
        passed, total = report.counts
        status = "ok" if report.all_hold else "violated"
        cells = [
            L, result.lambda0, result.lambda1, result.gap,
            result.inf_phi0, result.sup_phi0, theorem, kirsch,
            max(result.error_estimate), passed, total, status,
        ]
    except (SolverError, OracleError, FloatingPointError) as exc:
        nan = math.nan
        cells = [L, nan, nan, nan, nan, nan, nan, nan, nan, 0, 0, f"error:{type(exc).__name__}"]
    return ",".join(_fmt(c) for c in cells)


_PLOT_TEMPLATE = """# gnuplot script generated by gaplab sweep
set datafile separator ','
set logscale xy
set xlabel 'L'
set ylabel 'energy'
set key left bottom
plot '{csv}' every ::1 using 1:4 with linespoints title 'measured gap', \\
     '{csv}' every ::1 using 1:7 with lines title 'exponential lower bound'
"""


def cmd_sweep(args) -> int:
    cfg = SweepConfig.from_dict(_load_json_arg(args.config, "sweep config"))
    output = args.output or cfg.output
    if not output:
        raise InputError("sweep needs an output CSV path ('output' field or --output)")
    rows = [_sweep_row(cfg, L) for L in cfg.l_values]
    with open(output, "w", encoding="utf-8", newline="") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    plot_path = args.plot or cfg.plot_script
    if plot_path:
        with open(plot_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_PLOT_TEMPLATE.format(csv=output))
    failed = sum(1 for r in rows if not r.endswith(",ok"))
    print(f"wrote {len(rows)} rows to {output}" + (f" ({failed} failed)" if failed else ""))
    return 1 if failed else 0


def cmd_fit(args) -> int:
    try:
        with open(args.csv, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or args.column not in reader.fieldnames:
                raise InputError(
                    f"column '{args.column}' not found in {args.csv} "
                    f"(have: {', '.join(reader.fieldnames or [])})"
                )
            if "L" not in reader.fieldnames:
                raise InputError(f"column 'L' not found in {args.csv}")
            ls, ys = [], []
            for row in reader:
                try:
                    l_val = float(row["L"])
                    y_val = float(row[args.column])
                except ValueError as exc:
                    raise InputError(f"non-numeric entry in {args.csv}: {exc}") from exc
                if args.lmin is not None and l_val < args.lmin:
                    continue
                if args.lmax is not None and l_val > args.lmax:
                    continue
                ls.append(l_val)
                ys.append(y_val)
    except OSError as exc:
        raise InputError(f"cannot read CSV '{args.csv}': {exc}") from exc
    if len(ls) < 3:
        raise InputError(f"need at least 3 rows in range, got {len(ls)}")
    if any(not y > 0.0 for y in ys) or any(math.isnan(y) for y in ys):
        raise InputError(
            f"column '{args.column}' has non-positive entries; log-log fit undefined"
        )
    log_l = np.log(np.asarray(ls))
    log_y = np.log(np.asarray(ys))
    slope, intercept = np.polyfit(log_l, log_y, 1)
    resid = log_y - (slope * log_l + intercept)
    rms = float(np.sqrt(np.mean(resid * resid)))
    out = {
        "column": args.column,
        "points": len(ls),
        "slope": float(slope),
        "intercept": float(intercept),
        "rms_residual": rms,
        "power_law": rms <= 0.05,
    }
    print(json.dumps(out, indent=2))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="Neumann spectral-gap laboratory: solve, verify bounds, sweep, fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(sp):
        sp.add_argument("--potential", required=True,
                        help="potential as inline JSON or a path to a JSON file")
        sp.add_argument("--length", type=float, required=True, help="interval length L")
        sp.add_argument("--cells", type=int, default=None,
                        help="coarsest grid size (default max(256, ceil(64 L)))")
        sp.add_argument("--levels", type=int, default=3, choices=(2, 3, 4),
                        help="extrapolation levels (default 3)")

    sp = sub.add_parser("solve", help="compute the lowest two eigenpairs")
    add_solver_flags(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="check every applicable closed-form bound")
    add_solver_flags(sp)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check eigenvalues against the transfer-matrix oracle")
    sp.add_argument("--oracle-tol", type=float, default=1e-6,
                    help="relative tolerance for the oracle cross-check")
    sp.add_argument("--eps-rel", type=float, default=1e-8,
                    help="relative slack granted to the measured side")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="run an L-sweep and write CSV rows")
    sp.add_argument("--config", required=True,
                    help="sweep config as inline JSON or a path to a JSON file")
    sp.add_argument("--output", default=None, help="CSV output path (overrides config)")
    sp.add_argument("--plot", default=None,
                    help="also write a gnuplot script to this path")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("fit", help="least-squares power-law fit of a CSV column")
    sp.add_argument("csv", help="CSV file produced by sweep")
    sp.add_argument("--column", default="gap", help="column to fit (default: gap)")
    sp.add_argument("--lmin", type=float, default=None, help="lower end of the L range")
    sp.add_argument("--lmax", type=float, default=None, help="upper end of the L range")
    sp.set_defaults(func=cmd_fit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, OracleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - exit-code contract: nothing else escapes
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
