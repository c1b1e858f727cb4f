"""Command-line front end: curves, chi_max scaling scans, and ED validation.

Emits machine-readable CSV (17 significant digits, LF line endings, empty
fields for absent values) or JSON (a `config` echo plus a `rows` array with
the same field names).  Identical configurations produce byte-identical
output.  Exit codes: 0 success, 1 numerical failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import analysis, bethe, ed, lmg

CURVE_FIELDS = ("model", "N", "j", "h", "fidelity", "delta_h", "chi")
SCALING_FIELDS = ("model", "N", "h_at_max", "chi_max", "exponent", "r_squared")
VALIDATE_FIELDS = ("kind", "N", "sector_or_index", "bethe", "ed", "difference",
                   "passed")


class ConfigError(ValueError):
    """Invalid command-line configuration (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one curve or scaling run."""

    command: str
    model: str
    sizes: tuple
    tol: float = bethe.DEFAULT_TOL
    max_iter: int = bethe.DEFAULT_MAX_ITER
    format: str = "csv"
    output: str = "-"

    def __post_init__(self):
        if self.model not in analysis.MODELS:
            raise ConfigError(f"model must be one of {analysis.MODELS}")
        if not self.sizes:
            raise ConfigError("at least one size required")
        floor = 2 if self.model == "lmg" else 4
        for n in self.sizes:
            if n % 2 != 0:
                raise ConfigError(f"sizes must be even, got {n}")
            if n < floor:
                raise ConfigError(f"sizes for {self.model} must be >= {floor}")
        if self.command == "scaling" and len(set(self.sizes)) < 3:
            raise ConfigError("scaling needs at least 3 distinct sizes")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 0:
            raise ConfigError("max-iter must be nonnegative")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")

    def echo(self):
        return {
            "command": self.command,
            "model": self.model,
            "sizes": list(self.sizes),
            "tol": self.tol,
            "max_iter": self.max_iter,
            "format": self.format,
            "output": self.output,
        }


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(text, output):
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as handle:
            handle.write(text)


def _csv(fields, rows):
    lines = [",".join(fields)]
    lines += [",".join(_format_value(row[f]) for f in fields) for row in rows]
    return "\n".join(lines) + "\n"


def _json(config_echo, rows, fit=None):
    document = {"config": config_echo, "rows": rows}
    if fit is not None:
        document["fit"] = fit
    return json.dumps(document, indent=2) + "\n"


def _parse_sizes(text):
    try:
        sizes = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ConfigError(f"sizes must be a comma list of integers, got {text!r}")
    if not sizes:
        raise ConfigError("at least one size required")
    return sizes


def cmd_curve(config):
    """Emit (model, N, j, h, fidelity, delta_h, chi) rows per crossing per size."""
    rows = []
    for n in config.sizes:
        if config.model == "lmg":
            curve = lmg.lmg_curve(n)
        else:
            curve = bethe.heisenberg_curve(n, tol=config.tol,
                                           max_iter=config.max_iter)
        for point in curve:
            rows.append({
                "model": config.model,
                "N": n,
                "j": point.crossing.index,
                "h": point.crossing.field,
                "fidelity": point.fidelity,
                "delta_h": point.delta_h,
                "chi": point.chi,
            })
    if config.format == "csv":
        _emit(_csv(CURVE_FIELDS, rows), config.output)
    else:
        _emit(_json(config.echo(), rows), config.output)
    return 0


def cmd_scaling(config):
    """Emit per-size (N, h_at_max, chi_max) rows plus a trailing fit record."""
    scan = analysis.chi_max_scan(config.model, config.sizes, tol=config.tol,
                                 max_iter=config.max_iter)
    fit = analysis.fit_power_law([(n, chi) for n, _, chi in scan])
    rows = [{
        "model": config.model,
        "N": n,
        "h_at_max": h_at_max,
        "chi_max": chi_max,
        "exponent": None,
        "r_squared": None,
    } for n, h_at_max, chi_max in scan]
    if config.format == "csv":
        rows.append({
            "model": "fit", "N": None, "h_at_max": None, "chi_max": None,
            "exponent": fit.exponent, "r_squared": fit.r_squared,
        })
        _emit(_csv(SCALING_FIELDS, rows), config.output)
    else:
        for row in rows:
            del row["exponent"], row["r_squared"]
        fit_record = {"exponent": fit.exponent, "r_squared": fit.r_squared,
                      "points_used": fit.points_used}
        _emit(_json(config.echo(), rows, fit=fit_record), config.output)
    return 0


def cmd_validate(max_size, tol, max_iter, output):
    """Run the ED oracle against the Bethe route for every even N up to max_size."""
    if max_size % 2 != 0 or not 4 <= max_size <= 14:
        raise ConfigError("max-size must be even and within [4, 14]")
    rows = []
    all_passed = True
    for n in range(4, max_size + 1, 2):
        report = ed.validate_bethe(n, solver_tol=tol, max_iter=max_iter)
        all_passed = all_passed and report.passed
        for c in report.sectors:
            rows.append({
                "kind": "energy", "N": c.n, "sector_or_index": c.n_down,
                "bethe": c.energy_bethe, "ed": c.energy_ed,
                "difference": c.difference, "passed": c.passed,
            })
        for c in report.crossings:
            rows.append({
                "kind": "crossing", "N": c.n, "sector_or_index": c.index,
                "bethe": c.field_bethe, "ed": c.field_ed,
                "difference": c.difference, "passed": c.passed,
            })
    _emit(_csv(VALIDATE_FIELDS, rows), output)
    if not all_passed:
        for row in rows:
            if not row["passed"]:
                print(f"FAIL {row['kind']} N={row['N']} "
                      f"sector_or_index={row['sector_or_index']} "
                      f"difference={row['difference']:.3e}", file=sys.stderr)
        return 1
    return 0


def _parser():
    parser = argparse.ArgumentParser(
        prog="partialfid",
        description="Single-site fidelity and susceptibility across "
                    "ground-state level crossings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_model=True):
        if with_model:
            p.add_argument("--model", required=True, choices=analysis.MODELS)
            p.add_argument("--sizes", required=True,
                           help="comma list of even system sizes")
        p.add_argument("--tol", type=float, default=bethe.DEFAULT_TOL)
        p.add_argument("--max-iter", type=int, default=bethe.DEFAULT_MAX_ITER)
        p.add_argument("--output", default="-", help="file path or - for stdout")

    curve = sub.add_parser("curve", help="fidelity/susceptibility curve rows")
    add_common(curve)
    curve.add_argument("--format", choices=("csv", "json"), default="csv")

    scaling = sub.add_parser("scaling", help="chi_max per size plus power-law fit")
    add_common(scaling)
    scaling.add_argument("--format", choices=("csv", "json"), default="csv")

    validate = sub.add_parser("validate", help="Bethe vs exact-diagonalization")
    validate.add_argument("--max-size", type=int, required=True)
    add_common(validate, with_model=False)

    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        if args.command == "validate":
            return cmd_validate(args.max_size, args.tol, args.max_iter,
                                args.output)
        config = RunConfig(command=args.command, model=args.model,
                           sizes=_parse_sizes(args.sizes), tol=args.tol,
                           max_iter=args.max_iter, format=args.format,
                           output=args.output)
        if args.command == "curve":
            return cmd_curve(config)
        return cmd_scaling(config)
    except bethe.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
