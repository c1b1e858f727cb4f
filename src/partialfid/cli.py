"""Command-line front end: curves, chi_max scaling scans, and ED validation.

Every subcommand writes one table, given as blocks of rows.  A block is a
key -- the leading cells every row of the block shares, such as
(model, N) -- followed by one value column per remaining field.  A column
shorter than its block is absent in the rows past its end.  The table goes
out as CSV (17 significant digits, LF line endings, an empty field where a
value is absent) or as JSON: a `config` echo plus a `rows` array with the
same field names, `null` where a value is absent, and for a `scaling` run
a `fit` record.  Identical configurations produce byte-identical output.
Every curve, scan or report is computed before the output is opened, so a
run that stops on an error writes nothing; the table then goes out a window
of a fixed number of rows at a time, so the writer's memory is bounded by
one window whatever the table's length.
Exit codes: 0 success, 1 numerical failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from itertools import chain, islice, zip_longest

import numpy as np

from . import analysis, bethe, ed, lmg
from .fidelity import _check_size

CURVE_FIELDS = ("model", "N", "j", "h", "fidelity", "delta_h", "chi")
SCALING_FIELDS = ("model", "N", "h_at_max", "chi_max", "exponent", "r_squared")
VALIDATE_FIELDS = ("kind", "N", "sector_or_index", "bethe", "ed", "difference",
                   "passed")
# Rows of a block converted and formatted at once by the table writer.
_WINDOW_ROWS = 2048


class ConfigError(ValueError):
    """Invalid command-line configuration (exit code 2)."""


def _check_output(output):
    """Reject an `--output` path that cannot be opened for writing.

    Runs before any computation, so a bad path fails at once; `_emit` still
    reports an open that fails later.
    """
    if output == "-":
        return
    parent = os.path.dirname(output) or "."
    if os.path.isdir(output):
        reason = errno.EISDIR
    elif not os.path.isdir(parent):
        reason = errno.ENOENT
    elif not os.access(output if os.path.exists(output) else parent, os.W_OK):
        reason = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write output {output!r}: {os.strerror(reason)}")


def _emit(chunks, output):
    """Write text chunks, in order, to `output` (a path, or "-" for stdout)."""
    if output == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        handle = open(output, "w", newline="")
    except OSError as exc:
        raise ConfigError(
            f"cannot write output {output!r}: {exc.strerror}") from None
    with handle:
        handle.writelines(chunks)


def _values(column):
    """Python values of a column; numpy arrays give Python ints and floats."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _spec(column):
    """Column as printf cells with their conversion: %.17g floats, true/false."""
    column = _values(column)
    if column and isinstance(column[0], float):
        return column, "%.17g"
    if column and isinstance(column[0], bool):
        return ["true" if value else "false" for value in column], "%s"
    return column, "%s"


def _csv_block(key, columns):
    """CSV text of one block, one LF-terminated line per row.

    The block is cut where a column ends, and each stretch of rows is
    printed through one printf format with an empty field for every column
    past its end.
    """
    head = "".join(f"{cell}," for cell in key)
    columns = [_spec(column) for column in columns]
    ends = sorted({0, *(len(column) for column, _ in columns)})
    lines = []
    for start, stop in zip(ends, ends[1:]):
        row = ",".join(spec if len(column) >= stop else ""
                       for column, spec in columns) + "\n"
        lines += [head + row % cells for cells in zip(*(
            islice(column, start, stop)
            for column, _ in columns if len(column) >= stop))]
    return "".join(lines)


def _json_cells(column):
    """Each value of a number or boolean column as `json.dumps` writes it.

    One `json.dumps` of the whole column writes every value as it would
    alone, and no number, boolean or null contains the ", " between them.
    """
    text = json.dumps(_values(column))
    return text[1:-1].split(", ") if len(text) > 2 else []


def _json_rows(fields, blocks):
    """The entries of the JSON `rows` array, one indented object per row."""
    names = [f"      {json.dumps(name)}: " for name in fields]
    for key, columns in blocks:
        head = "".join(f"{name}{json.dumps(cell)},\n"
                       for name, cell in zip(names, key))
        template = "    {\n" + head.replace("%", "%%") + ",\n".join(
            f"{name}%s" for name in names[len(key):]) + "\n    }"
        for cells in zip_longest(*map(_json_cells, columns), fillvalue="null"):
            yield template % cells


def _json_chunks(fields, blocks, document):
    """Text of `json.dumps(document, indent=2)` and a newline, in chunks.

    The rows of `blocks` fill the empty `rows` array of `document`, one
    chunk per row.
    """
    # the top-level key is the only "rows" on a line indented by two spaces
    head, empty, tail = json.dumps(document, indent=2).partition(
        '\n  "rows": []')
    rows = _json_rows(fields, blocks)
    first = next(rows, None)
    if first is None:
        yield head + empty + tail + "\n"
        return
    yield f'{head}\n  "rows": [\n{first}'
    for row in rows:
        yield ",\n" + row
    yield "\n  ]" + tail + "\n"


def _windows(blocks):
    """Each block as blocks of at most `_WINDOW_ROWS` rows, with its key.

    Every column is cut at the same rows, so a column that ends inside a
    window is absent past the same row as before.
    """
    for key, columns in blocks:
        rows = max(map(len, columns))
        for start in range(0, rows, _WINDOW_ROWS):
            yield key, [column[start:start + _WINDOW_ROWS]
                        for column in columns]


def _write(fields, blocks, output, echo=None, **records):
    """Write a table of (key, columns) blocks as CSV, or as JSON given `echo`.

    Key cells are labels (text or integers).  A column is a sequence or a
    numpy array of values of one type.  The JSON document is `echo` as
    `config`, the rows, and `records` as further top-level entries.  Either
    format is converted, formatted and written one window of at most
    `_WINDOW_ROWS` rows at a time, so the writer's memory is bounded by one
    window whatever the table's length.
    """
    blocks = _windows(blocks)
    if echo is not None:
        document = {"config": echo, "rows": [], **records}
        _emit(_json_chunks(fields, blocks, document), output)
        return
    _emit(chain([",".join(fields) + "\n"],
                (_csv_block(key, columns) for key, columns in blocks)), output)


def _parse_sizes(text):
    try:
        sizes = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ConfigError(f"sizes must be a comma list of integers, got {text!r}")
    if not sizes:
        raise ConfigError("at least one size required")
    return sizes


def cmd_curve(model, sizes, output, echo=None):
    """Emit (model, N, j, h, fidelity, delta_h, chi) rows per crossing per size."""
    curves = [lmg.lmg_curve(n) if model == "lmg"
              else bethe.heisenberg_curve(n) for n in sizes]
    _write(CURVE_FIELDS, [((model, c.n), (np.arange(len(c)), c.h, c.fidelity,
                                          c.delta_h, c.chi))
                          for c in curves], output, echo)
    return 0


def cmd_scaling(model, sizes, output, echo=None):
    """Emit per-size (N, h_at_max, chi_max) rows plus the power-law fit.

    In CSV the fit is a trailing row with model `fit`; in JSON the rows stop
    at chi_max and the fit is a separate `fit` record.
    """
    scan = analysis.chi_max_scan(model, sizes)
    fit = analysis.fit_power_law([(n, chi) for n, _, chi in scan])
    columns = tuple(zip(*scan))
    if echo is not None:
        _write(SCALING_FIELDS[:4], [((model,), columns)], output, echo, fit={
            "exponent": fit.exponent, "r_squared": fit.r_squared,
            "points_used": fit.points_used})
        return 0
    _write(SCALING_FIELDS, [
        ((model,), (*columns, (), ())),
        (("fit",), ((), (), (), (fit.exponent,), (fit.r_squared,))),
    ], output)
    return 0


def cmd_validate(max_size, output):
    """Run the ED oracle against the Bethe route for every even N up to max_size."""
    ed._check_ring(max_size)
    tables = []
    for n in range(4, max_size + 1, 2):
        report = ed.validate_bethe(n)
        tables += [(("energy", n), report.sectors),
                   (("crossing", n), report.crossings)]
    _write(VALIDATE_FIELDS, [(key, (np.arange(len(c)), c.bethe, c.ed,
                                    c.difference, c.passed))
                             for key, c in tables], output)
    for (kind, n), c in tables:
        for index in np.flatnonzero(~c.passed).tolist():
            print(f"FAIL {kind} N={n} sector_or_index={index} "
                  f"difference={c.difference[index]:.3e}", file=sys.stderr)
    return 0 if all(c.passed.all() for _, c in tables) else 1


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
        _check_output(args.output)
        if args.command == "validate":
            return cmd_validate(args.max_size, args.output)
        sizes = _parse_sizes(args.sizes)
        for n in sizes:
            _check_size(n, analysis.SIZE_FLOORS[args.model])
            if (args.command, args.model) == ("curve", "heisenberg") \
                    and n > bethe.SIZE_CAP:
                raise ConfigError(f"heisenberg curve sizes are capped at "
                                  f"{bethe.SIZE_CAP} spins, got {n}")
        if args.command == "scaling" and len(set(sizes)) < 3:
            raise ConfigError("scaling needs at least 3 distinct sizes")
        echo = None
        if args.format == "json":
            echo = {"command": args.command, "model": args.model,
                    "sizes": list(sizes), "tol": bethe.TOL,
                    "max_iter": bethe.MAX_ITER, "format": args.format,
                    "output": args.output}
        command = cmd_curve if args.command == "curve" else cmd_scaling
        return command(args.model, sizes, args.output, echo)
    except bethe.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
