"""Output checks that compare values, not bytes, against independent routes.

Every check parses the CSV a workload wrote and compares each number with a
route that does not go through the code that produced it:

- crossing fidelities of both models: the closed form
  (sqrt((N-j)(N-j-1)) + sqrt(j(j+1)))/N, computed here;
- LMG fields and spacings: h_j = 1 - (2j+1)/N and delta_h = 2/N;
- Heisenberg fields: h_0 = 1 and h_1 = cos(pi/(N-1)) exactly, interior fields
  against the stored reference in `reference_fields.json`;
- susceptibilities: -2 ln(F)/delta_h^2 from the checked F and delta_h;
- the scaling fit: a least-squares fit of the checked rows, redone here,
  whose exponent must lie near the N^3 law;
- ED validation: exit code 0, every row passed, and the sectors whose energy
  is known in closed form.

Tolerances are absolute on values of order one and are reachable in float64
at every size the workloads use.  A check returns a `Result`; it never
raises on bad output.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_fields.json"

# Fidelities come from a closed form in every route: a few ulps of 1.
FIDELITY_TOL = 1e-14
# Fields and spacings given by exact formulas (LMG, Heisenberg h_0 and h_1),
# and spacings recomputed from two printed fields.
EXACT_FIELD_TOL = 1e-12
# Interior Heisenberg fields against the stored reference.  The reference
# solves the rapidity equations to a residual of 1e-12; a solver that stops
# elsewhere inside that tolerance moves a field by far less than this, while
# float64 resolves fields near 1 to 2.2e-16.
REFERENCE_FIELD_TOL = 1e-10
# Susceptibility recomputed from the printed F and delta_h with the same
# formula: only rounding differs.
CHI_REL_TOL = 1e-12
# ED ground energies from dense eigvalsh carry errors of ~1e-13 at N = 14;
# this is the oracle's own pass threshold.
ED_TOL = 1e-8
# chi_max ~ N^3 for the ring; finite-size corrections over N = 60..8192
# leave the fitted exponent at 3.004.
EXPONENT_RANGE = (2.99, 3.02)


@dataclass
class Result:
    """Outcome of one output check."""

    passed: bool
    max_abs_err: float
    message: str = ""


class CheckFailure(Exception):
    """A value disagreed with its independent route."""


class _Errors:
    def __init__(self):
        self.max_abs = 0.0

    def close(self, what, value, expected, tol):
        err = abs(value - expected)
        if not err <= tol:  # also catches NaN
            raise CheckFailure(f"{what}: got {value!r}, expected {expected!r} "
                               f"within {tol:g}")
        self.max_abs = max(self.max_abs, err)

    def rel(self, what, value, expected, rel_tol):
        scale = max(abs(expected), 1e-300)
        if not abs(value - expected) <= rel_tol * scale:
            raise CheckFailure(f"{what}: got {value!r}, expected {expected!r} "
                               f"within relative {rel_tol:g}")


def closed_form_fidelity(n, j):
    return (math.sqrt((n - j) * (n - j - 1.0)) + math.sqrt(j * (j + 1.0))) / n


def closed_form_h1(n):
    return math.cos(math.pi / (n - 1))


def susceptibility(fidelity, delta_h):
    return -2.0 * math.log(fidelity) / (delta_h * delta_h)


@functools.cache
def reference_fields():
    """Stored interior Heisenberg fields, keyed by N: h_2 ... h_{N/2-1}."""
    document = json.loads(REFERENCE_PATH.read_text())
    return {int(n): fields for n, fields in document["fields"].items()}


def _rows(text, fields):
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if tuple(reader.fieldnames or ()) != fields:
        raise CheckFailure(f"header {reader.fieldnames} is not {fields}")
    return list(reader)


def _curve(model, sizes, text, errors):
    rows = _rows(text, ("model", "N", "j", "h", "fidelity", "delta_h", "chi"))
    expected_count = sum(n // 2 for n in sizes)
    if len(rows) != expected_count:
        raise CheckFailure(f"{len(rows)} rows, expected {expected_count}")
    reference = reference_fields() if model == "heisenberg" else None
    position = 0
    for n in sizes:
        block = rows[position:position + n // 2]
        position += n // 2
        fields = [float(row["h"]) for row in block]
        for j, row in enumerate(block):
            where = f"N={n} j={j}"
            if row["model"] != model or int(row["N"]) != n or int(row["j"]) != j:
                raise CheckFailure(f"{where}: row labels {row}")
            f = float(row["fidelity"])
            errors.close(f"{where} fidelity", f, closed_form_fidelity(n, j),
                         FIDELITY_TOL)
            h = fields[j]
            if model == "lmg":
                errors.close(f"{where} h", h, 1.0 - (2 * j + 1) / n,
                             EXACT_FIELD_TOL)
            elif j == 0:
                errors.close(f"{where} h", h, 1.0, EXACT_FIELD_TOL)
            elif j == 1:
                errors.close(f"{where} h", h, closed_form_h1(n), EXACT_FIELD_TOL)
            else:
                errors.close(f"{where} h", h, reference[n][j - 2],
                             REFERENCE_FIELD_TOL)
            last = model == "heisenberg" and j == n // 2 - 1
            if last:
                if row["delta_h"] != "" or row["chi"] != "":
                    raise CheckFailure(f"{where}: last crossing has a spacing")
                continue
            delta_h = float(row["delta_h"])
            expected_dh = 2.0 / n if model == "lmg" else fields[j] - fields[j + 1]
            errors.close(f"{where} delta_h", delta_h, expected_dh,
                         EXACT_FIELD_TOL)
            errors.rel(f"{where} chi", float(row["chi"]),
                       susceptibility(f, delta_h), CHI_REL_TOL)


def _fit(points):
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(v) for _, v in points]
    mean_x = math.fsum(xs) / len(xs)
    mean_y = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def _scaling(sizes, text, errors):
    rows = _rows(text, ("model", "N", "h_at_max", "chi_max", "exponent",
                        "r_squared"))
    unique = sorted(set(sizes))
    if len(rows) != len(unique) + 1:
        raise CheckFailure(f"{len(rows)} rows, expected {len(unique) + 1}")
    points = []
    for n, row in zip(unique, rows):
        where = f"N={n}"
        if row["model"] != "heisenberg" or int(row["N"]) != n:
            raise CheckFailure(f"{where}: row labels {row}")
        errors.close(f"{where} h_at_max", float(row["h_at_max"]), 1.0,
                     EXACT_FIELD_TOL)
        # chi ~ delta_h^-2, so a field error e moves chi by 2e/delta_h
        delta_h = 1.0 - closed_form_h1(n)
        chi = float(row["chi_max"])
        errors.rel(f"{where} chi_max", chi,
                   susceptibility(closed_form_fidelity(n, 0), delta_h),
                   2.0 * EXACT_FIELD_TOL / delta_h + CHI_REL_TOL)
        points.append((n, chi))
    fit = rows[-1]
    if fit["model"] != "fit":
        raise CheckFailure(f"last row is not the fit: {fit}")
    exponent = float(fit["exponent"])
    errors.rel("fit exponent", exponent, _fit(points), 1e-9)
    if not EXPONENT_RANGE[0] <= exponent <= EXPONENT_RANGE[1]:
        raise CheckFailure(f"fit exponent {exponent} outside {EXPONENT_RANGE}")
    if not 0.9999 <= float(fit["r_squared"]) <= 1.0:
        raise CheckFailure(f"fit r_squared {fit['r_squared']} below 0.9999")


def _validate(max_size, text, errors):
    rows = _rows(text, ("kind", "N", "sector_or_index", "bethe", "ed",
                        "difference", "passed"))
    expected = [(kind, n, k) for n in range(4, max_size + 1, 2)
                for kind, count in (("energy", n // 2 + 1), ("crossing", n // 2))
                for k in range(count)]
    if len(rows) != len(expected):
        raise CheckFailure(f"{len(rows)} rows, expected {len(expected)}")
    for (kind, n, k), row in zip(expected, rows):
        where = f"{kind} N={n} {k}"
        if (row["kind"], int(row["N"]), int(row["sector_or_index"])) != (kind, n, k):
            raise CheckFailure(f"{where}: row labels {row}")
        if row["passed"] != "true":
            raise CheckFailure(f"{where}: not passed")
        bethe, ed = float(row["bethe"]), float(row["ed"])
        errors.close(f"{where} bethe-ed", bethe, ed, ED_TOL)
        errors.close(f"{where} difference", float(row["difference"]),
                     abs(bethe - ed), EXACT_FIELD_TOL)
        # all-up sector: E = N/4; one magnon at k = pi: E = N/4 - 2;
        # crossings h_0 = 1 and h_1 = cos(pi/(N-1))
        exact = {("energy", 0): n / 4.0, ("energy", 1): n / 4.0 - 2.0,
                 ("crossing", 0): 1.0, ("crossing", 1): closed_form_h1(n)}
        if (kind, k) in exact:
            errors.close(f"{where} bethe", bethe, exact[kind, k], EXACT_FIELD_TOL)
            errors.close(f"{where} ed", ed, exact[kind, k], ED_TOL)


def check(argv, exit_code, text):
    """Check one workload run given its argv, exit code and CSV output."""
    errors = _Errors()
    try:
        if exit_code != 0:
            raise CheckFailure(f"exit code {exit_code}")
        command = argv[0]
        if command == "validate":
            _validate(int(argv[argv.index("--max-size") + 1]), text, errors)
        else:
            model = argv[argv.index("--model") + 1]
            sizes = [int(n) for n in argv[argv.index("--sizes") + 1].split(",")]
            if command == "curve":
                _curve(model, sizes, text, errors)
            elif model == "heisenberg":
                _scaling(sizes, text, errors)
            else:
                raise CheckFailure(f"no check for scaling --model {model}")
    except (CheckFailure, ValueError, KeyError, IndexError, TypeError) as exc:
        return Result(False, errors.max_abs, f"{type(exc).__name__}: {exc}")
    return Result(True, errors.max_abs)
