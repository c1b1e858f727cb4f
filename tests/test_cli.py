"""Command-line interface tests: output formats, determinism, exit codes."""

import csv
import io
import json
import math
import tracemalloc
from itertools import zip_longest
from math import comb

import numpy as np
import pytest

from partialfid import (
    bethe,
    chi_max_scan,
    cli,
    ed,
    fit_power_law,
    heisenberg_crossings,
    lmg,
    validate_bethe,
)
from partialfid.cli import CURVE_FIELDS, _write, main


# Row windows of the table writer besides its default (None): windows of 1
# and 3 rows put a window edge after every row, and where a short column ends
# (the N = 8 ring's 3 spacings of 4 crossings).
WINDOWS = (None, 1, 3)


def windowed(cases, ids):
    """Each case once per window in WINDOWS, the default under its bare id."""
    return [pytest.param(*case, window,
                         id=name if window is None else f"{name}-window{window}")
            for window in WINDOWS for case, name in zip(cases, ids)]


def set_window(monkeypatch, window):
    if window is not None:
        monkeypatch.setattr(cli, "_WINDOW_ROWS", window)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def output_path(tmp_path, target):
    """`--output` value of a target under tmp_path; the empty target stays ""."""
    return str(tmp_path / target) if target else ""


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def reference_curve_rows(model, n):
    """One row dict per crossing, computed crossing by crossing.

    Fields are Python floats, one per crossing; Heisenberg fields come from
    `heisenberg_crossings`, so this pins the writer's bytes (`test_bethe.py`
    checks those fields against independent sector solves). The fidelity is
    the overlap of the two probability pairs, each divided by its sum; chi is
    -2 ln F / delta_h^2, and None past the last spacing.
    """
    if model == "lmg":
        fields = [1.0 - (2 * j + 1) / n for j in range(n // 2)]
        spacings = [2.0 / n] * (n // 2)
    else:
        fields = heisenberg_crossings(n).tolist()
        spacings = (np.array(fields[:-1]) - np.array(fields[1:])).tolist()

    def pair(m):
        sz = 2.0 * m / n
        up, down = (1.0 + sz) / 2.0, (1.0 - sz) / 2.0
        return up / (up + down), down / (up + down)

    above = np.arange(n // 2, 0, -1)  # sector above each crossing, j ascending
    (p_up, p_down), (q_up, q_down) = pair(above), pair(above - 1)
    fidelity = np.minimum(np.sqrt(p_up * q_up) + np.sqrt(p_down * q_down), 1.0)
    delta_h = np.array(spacings)
    chi = -2.0 * np.log(fidelity[:len(spacings)]) / (delta_h * delta_h) + 0.0
    return [{"model": model, "N": n, "j": j, "h": h, "fidelity": f,
             "delta_h": d, "chi": c}
            for j, (h, f, d, c) in enumerate(zip_longest(
                fields, fidelity.tolist(), spacings, chi.tolist()))]


def reference_text(fields, rows, output_format, config=None, **records):
    """Rows written row dict by row dict, cell by cell, as CSV or JSON."""
    if output_format == "json":
        document = {"config": config, "rows": rows, **records}
        return json.dumps(document, indent=2) + "\n"

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    lines = [",".join(fields)]
    lines += [",".join(cell(row[f]) for f in fields) for row in rows]
    return "\n".join(lines) + "\n"


def reference_config(command, model, sizes, output_format):
    return {"command": command, "model": model, "sizes": list(sizes),
            "tol": 1e-12, "max_iter": 50, "format": output_format,
            "output": "-"}


def reference_curve_output(model, sizes, output_format):
    """`curve` output written row dict by row dict, cell by cell."""
    rows = [row for n in sizes for row in reference_curve_rows(model, n)]
    fields = ("model", "N", "j", "h", "fidelity", "delta_h", "chi")
    return reference_text(fields, rows, output_format,
                          reference_config("curve", model, sizes, output_format))


def reference_scaling_output(model, sizes, output_format):
    """`scaling` output from `chi_max_scan` and `fit_power_law`, cell by cell.

    CSV rows leave the fit columns empty and end with a `fit` row; JSON rows
    have no fit columns, and the fit is a separate record.
    """
    scan = chi_max_scan(model, sizes)
    fit = fit_power_law([(n, chi) for n, _, chi in scan])
    rows = [{"model": model, "N": n, "h_at_max": h, "chi_max": chi}
            for n, h, chi in scan]
    fields = ("model", "N", "h_at_max", "chi_max", "exponent", "r_squared")
    if output_format == "json":
        return reference_text(
            fields, rows, "json",
            reference_config("scaling", model, sizes, "json"),
            fit={"exponent": fit.exponent, "r_squared": fit.r_squared,
                 "points_used": fit.points_used})
    rows = [{**row, "exponent": None, "r_squared": None} for row in rows]
    rows.append({"model": "fit", "N": None, "h_at_max": None, "chi_max": None,
                 "exponent": fit.exponent, "r_squared": fit.r_squared})
    return reference_text(fields, rows, "csv")


def reference_validate_rows(max_size):
    """`validate` rows from the `validate_bethe` reports, energies first."""
    rows = []
    for n in range(4, max_size + 1, 2):
        report = validate_bethe(n)
        for kind, table in (("energy", report.sectors),
                            ("crossing", report.crossings)):
            rows += [{"kind": kind, "N": n, "sector_or_index": index,
                      "bethe": bethe_value, "ed": ed_value,
                      "difference": difference, "passed": passed}
                     for index, (bethe_value, ed_value, difference, passed)
                     in enumerate(zip(table.bethe.tolist(), table.ed.tolist(),
                                      table.difference.tolist(),
                                      table.passed.tolist()))]
    return rows


VALIDATE_FIELDS = ("kind", "N", "sector_or_index", "bethe", "ed", "difference",
                   "passed")


class TestCurve:
    def test_lmg_four_spins_rows(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", "lmg", "--sizes", "4")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        first = rows[0]
        assert (first["model"], first["N"], first["j"]) == ("lmg", "4", "0")
        assert float(first["h"]) == 0.75
        assert float(first["fidelity"]) == pytest.approx(math.sqrt(3.0) / 2.0,
                                                         rel=1e-15)
        assert float(first["delta_h"]) == 0.5
        assert float(first["chi"]) == pytest.approx(
            -8.0 * math.log(math.sqrt(3.0) / 2.0), rel=1e-15)
        second = rows[1]
        assert float(second["h"]) == 0.25
        assert float(second["fidelity"]) == pytest.approx(
            (math.sqrt(6.0) + math.sqrt(2.0)) / 4.0, rel=1e-15)

    def test_heisenberg_first_and_last_rows(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", "heisenberg",
                           "--sizes", "8")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        first = rows[0]
        assert float(first["h"]) == pytest.approx(1.0, abs=1e-10)
        assert float(first["fidelity"]) == pytest.approx(math.sqrt(7.0 / 8.0),
                                                         rel=1e-12)
        assert float(first["delta_h"]) == pytest.approx(
            2.0 * math.sin(math.pi / 14.0) ** 2, abs=1e-11)
        assert float(first["chi"]) == pytest.approx(13.6157, abs=2e-4)
        last = rows[-1]
        assert last["delta_h"] == "" and last["chi"] == ""

    def test_multiple_sizes_ordered(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", "lmg", "--sizes", "4,8")
        rows = parse_csv(out)
        assert [(r["N"], r["j"]) for r in rows] == [
            ("4", "0"), ("4", "1"),
            ("8", "0"), ("8", "1"), ("8", "2"), ("8", "3"),
        ]

    def test_csv_round_trips_chi(self, capsys):
        for model, sizes in (("lmg", "6,10"), ("heisenberg", "8,12")):
            _, out, _ = run(capsys, "curve", "--model", model, "--sizes", sizes)
            for row in parse_csv(out):
                if row["chi"] == "":
                    continue
                f, dh = float(row["fidelity"]), float(row["delta_h"])
                recomputed = -2.0 * math.log(f) / dh**2
                assert float(row["chi"]) == pytest.approx(recomputed, rel=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", "lmg", "--sizes", "4",
                           "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["config"]["model"] == "lmg"
        assert document["config"]["sizes"] == [4]
        assert list(document["config"]) == [
            "command", "model", "sizes", "tol", "max_iter", "format", "output"]
        assert (document["config"]["tol"], document["config"]["max_iter"]) == \
            (1e-12, 50)
        assert len(document["rows"]) == 2
        assert document["rows"][0]["fidelity"] == pytest.approx(
            math.sqrt(3.0) / 2.0, rel=1e-15)

    def test_lmg_two_spins_allowed(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", "lmg", "--sizes", "2")
        assert code == 0
        assert len(parse_csv(out)) == 1

    def test_output_file_and_determinism(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main(["curve", "--model", "heisenberg", "--sizes", "8,10",
                         "--output", str(path)])
            assert code == 0
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.endswith(b"\n") and b"\r" not in first

    def test_nonconvergence_is_a_numerical_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(bethe, "MAX_ITER", 2)
        code, _, err = run(capsys, "curve", "--model", "heisenberg",
                           "--sizes", "12")
        assert code == 1
        assert "n=12" in err and "n_down=" in err and "residual" in err

    def test_nonconvergence_writes_no_output(self, capsys, tmp_path,
                                             monkeypatch):
        # N = 4 converges and N = 12 does not: every curve is computed
        # before the output is opened, so no partial file is left
        monkeypatch.setattr(bethe, "MAX_ITER", 2)
        path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "curve", "--model", "heisenberg",
                           "--sizes", "4,12", "--output", str(path))
        assert (code, out) == (1, "")
        assert not path.exists()

    @pytest.mark.parametrize("target", ["directory", "missing/out.csv", ""])
    def test_unwritable_output_is_a_config_error(self, capsys, tmp_path,
                                                 target):
        (tmp_path / "directory").mkdir()
        code, out, err = run(capsys, "curve", "--model", "lmg", "--sizes", "4",
                             "--output", output_path(tmp_path, target))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    # N = 8200 has 4,100 rows: three default windows
    @pytest.mark.parametrize("model, sizes, window", windowed(
        [("lmg", (2, 8, 4000, 8200)), ("heisenberg", (4, 8, 64))],
        ids=["lmg", "heisenberg"]))
    def test_matches_row_dict_reference_bytes(self, capsys, monkeypatch, model,
                                              sizes, window, output_format):
        set_window(monkeypatch, window)
        code, out, _ = run(capsys, "curve", "--model", model, "--sizes",
                           ",".join(map(str, sizes)), "--format", output_format)
        assert code == 0
        assert out == reference_curve_output(model, sizes, output_format)
        if model == "heisenberg":
            # the last crossing of every ring has no spacing
            last = (',,\n' if output_format == "csv"
                    else '"delta_h": null,\n      "chi": null\n')
            assert out.count(last) == len(sizes)

    @pytest.mark.parametrize("target", ["directory", "missing/out.csv", ""])
    @pytest.mark.parametrize("argv", [
        ("curve", "--model", "heisenberg", "--sizes", "8"),
        ("validate", "--max-size", "8"),
    ])
    def test_unwritable_output_fails_before_any_solve(
            self, capsys, tmp_path, monkeypatch, argv, target):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a sector before checking --output")

        monkeypatch.setattr(bethe, "solve_bethe", no_solve)
        (tmp_path / "directory").mkdir()
        code, out, err = run(capsys, *argv, "--output",
                             output_path(tmp_path, target))
        assert code == 2
        assert out == "" and err.startswith("error: cannot write output ")

    def test_size_cap_is_a_config_error(self, capsys):
        code, _, err = run(capsys, "curve", "--model", "heisenberg",
                           "--sizes", "2050")
        assert code == 2
        assert "cap" in err

    def test_size_cap_fails_before_any_solve(self, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a sector before checking the size cap")

        monkeypatch.setattr(bethe, "solve_bethe", no_solve)
        code, out, err = run(capsys, "curve", "--model", "heisenberg",
                             "--sizes", "64,2050")
        assert (code, out, err) == (
            2, "", "error: heisenberg curve sizes are capped at 2048 spins, "
                   "got 2050\n")

    @pytest.mark.parametrize("argv", [
        ("curve", "--model", "lmg", "--sizes", "3"),
        ("curve", "--model", "heisenberg", "--sizes", "2"),
        ("curve", "--model", "heisenberg", "--sizes", "8,9"),
        ("curve", "--model", "lmg", "--sizes", ""),
        # the solver's tolerance and step budget are not options
        ("curve", "--model", "lmg", "--sizes", "4", "--max-iter", "50"),
        ("curve", "--model", "lmg", "--sizes", "4", "--tol", "1e-12"),
        ("curve", "--model", "unknown", "--sizes", "4"),
        ("curve", "--sizes", "4"),
        ("validate", "--max-size", "8", "--tol", "1e-12"),
    ])
    def test_config_errors(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2


@pytest.mark.parametrize("command", ["curve", "scaling"])
@pytest.mark.parametrize("model, sizes, message", [
    ("lmg", "64,65,66", "an even integer >= 2, got 65"),
    ("heisenberg", "64,65,66", "an even integer >= 4, got 65"),
    ("heisenberg", "8,2,16", "an even integer >= 4, got 2"),
    ("lmg", "1180591620717411303424,64,128",
     "below 2**63, got 1180591620717411303424"),
    ("heisenberg", "64,128,1180591620717411303424",
     "below 2**63, got 1180591620717411303424"),
    ("heisenberg", "64,9223372036854775808,128",
     "below 2**63, got 9223372036854775808"),
], ids=["lmg-odd", "heisenberg-odd", "heisenberg-floor", "lmg-int64",
        "heisenberg-int64", "heisenberg-2**63"])
def test_invalid_size_names_only_that_size(capsys, monkeypatch, command, model,
                                           sizes, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before every size was checked")

    monkeypatch.setattr(bethe, "solve_bethe", no_solve)
    monkeypatch.setattr(lmg, "lmg_chi_max", no_solve)
    code, out, err = run(capsys, command, "--model", model, "--sizes", sizes)
    assert (code, out, err) == (
        2, "", f"error: number of spins must be {message}\n")


class TestCells:
    """Each cell is its value formatted alone, repeated values and signed zeros too."""

    @staticmethod
    def one_by_one(values, json_format):
        if json_format or not isinstance(values[0], float):
            return [json.dumps(value) for value in values]
        return ["%.17g" % value for value in values]

    @pytest.mark.parametrize("json_format", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize("column", [
        (1.0,) * 5,
        np.full(7, 2.0 / 3.0),
        [0.1, 0.1],
        [0.0, -0.0, 0.0],
        [-0.0, 0.0],
        [-0.0, -0.0, -0.0],
        [0.0, 0.0],
        (math.nan,) * 4,
        np.full(3, math.nan),
        [1.0, 1.0, math.nan],
        np.array([math.inf, math.inf]),
        [5.0],
        np.array([3, 3, 3]),
        np.array([True, True]),
        np.array([False, False]),
    ], ids=["tuple", "array", "list", "zeros-mixed", "negative-zero-first",
            "negative-zeros", "zeros", "nan-tuple", "nan-array", "nan-last",
            "inf", "single", "integers", "true", "false"])
    def test_cells_equal_the_one_by_one_format(self, column, json_format):
        values = np.asarray(column).tolist()
        assert cli._cells(column, json_format) == self.one_by_one(
            values, json_format)

    def test_signed_zeros_keep_their_signs(self):
        assert cli._cells([0.0, -0.0, 0.0], False) == ["0", "-0", "0"]
        assert cli._cells([-0.0, 0.0], True) == ["-0.0", "0.0"]


class TestScaling:
    def test_lmg_fit_row(self, capsys):
        code, out, _ = run(capsys, "scaling", "--model", "lmg",
                           "--sizes", "64,128,256,512")
        assert code == 0
        rows = parse_csv(out)
        assert [r["N"] for r in rows[:-1]] == ["64", "128", "256", "512"]
        assert rows[0]["model"] == "lmg"
        assert float(rows[0]["h_at_max"]) == pytest.approx(1 - 1 / 64, rel=1e-15)
        fit = rows[-1]
        assert fit["model"] == "fit" and fit["N"] == ""
        assert abs(float(fit["exponent"]) - 0.997) < 0.003
        assert float(fit["r_squared"]) > 0.99999

    def test_heisenberg_json_fit(self, capsys):
        code, out, _ = run(capsys, "scaling", "--model", "heisenberg",
                           "--sizes", "16,32,64", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert len(document["rows"]) == 3
        assert document["rows"][0]["h_at_max"] == pytest.approx(1.0, abs=1e-10)
        assert 2.5 < document["fit"]["exponent"] < 3.5
        assert document["fit"]["points_used"] == 3

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize("model, sizes, window", windowed([
        ("lmg", (64, 128, 256, 512)),
        ("heisenberg", (4, 8, 16, 64, 1024)),
    ], ids=["lmg", "heisenberg"]))
    def test_matches_row_dict_reference_bytes(self, capsys, monkeypatch, model,
                                              sizes, window, output_format):
        set_window(monkeypatch, window)
        code, out, _ = run(capsys, "scaling", "--model", model, "--sizes",
                           ",".join(map(str, sizes)), "--format", output_format)
        assert code == 0
        assert out == reference_scaling_output(model, sizes, output_format)
        if output_format == "csv":
            # every size row leaves both fit columns empty
            assert all(line.endswith(",,")
                       for line in out.splitlines()[1:-1])
            assert out.splitlines()[-1].startswith("fit,,,,")
        else:
            assert '"exponent"' not in out.split('"fit"')[0]

    def test_too_few_sizes(self, capsys):
        code, _, err = run(capsys, "scaling", "--model", "lmg", "--sizes", "8,16")
        assert code == 2
        assert "3" in err


class TestValidate:
    def test_up_to_eight(self, capsys):
        code, out, _ = run(capsys, "validate", "--max-size", "8")
        assert code == 0
        rows = parse_csv(out)
        energy_rows = [r for r in rows if r["kind"] == "energy"]
        crossing_rows = [r for r in rows if r["kind"] == "crossing"]
        # counted from the sector structure, not assumed: sum over even N
        # of N/2 + 1 energies and N/2 crossings
        assert len(energy_rows) == sum(n // 2 + 1 for n in (4, 6, 8))
        assert len(crossing_rows) == sum(n // 2 for n in (4, 6, 8))
        assert all(r["passed"] == "true" for r in rows)
        assert all(float(r["difference"]) < ed.VALIDATION_TOL for r in rows)

    def test_matches_report_reference_bytes(self, capsys, monkeypatch):
        reference = reference_text(VALIDATE_FIELDS,
                                   reference_validate_rows(8), "csv")
        for window in WINDOWS:
            set_window(monkeypatch, window)
            code, out, err = run(capsys, "validate", "--max-size", "8")
            assert (code, err) == (0, "")
            assert out == reference, f"window {window}"

    def test_failures_exit_one_after_the_full_table(self, capsys, monkeypatch):
        # a loose solver tolerance leaves some sectors far from ED
        monkeypatch.setattr(bethe, "TOL", 0.05)
        code, out, err = run(capsys, "validate", "--max-size", "12")
        assert code == 1
        rows = reference_validate_rows(12)
        assert len(rows) == sum(n + 1 for n in range(4, 13, 2))
        assert out == reference_text(VALIDATE_FIELDS, rows, "csv")
        failed = [row for row in rows if not row["passed"]]
        assert failed and len(failed) < len(rows)
        assert err == "".join(
            f"FAIL {row['kind']} N={row['N']} "
            f"sector_or_index={row['sector_or_index']} "
            f"difference={row['difference']:.3e}\n" for row in failed)

    @pytest.mark.parametrize("size", ["3", "2", "22", "9"])
    def test_bad_max_size(self, capsys, size):
        code, _, _ = run(capsys, "validate", "--max-size", size)
        assert code == 2

    def test_writes_csv_only(self, capsys):
        # only curve and scaling take --format
        code, out, err = run(capsys, "validate", "--max-size", "4",
                             "--format", "json")
        assert (code, out) == (2, "")
        assert "--format" in err

    def test_max_size_limit_is_the_ed_cap(self, capsys, monkeypatch):
        # the largest ring the ED cap admits is 20, and the limit is checked
        # before any ring is validated
        def no_validation(*args, **kwargs):
            raise AssertionError("validated a ring before checking --max-size")

        monkeypatch.setattr(ed, "validate_bethe", no_validation)
        assert comb(20, 10) <= ed.DIMENSION_CAP < comb(22, 11)
        code, out, err = run(capsys, "validate", "--max-size", "22")
        assert (code, out, err) == (
            2, "", "error: half filling of n=22 has dimension 705432, "
                   "above the cap of 200000\n")

    def test_repeat_runs_byte_identical(self, capsys):
        first = run(capsys, "validate", "--max-size", "12")
        second = run(capsys, "validate", "--max-size", "12")
        assert first[0] == 0
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code = main(["validate", "--max-size", "4", "--output", str(path)])
        assert code == 0
        assert path.read_text().startswith("kind,N,sector_or_index")


class TestJsonWriter:
    """JSON rows are written one at a time; the text must equal `json.dumps`."""

    CONFIG = {"command": "curve", "output": '"rows": [] 100%'}

    @pytest.mark.parametrize("blocks, records, window", windowed([
        # the last row has no delta_h and chi: both are null
        ([(("heisenberg", 4), (np.arange(2), np.array([1.0, 0.5]),
                               np.array([0.9, 0.8]), np.array([0.5]),
                               np.array([0.84])))], {}),
        # a block without a single delta_h or chi, and a '%' in a key
        ([(("100%", 2), ([0], [1.0], [0.75], (), ())),
          (("lmg", 4), ((0, 1), (0.75, 0.25), (0.9, 0.9), (0.5, 0.5),
                        (math.nan, math.inf)))], {"fit": {"exponent": 1.0}}),
        # no rows at all
        ([(("lmg", 4), ((), (), (), (), ()))], {"fit": {"points_used": 0}}),
    ], ids=["absent-spacing", "absent-columns", "empty"]))
    def test_matches_json_dumps(self, capsys, monkeypatch, blocks, records,
                                window):
        set_window(monkeypatch, window)
        _write(CURVE_FIELDS, blocks, "-", self.CONFIG, **records)
        rows = [dict(zip(CURVE_FIELDS, (*key, *cells)))
                for key, columns in blocks
                for cells in zip_longest(*(np.asarray(c).tolist()
                                           for c in columns))]
        document = {"config": self.CONFIG, "rows": rows, **records}
        assert capsys.readouterr().out == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize("echo", [None, {"command": "curve"}],
                         ids=["csv", "json"])
def test_writer_memory_is_one_window(tmp_path, echo):
    """Writing 32,000 rows peaks below 1 MiB of traced memory.

    Formatted as one block, the N = 64000 curve peaks at about 12.8 MiB.
    """
    curve = lmg.lmg_curve(64000)
    assert len(curve) == 32000
    blocks = [(("lmg", curve.n), (np.arange(len(curve)), curve.h,
                                  curve.fidelity, curve.delta_h, curve.chi))]
    tracemalloc.start()
    try:
        _write(CURVE_FIELDS, blocks, str(tmp_path / "curve.out"), echo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
