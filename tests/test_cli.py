"""Command-line interface tests: output formats, determinism, exit codes."""

import csv
import io
import json
import math

import pytest

from partialfid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


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

    def test_nonconvergence_is_a_numerical_failure(self, capsys):
        code, _, err = run(capsys, "curve", "--model", "heisenberg",
                           "--sizes", "12", "--max-iter", "2")
        assert code == 1
        assert "n=12" in err and "n_down=" in err and "residual" in err

    def test_loose_tolerance_runs(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", "heisenberg",
                           "--sizes", "64", "--tol", "0.05")
        assert code == 0
        assert len(parse_csv(out)) == 32

    @pytest.mark.parametrize("target", ["directory", "missing/out.csv"])
    def test_unwritable_output_is_a_config_error(self, capsys, tmp_path,
                                                 target):
        (tmp_path / "directory").mkdir()
        code, out, err = run(capsys, "curve", "--model", "lmg", "--sizes", "4",
                             "--output", str(tmp_path / target))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_size_cap_is_a_config_error(self, capsys):
        code, _, err = run(capsys, "curve", "--model", "heisenberg",
                           "--sizes", "514")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("argv", [
        ("curve", "--model", "lmg", "--sizes", "3"),
        ("curve", "--model", "heisenberg", "--sizes", "2"),
        ("curve", "--model", "heisenberg", "--sizes", "8,9"),
        ("curve", "--model", "lmg", "--sizes", ""),
        ("curve", "--model", "lmg", "--sizes", "4", "--max-iter", "-1"),
        ("curve", "--model", "lmg", "--sizes", "4", "--tol", "-1"),
        ("curve", "--model", "unknown", "--sizes", "4"),
        ("curve", "--sizes", "4"),
        ("curve", "--model", "lmg", "--sizes", "4", "--format", "json",
         "--tol", "nan"),
        ("curve", "--model", "heisenberg", "--sizes", "8", "--tol", "inf"),
        ("scaling", "--model", "lmg", "--sizes", "4,8,16", "--tol", "nan"),
        ("scaling", "--model", "heisenberg", "--sizes", "8,16,32",
         "--tol", "inf"),
        ("validate", "--max-size", "8", "--tol", "nan"),
        ("validate", "--max-size", "8", "--tol", "inf"),
    ])
    def test_config_errors(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2


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
        assert all(float(r["difference"]) < 1e-8 for r in rows)

    @pytest.mark.parametrize("size", ["3", "2", "22", "9"])
    def test_bad_max_size(self, capsys, size):
        code, _, _ = run(capsys, "validate", "--max-size", size)
        assert code == 2

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
