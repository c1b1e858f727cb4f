"""Package surface: the exported names, and a library that stands without its tests."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import partialfid

MODULES = ("analysis", "bethe", "cli", "ed", "fidelity", "lmg")

# The test oracles (tests/oracles.py), and the helpers that only they used.
MOVED = ("single_site_state", "bhattacharyya_fidelity", "lmg_fidelity",
         "lmg_energy", "lmg_ground_magnetization", "h1_closed_form",
         "bethe_residual", "_normalized", "NORMALIZATION_DRIFT", "_check_field")


def test_exports_are_pinned():
    assert set(partialfid.__all__) == {
        "BetheRoots", "Comparison", "ConvergenceError", "Curve",
        "PowerLawFit", "ValidationReport", "chi_max_scan",
        "crossing_fidelity", "crossing_susceptibility",
        "ed_sector_ground_energy", "fit_power_law", "heisenberg_crossings",
        "heisenberg_curve", "lmg_chi_max", "lmg_crossings", "lmg_curve",
        "sector_epsilon", "sector_hamiltonian", "solve_bethe",
        "validate_bethe",
    }
    assert len(partialfid.__all__) == 20


@pytest.mark.parametrize("module", ["partialfid",
                                    *(f"partialfid.{name}" for name in MODULES)])
def test_oracles_are_not_in_the_library(module):
    namespace = importlib.import_module(module)
    assert [name for name in MOVED if hasattr(namespace, name)] == []


def test_library_imports_without_the_tests(tmp_path):
    # pytest puts tests/ on sys.path, so an import of a test module from the
    # library would pass here; an isolated interpreter (-I: no PYTHONPATH,
    # no working directory on the path) started outside the repository sees
    # only the source tree and the installed packages
    src = str(Path(partialfid.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    modules = ", ".join(repr(f"partialfid.{name}") for name in MODULES)
    script = (f"import importlib, sys; sys.path.insert(0, {src!r}); "
              f"assert {tests!r} not in sys.path; "
              f"[importlib.import_module(m) for m in ('partialfid', {modules})]; "
              "sys.exit('oracles' in sys.modules)")
    result = subprocess.run([sys.executable, "-I", "-c", script], cwd=tmp_path,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or "oracles was loaded"
