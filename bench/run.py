"""partialfid benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload heisenberg-curve --seed 0 --seconds 25 --trace 0

Workloads are named in `workloads.py` and `BENCHMARK.json`.  Each run calls
the real entry point `partialfid.cli.main(argv)` in this process, once as a
warm-up and then repeatedly for `--seconds`, and checks every output against
independent routes (`check.py`).

`--trace 0` reports the end-to-end metrics: median wall time of one call
and rows per second over it, plus set-up time and peak memory measured in
fresh interpreters (`child.py`).  `--trace 1` alternates untraced and traced
calls and reports per-layer metrics from spans recorded around every public
function of the package (`tracer.py`), the tracing overhead, and the largest
error the output check saw.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Human-readable
detail (quartiles, sample counts, run record) comes before it.

Outputs and the spans of the last traced call go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import workloads
from tracer import LAYERS, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters started per run to time set-up; the first also runs the
# workload once for peak memory.
SETUP_PROBES = 5
# Timed calls per run at least, untraced and traced (each traced call is
# paired with an untraced one).
MIN_CALLS = 3
MIN_TRACED_CALLS = 2
CHILD_TIMEOUT_S = 150


def load_cli():
    """Import partialfid.cli from this checkout's src, and nowhere else."""
    package = SRC / "partialfid"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: {package} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    from partialfid import cli
    if Path(cli.__file__).resolve().parent != package:
        sys.exit(f"error: imported partialfid from {cli.__file__}, not {package}")
    return cli


class Runs:
    """Attempted and failed workload runs, and broken trace invariants."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.broken = 0
        self.max_abs_err = 0.0
        self._checked = {}

    def record(self, argv, code, text):
        """Check one run's output; return whether it passed."""
        self.attempted += 1
        key = (code, text)
        if key not in self._checked:  # identical output, identical verdict
            self._checked[key] = check.check(argv, code, text)
        result = self._checked[key]
        self.max_abs_err = max(self.max_abs_err, result.max_abs_err)
        if not result.passed:
            self.fail(result.message)
        return result.passed

    def fail(self, message):
        """Count a failed run."""
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def break_invariant(self, message):
        """Record a trace invariant that does not hold; the result is wrong."""
        self.broken += 1
        print(f"BROKEN: {message}", file=sys.stderr)


def call(cli, argv):
    """One in-process CLI call: (exit code, seconds, output text)."""
    output = Path(argv[argv.index("--output") + 1])
    output.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a failed run, not the end of the benchmark
        traceback.print_exc()
        code = None
    elapsed = time.perf_counter() - start
    text = output.read_text() if output.exists() else ""
    return code, elapsed, text


def repeat(seconds, step, at_least):
    """Call step() at least `at_least` times and while the next call fits.

    Returns the list of step() results.
    """
    results, durations = [], []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - step_start)
        elapsed = time.perf_counter() - start
        if (len(durations) >= at_least
                and elapsed + statistics.median(durations) > seconds):
            return results


def probe(argv=()):
    """Start child.py; return (seconds to its ready line, its result or None)."""
    command = [sys.executable, str(HERE / "child.py"), *argv]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as process:
        try:
            ready = process.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise
    if ready.strip() != "ready":
        sys.exit(f"error: set-up probe exited {process.returncode} before ready")
    lines = rest.splitlines()
    return setup, json.loads(lines[-1]) if argv and lines else None


def describe(label, values, unit):
    """Median, quartiles, count and the highest percentile with 10 beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3
    line = (f"{label}: median {statistics.median(ordered):.6g} {unit}, "
            f"quartiles {q1:.6g}..{q3:.6g}, n={n}")
    if n >= 11:
        p = math.floor(100.0 * (1.0 - 10.0 / n))
        value = ordered[max(0, math.ceil(n * p / 100.0) - 1)]
        line += f", p{p} {value:.6g} {unit} (10+ samples beyond)"
    else:
        line += ", no percentile has 10 samples beyond it (n < 11)"
    print(line)


def measure_end_to_end(cli, name, seed, seconds, runs):
    argv = workloads.argv(name, seed, OUT / f"{name}.csv")
    probe_argv = workloads.argv(name, seed, OUT / f"{name}-probe.csv")

    setup, result = probe(probe_argv)
    if result is None:
        sys.exit("error: peak-memory probe printed no result")
    output = Path(probe_argv[-1])
    runs.record(probe_argv, result["exit_code"],
                output.read_text() if output.exists() else "")
    peak_rss_mb = result["peak_rss_mb"]
    setups = [setup]
    for _ in range(SETUP_PROBES - 1):
        setups.append(probe()[0])

    warmup = workloads.warmup_argv(name, seed, OUT / f"{name}-warmup.csv")
    code, _, text = call(cli, warmup)
    runs.record(warmup, code, text)

    def step():
        code, elapsed, text = call(cli, argv)
        runs.record(argv, code, text)
        return elapsed, max(text.count("\n") - 1, 0)

    walls, rows = zip(*repeat(seconds, step, MIN_CALLS))
    wall_s = statistics.median(walls)
    describe("wall_s", walls, "s")
    describe("setup_s", setups, "s")
    print(f"peak_rss_mb: {peak_rss_mb:.6g} MB; rows per run: {rows[0]}")
    return {
        "wall_s": wall_s,
        "rows_per_s": statistics.median(rows) / wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def expected_counts(name, sizes):
    """Exact solve and ED-build counts one call of the workload must make."""
    if name == "heisenberg-curve":
        solves, builds = sum(n // 2 + 1 for n in sizes), 0
    elif name == "heisenberg-scaling":
        solves, builds = 3 * len(set(sizes)), 0  # sectors n_down = 0, 1, 2
    elif name == "ed-validate":
        # validate_bethe solves every sector twice: energies, then crossings
        builds = sum(n // 2 + 1 for n in range(4, sizes[0] + 1, 2))
        solves = 2 * builds
    else:
        solves, builds = 0, 0
    return {"bethe.solve_bethe.calls": solves,
            "ed.sector_hamiltonian.calls": builds}


# Per-layer metrics that repeat exactly on every call of one run.
EXACT = ("bethe.solve_bethe.calls", "bethe.solve_bethe.iterations",
          "bethe.solve_bethe.max_iterations", "bethe.solve_bethe.pair_evals",
          "bethe.solve_bethe.max_residual", "ed.sector_hamiltonian.calls",
          "ed.matrix_bytes", "fidelity.crossing_fidelity.calls",
          "fidelity.crossing_susceptibility.calls", "trace.spans")


def layer_metrics(tracer, wall):
    """Per-layer metrics of one traced call."""
    by_name, by_layer, root_s = summarize(tracer.spans)

    def span(name, key):
        return by_name.get(name, {}).get(key, 0)

    solves = [c for _, n, c in tracer.counts if n == "bethe.solve_bethe"]
    builds = [c for _, n, c in tracer.counts if n == "ed.sector_hamiltonian"]
    metrics = {
        "bethe.solve_bethe.calls": span("bethe.solve_bethe", "calls"),
        "bethe.solve_bethe.s": span("bethe.solve_bethe", "s"),
        "bethe.solve_bethe.iterations": sum(c["iterations"] for c in solves),
        "bethe.solve_bethe.max_iterations":
            max((c["iterations"] for c in solves), default=0),
        "bethe.solve_bethe.pair_evals": sum(c["pair_evals"] for c in solves),
        "bethe.solve_bethe.max_residual":
            max((c["residual"] for c in solves), default=0.0),
        "bethe.heisenberg_crossings.self_s":
            span("bethe.heisenberg_crossings", "self_s"),
        "bethe.heisenberg_curve.self_s": span("bethe.heisenberg_curve", "self_s"),
        "ed.sector_hamiltonian.calls": span("ed.sector_hamiltonian", "calls"),
        "ed.sector_hamiltonian.s": span("ed.sector_hamiltonian", "s"),
        "ed.eigensolve_s": span("ed.ed_sector_ground_energy", "self_s"),
        "ed.matrix_bytes": sum(c["matrix_bytes"] for c in builds),
        "ed.validate_bethe.self_s": span("ed.validate_bethe", "self_s"),
        "lmg.lmg_curve.s": span("lmg.lmg_curve", "s"),
        "lmg.lmg_curve.self_s": span("lmg.lmg_curve", "self_s"),
        "fidelity.crossing_fidelity.calls":
            span("fidelity.crossing_fidelity", "calls"),
        "fidelity.crossing_fidelity.s": span("fidelity.crossing_fidelity", "s"),
        "fidelity.crossing_susceptibility.calls":
            span("fidelity.crossing_susceptibility", "calls"),
        "fidelity.crossing_susceptibility.s":
            span("fidelity.crossing_susceptibility", "s"),
        "analysis.chi_max_scan.self_s": span("analysis.chi_max_scan", "self_s"),
        "analysis.fit_power_law.s": span("analysis.fit_power_law", "s"),
        "cli.main.s": span("cli.main", "s"),
        "trace.spans": len(tracer.spans),
        "trace.coverage": root_s / wall,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    return metrics


def measure_layers(cli, name, seed, seconds, runs):
    argv = workloads.argv(name, seed, OUT / f"{name}.csv")
    warmup = workloads.warmup_argv(name, seed, OUT / f"{name}-warmup.csv")
    code, _, text = call(cli, warmup)
    runs.record(warmup, code, text)

    def step():
        code, plain_wall, plain_text = call(cli, argv)
        runs.record(argv, code, plain_text)
        with Tracer() as tracer:
            code, traced_wall, text = call(cli, argv)
        if not tracer.restored():
            runs.break_invariant("tracer left a wrapped binding in place")
        if text == plain_text:
            runs.record(argv, code, text)
        else:
            runs.attempted += 1
            runs.fail("traced output differs from untraced output")
        return plain_wall, traced_wall, layer_metrics(tracer, traced_wall), tracer

    plain_walls, traced_walls, per_call, tracers = zip(
        *repeat(seconds, step, MIN_TRACED_CALLS))
    tracers[-1].write(OUT / f"{name}-spans.jsonl")
    print(f"traced calls: {len(per_call)}, spans per call: "
          f"{per_call[0]['trace.spans']}, bindings wrapped: "
          f"{tracers[-1].bindings()}")

    metrics = {}
    for key in per_call[0]:
        values = [m[key] for m in per_call]
        if key in EXACT:
            if len(set(values)) != 1:
                runs.break_invariant(
                    f"{key} differs between calls: {sorted(set(values))}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    for key, value in expected_counts(name, workloads.sizes(name, seed)).items():
        if metrics[key] != value:
            runs.break_invariant(
                f"{key} = {metrics[key]}, expected exactly {value}")
    if metrics["trace.coverage"] < 0.9:
        runs.break_invariant(
            f"named spans cover {metrics['trace.coverage']:.3f} of the traced "
            f"wall time, below 0.9")
    describe("untraced wall_s", plain_walls, "s")
    describe("traced wall_s", traced_walls, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls))
    metrics["check.max_abs_err"] = runs.max_abs_err
    return metrics


def _git_sha():
    """Commit of the checkout from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads(numpy):
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return "unknown"


def run_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = load_cli()
    OUT.mkdir(exist_ok=True)
    shown = workloads.argv(args.workload, args.seed, OUT / f"{args.workload}.csv")
    print(f"workload {args.workload}, seed {args.seed}: partialfid "
          f"{' '.join(a if len(a) < 80 else a[:60] + '...' for a in shown)}")
    print("run record:", json.dumps(run_record()))

    runs = Runs()
    if args.trace:
        values = measure_layers(cli, args.workload, args.seed, args.seconds, runs)
        wanted = spec["per_layer"]
    else:
        values = measure_end_to_end(cli, args.workload, args.seed, args.seconds,
                                    runs)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": runs.failed == 0 and runs.broken == 0,
                      "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
