"""Seeded command lines of the four benchmark workloads.

Seed 0 gives the fixed inputs below.  Any other seed shifts each size by an
even offset drawn from OFFSETS, so sizes stay even, inside the same band and
under the program's caps (512 spins for a Heisenberg curve, 14 for the ED
oracle).  `ed-validate` has no free input: `validate --max-size 14` is the
largest run the dense oracle accepts, so every seed gives the same command.
The program receives only the generated argv.
"""

from __future__ import annotations

import random

NAMES = ("heisenberg-curve", "heisenberg-scaling", "ed-validate", "lmg-curve")

HEISENBERG_CURVE_SIZES = (64, 128, 256, 512)
SCALING_RANGE = (64, 8192)  # every even N in between
ED_MAX_SIZE = 14
LMG_CURVE_SIZES = (4000, 8000, 16000, 32000, 64000)

# Non-positive offsets keep the largest curve size under the 512-spin cap.
OFFSETS = (-4, -2, 0)


def _shift(sizes, rng):
    if rng is None:
        return tuple(sizes)
    return tuple(n + rng.choice(OFFSETS) for n in sizes)


def sizes(name, seed):
    """Sizes the workload runs at: a tuple of even N (max size for ed-validate)."""
    rng = None if seed == 0 else random.Random(f"{name}:{seed}")
    if name == "heisenberg-curve":
        return _shift(HEISENBERG_CURVE_SIZES, rng)
    if name == "heisenberg-scaling":
        lo, hi = _shift(SCALING_RANGE, rng)
        return tuple(range(lo, hi + 1, 2))
    if name == "ed-validate":
        return (ED_MAX_SIZE,)
    if name == "lmg-curve":
        return _shift(LMG_CURVE_SIZES, rng)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def _argv(name, workload_sizes, output):
    size_list = ",".join(str(n) for n in workload_sizes)
    if name == "heisenberg-curve":
        head = ["curve", "--model", "heisenberg", "--sizes", size_list]
    elif name == "heisenberg-scaling":
        head = ["scaling", "--model", "heisenberg", "--sizes", size_list]
    elif name == "ed-validate":
        head = ["validate", "--max-size", str(workload_sizes[0])]
    else:
        head = ["curve", "--model", "lmg", "--sizes", size_list]
    return head + ["--output", str(output)]


def argv(name, seed, output):
    """The `partialfid` command line of one workload run, CSV to `output`."""
    return _argv(name, sizes(name, seed), output)


def warmup_argv(name, seed, output):
    """A short run of the same subcommand and model, for one warm-up call.

    It loads every code path the timed runs take (numpy ufuncs, LAPACK for
    the ED oracle) at a fraction of the cost of a full run.
    """
    full = sizes(name, seed)
    if name == "heisenberg-scaling":
        # every 512th N across the band, so the fit still sees the N^3 law
        return _argv(name, full[::256], output)
    if name == "ed-validate":
        return _argv(name, (10,), output)
    return _argv(name, full[:1], output)


def reachable_curve_sizes():
    """Every Heisenberg curve size some seed can produce, ascending."""
    return sorted({n + o for n in HEISENBERG_CURVE_SIZES for o in OFFSETS})
