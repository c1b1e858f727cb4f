"""Single-site fidelity and susceptibility at level crossings, and their curve.

Both models treated by this package have ground states with definite total
magnetization, so the one-site reduced density matrix is diagonal in the
sigma^z basis: a probability pair (p_up, p_down).  The Uhlmann fidelity
between two of them reduces to the Bhattacharyya coefficient of the two
pairs.  Sectors are orthogonal, so the full-state fidelity across any
crossing is zero; the single-site one is not.  Crossing j joins sectors
n/2 - j and n/2 - j - 1 in both models, so its fidelity depends on n and j
alone: `crossing_fidelity(n, j)` is the package's one fidelity formula, and
a model gives a `Curve` only its crossing fields and spacings.  The general
Bhattacharyya overlap and its closed form for this pair of sectors live in
the tests, as oracles for `crossing_fidelity`.  The numeric operations
accept numpy arrays in place of scalars and broadcast elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Largest size: the array code holds sizes as int64.
_SIZE_MAX = 2**63 - 1


def _is_integer(value):
    """True for an int or numpy integer, or an array of integers.

    A float is refused even when integral, 8.0 like 8.5, and so is a bool, as
    it is in an array, so every size, sector and crossing index is an integer
    at every entry point.
    """
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or np.asarray(value).dtype.kind in "iu")


def _check_size(n, floor=2):
    """Reject a system size that is not an even integer of at least `floor` spins.

    A size beyond int64 is refused too.  A valid plain int returns before any
    numpy code runs.  `n` may be an integer array; every entry must pass, and
    the message names the first entry that fails.
    """
    if type(n) is int and floor <= n <= _SIZE_MAX and n % 2 == 0:  # no bool
        return
    invalid = not _is_integer(n) or (n < floor) | (n % 2 != 0) | (n > _SIZE_MAX)
    if isinstance(invalid, np.ndarray):
        if not invalid.any():
            return
        n = n[invalid][0]  # the message names the first entry that fails
    elif not invalid:
        return
    if _is_integer(n) and n > _SIZE_MAX:
        raise ValueError(f"number of spins must be below 2**63, got {n}")
    raise ValueError(f"number of spins must be an even integer >= {floor}, "
                     f"got {n}")


def _check_range(n, name, value, bounds):
    """Reject a size `_check_size` rejects, or `value` not an integer in bounds(n).

    `bounds` maps the size to the pair (low, high) and runs only once the
    size has passed, so a size that is no number fails as a size.  `value`
    may be an integer array, and `n` an array of sizes with arrays of
    bounds; every entry must pass.  The error message names `name`, the
    range and the value.
    """
    _check_size(n)
    low, high = bounds(n)
    if type(value) is int and type(n) is int:  # scalars need no array; no bool
        valid = low <= value <= high
    else:
        value_array = np.asarray(value)
        valid = _is_integer(value) and np.all((low <= value_array)
                                              & (value_array <= high))
    if not valid:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], "
                         f"got {value}")


def crossing_fidelity(n, j):
    """Fidelity at crossing j, between sectors m = n/2 - j and m - 1.

    The one-site pair of sector m is ((1 + sz)/2, (1 - sz)/2) with
    sz = <sigma^z> = 2m/n, and the fidelity is the Bhattacharyya overlap
    sqrt(p_up q_up) + sqrt(p_down q_down) of the two pairs.  No pair needs
    renormalizing: for 0 <= sz <= 1 the rounded 1 + sz and 1 - sz differ
    from their exact values by at most 2^-53 together, so their float sum
    is exactly 2.  `n` and `j` may be integer arrays, which broadcast.
    """
    _check_range(n, "crossing index", j, lambda size: (0, size // 2 - 1))
    m = n // 2 - j
    p_sz, q_sz = 2.0 * m / n, 2.0 * (m - 1) / n
    p_up, p_down = (1.0 + p_sz) / 2.0, (1.0 - p_sz) / 2.0
    q_up, q_down = (1.0 + q_sz) / 2.0, (1.0 - q_sz) / 2.0
    f = np.sqrt(p_up * q_up) + np.sqrt(p_down * q_down)
    return np.minimum(f, 1.0)  # Cauchy-Schwarz bound, guarded against rounding


def crossing_susceptibility(fidelity, delta_h):
    """Susceptibility -2 ln(F) / delta_h^2 of a fidelity drop over a spacing."""
    f, dh = np.asarray(fidelity), np.asarray(delta_h)
    if not np.all((f > 0.0) & (f <= 1.0)):
        raise ValueError(f"fidelity must lie in (0, 1], got {fidelity}")
    if not np.all((dh > 0.0) & np.isfinite(dh)):
        raise ValueError(f"delta_h must be positive and finite, got {delta_h}")
    # + 0.0 turns the -0.0 arising at F = 1 into 0.0
    return -2.0 * np.log(fidelity) / (delta_h * delta_h) + 0.0


@dataclass(frozen=True, eq=False)
class Curve:
    """Fidelity/susceptibility curve of n spins as numpy columns, one row per crossing.

    Built from the fields `h` and spacings `delta_h` (arrays or sequences).
    Row j is the crossing at field `h[j]` between sector n/2 - j (the ground
    state just above the field) and sector n/2 - j - 1, so there are at most
    n/2 rows, and `fidelity[j]` is `crossing_fidelity(n, j)`.  `delta_h[j]`
    is the distance to the next crossing; the last crossing of a chain may
    have no successor, so `delta_h`, and `chi` computed from it, may be
    shorter than `h`.
    """

    n: int
    h: np.ndarray
    fidelity: np.ndarray = field(init=False)
    delta_h: np.ndarray
    chi: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        delta_h = np.asarray(self.delta_h, dtype=float)
        if len(delta_h) > len(h):
            raise ValueError(f"more spacings than fields, lengths "
                             f"{len(delta_h)} and {len(h)}")
        if not np.all((h > 0.0) & np.isfinite(h)):
            raise ValueError(f"crossing fields must be positive and finite, "
                             f"got {h}")
        fidelity = crossing_fidelity(self.n, np.arange(len(h)))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "fidelity", fidelity)
        object.__setattr__(self, "delta_h", delta_h)
        object.__setattr__(self, "chi", crossing_susceptibility(
            fidelity[:len(delta_h)], delta_h))

    def __len__(self):
        return len(self.h)
