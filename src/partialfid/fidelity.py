"""Single-site fidelity and susceptibility at level crossings, and their curve.

Both models treated by this package have ground states with definite total
magnetization, so the one-site reduced density matrix is diagonal in the
sigma^z basis: a probability pair (p_up, p_down).  The Uhlmann fidelity
between two of them reduces to the Bhattacharyya coefficient of the two
pairs.  Sectors are orthogonal, so the full-state fidelity across any
crossing is zero; the single-site one is not.  Everything here is shared by
the model front ends, down to the curve builder `fidelity_curve`, to which
each model supplies only its crossing fields and spacings; the numeric
operations accept numpy arrays in place of scalars and broadcast
elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Probability pairs whose sum drifted from one by at most this much are
# renormalized; larger drift is rejected as corrupt input.
NORMALIZATION_DRIFT = 1e-12


def _check_size(n, floor=2):
    """Reject a system size that is odd or below `floor` spins.

    `n` may be an integer array; every entry must pass.
    """
    invalid = (n < floor) | (n % 2 != 0)
    if isinstance(invalid, np.ndarray):  # one scalar size needs no array reduction
        invalid = invalid.any()
    if invalid:
        raise ValueError(f"number of spins must be even and >= {floor}, got {n}")


def single_site_state(n, m):
    """Probability pair (p_up, p_down) of one site in the magnetization-m sector.

    The on-site average <sigma^z> is 2m/n, so the pair is
    ((1 + 2m/n)/2, (1 - 2m/n)/2).  `n` and `m` may be integer arrays, which
    broadcast.
    """
    _check_size(n)
    if np.any(np.abs(np.asarray(m)) > n // 2):
        raise ValueError(f"|m| must not exceed n/2 = {n // 2}, got m = {m}")
    sz = 2.0 * m / n
    return (1.0 + sz) / 2.0, (1.0 - sz) / 2.0


def _normalized(pair):
    """Check a probability pair and divide it by its sum."""
    p_up, p_down = pair
    if np.any(np.asarray(p_up) < 0.0) or np.any(np.asarray(p_down) < 0.0):
        raise ValueError("probabilities must be nonnegative")
    total = p_up + p_down
    if np.any(np.abs(np.asarray(total) - 1.0) > NORMALIZATION_DRIFT):
        raise ValueError(
            f"p_up + p_down = {total!r} differs from 1 by more than "
            f"{NORMALIZATION_DRIFT}"
        )
    return p_up / total, p_down / total


def bhattacharyya_fidelity(p, q):
    """Overlap sqrt(p_up q_up) + sqrt(p_down q_down) of two probability pairs.

    Each pair is checked and renormalized first.  Symmetric in its arguments,
    bounded by 1 (Cauchy-Schwarz), and equal to 1 exactly when the pairs
    coincide.
    """
    (p_up, p_down), (q_up, q_down) = _normalized(p), _normalized(q)
    f = np.sqrt(p_up * q_up) + np.sqrt(p_down * q_down)
    return np.minimum(f, 1.0)  # guard rounding at p = q against the bound


def crossing_fidelity(n, m_above, m_below):
    """Fidelity between the single-site states on the two sides of a crossing."""
    return bhattacharyya_fidelity(
        single_site_state(n, m_above), single_site_state(n, m_below)
    )


def crossing_susceptibility(fidelity, delta_h):
    """Susceptibility -2 ln(F) / delta_h^2 of a fidelity drop over a spacing."""
    if np.any(np.asarray(fidelity) <= 0.0) or np.any(np.asarray(fidelity) > 1.0):
        raise ValueError(f"fidelity must lie in (0, 1], got {fidelity}")
    if np.any(np.asarray(delta_h) <= 0.0):
        raise ValueError(f"delta_h must be positive, got {delta_h}")
    # + 0.0 turns the -0.0 arising at F = 1 into 0.0
    return -2.0 * np.log(fidelity) / (delta_h * delta_h) + 0.0


@dataclass(frozen=True, eq=False)
class Curve:
    """Fidelity/susceptibility curve of n spins as numpy columns, one row per crossing.

    The row index j is implicit: row j is the crossing at field `h[j]`
    between sector n/2 - j (the ground state just above the field) and
    sector n/2 - j - 1 below it, with fidelity `fidelity[j]`.  `delta_h[j]`
    is the distance to the next crossing; the last crossing of a chain may
    have no successor, so `delta_h` may be shorter than the other columns.
    `chi` is computed from `fidelity` and `delta_h` at construction and has
    the length of `delta_h`.
    """

    n: int
    h: np.ndarray
    fidelity: np.ndarray
    delta_h: np.ndarray
    chi: np.ndarray = field(init=False)

    def __post_init__(self):
        if not len(self.h) == len(self.fidelity) >= len(self.delta_h):
            raise ValueError(
                "columns h and fidelity must have equal lengths, with no "
                "more spacings than crossings")
        if not np.all(self.h > 0.0):
            raise ValueError(f"crossing fields must be positive, got {self.h}")
        if not np.all((self.fidelity > 0.0) & (self.fidelity <= 1.0)):
            raise ValueError(f"fidelity must lie in (0, 1], got {self.fidelity}")
        object.__setattr__(self, "chi", crossing_susceptibility(
            self.fidelity[:len(self.delta_h)], self.delta_h))

    def __len__(self):
        return len(self.h)


def fidelity_curve(n, fields, spacings):
    """Fidelity/susceptibility curve of n spins, one row per crossing.

    Crossing j, at `fields[j]` (ascending j), joins sectors n/2 - j and
    n/2 - j - 1, so the crossing fidelity depends only on n and j and every
    model shares it; a model supplies only its fields and the spacings
    delta_h (stored as given) from each crossing to the next.  Crossings
    beyond len(spacings) have no successor and carry no susceptibility.
    """
    h = np.asarray(fields, dtype=float)
    above = n // 2 - np.arange(h.size)
    return Curve(n, h, crossing_fidelity(n, above, above - 1),
                 np.asarray(spacings, dtype=float))
