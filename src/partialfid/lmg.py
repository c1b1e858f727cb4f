"""Isotropic Lipkin-Meshkov-Glick model: sector energies, crossings, curves.

The ground state of the isotropic model lives in the maximum-spin multiplet
and is labeled by the magnetization quantum number M alone, so everything is
closed form: sector energies are quadratic in M, the ground sector is the
integer minimizing that quadratic (the *nearest* integer to hN/2 -- a plain
floor of hN/2 would contradict the crossing fields h_j = 1 - (2j+1)/N), and
the fidelity curve follows from the single-site states of adjacent sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fidelity import (
    CrossingPoint,
    CurvePoint,
    crossing_fidelity,
    crossing_susceptibility,
)


@dataclass(frozen=True)
class LmgSector:
    """Magnetization sector |S = n/2, M = m> of the n-spin model, 0 <= m <= n/2."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"number of spins must be even and >= 2, got {self.n}")
        if not 0 <= self.m <= self.n // 2:
            raise ValueError(f"m must lie in [0, {self.n // 2}], got {self.m}")


def lmg_energy(n, m, h):
    """Energy (2/n)(m - hn/2)^2 - (n/2)(1 + h^2) of sector m at field h >= 0."""
    LmgSector(n, m)
    if h < 0.0:
        raise ValueError(f"field must be nonnegative, got {h}")
    return (2.0 / n) * (m - h * n / 2.0) ** 2 - (n / 2.0) * (1.0 + h * h)


def _crossing_field(n, j):
    """Field h_j = 1 - (2j+1)/n where sectors n/2 - j and n/2 - j - 1 cross."""
    return 1.0 - (2 * j + 1) / n


def lmg_ground_magnetization(n, h):
    """Ground-state magnetization at field h: the m minimizing the sector energy.

    For h >= 1 the fully polarized sector n/2 wins; below, the minimizer of
    (m - hn/2)^2 is the nearest integer to hn/2.  At an exact tie (h equal to
    a crossing field) the larger m is returned, which makes the result
    right-continuous in h.  Ties are decided against the same float fields
    `lmg_crossings` emits, so the two agree at every crossing.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"number of spins must be even and >= 2, got {n}")
    if h < 0.0:
        raise ValueError(f"field must be nonnegative, got {h}")
    if h >= 1.0:
        return n // 2
    m = min(int(math.floor(h * n / 2.0 + 0.5)), n // 2)
    # hn/2 may round across a tie; sector m is ground on [h_{n/2-m}, h_{n/2-m-1})
    while m < n // 2 and h >= _crossing_field(n, n // 2 - m - 1):
        m += 1
    while m > 0 and h < _crossing_field(n, n // 2 - m):
        m -= 1
    return m


def lmg_crossings(n):
    """All ground-state level crossings, fields h_j = 1 - (2j+1)/n descending."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"number of spins must be even and >= 2, got {n}")
    return [
        CrossingPoint(j, _crossing_field(n, j), n // 2 - j, n // 2 - j - 1)
        for j in range(n // 2)
    ]


def lmg_fidelity(n, j):
    """Closed-form crossing fidelity (sqrt((n-j)(n-j-1)) + sqrt(j(j+1)))/n.

    `j` may be an integer array.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"number of spins must be even and >= 2, got {n}")
    if np.any(np.asarray(j) < 0) or np.any(np.asarray(j) > n // 2 - 1):
        raise ValueError(f"crossing index must lie in [0, {n // 2 - 1}], got {j}")
    j = np.asarray(j, dtype=float)
    return (np.sqrt((n - j) * (n - j - 1.0)) + np.sqrt(j * (j + 1.0))) / n


def lmg_curve(n):
    """Fidelity/susceptibility curve, one point per crossing, ascending j.

    The crossing spacing is uniform, delta_h = 2/n, so every point carries a
    susceptibility.  The stored fidelity is the closed form; it is checked
    against the single-site composition route on every call.
    """
    crossings = lmg_crossings(n)
    j = np.arange(n // 2)
    f_closed = lmg_fidelity(n, j)
    f_composed = crossing_fidelity(n, n // 2 - j, n // 2 - j - 1)
    assert np.max(np.abs(f_closed - f_composed) / f_closed) <= 1e-12, (
        "closed-form and composed fidelities disagree"
    )
    delta_h = 2.0 / n
    chi = crossing_susceptibility(f_closed, delta_h)
    return [
        CurvePoint(c, float(f), delta_h, float(x))
        for c, f, x in zip(crossings, f_closed, chi)
    ]


def lmg_chi_max(n):
    """Susceptibility at the crossing nearest the critical field.

    Equals -(n^2/4) ln(1 - 1/n), the j = 0 value, which is also the curve
    maximum; evaluated with log1p so that the n/4 large-n asymptote survives
    cancellation at large n.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"number of spins must be even and >= 2, got {n}")
    return -(n * n / 4.0) * math.log1p(-1.0 / n)
