"""Isotropic Lipkin-Meshkov-Glick model: sector energies, crossings, curves.

The ground state of the isotropic model lives in the maximum-spin multiplet
and is labeled by the magnetization quantum number M alone, so everything is
closed form: sector energies are quadratic in M, adjacent sectors N/2 - j
and N/2 - j - 1 cross at h_j = 1 - (2j+1)/N, the ground sector at a field h
is N/2 less the number of crossing fields above h (the integer minimizing
that quadratic, the *nearest* integer to hN/2), and the fidelity curve
follows from the single-site states of adjacent sectors.
"""

from __future__ import annotations

import math

import numpy as np

from .fidelity import Curve, _check_range, _check_size


def _check_field(h):
    """Reject a field that is NaN, infinite or negative."""
    if not 0.0 <= h < math.inf:
        raise ValueError(f"field must be finite and nonnegative, got {h}")


def lmg_energy(n, m, h):
    """Energy (2/n)(m - hn/2)^2 - (n/2)(1 + h^2) of sector m at field h >= 0.

    The sector |S = n/2, M = m> needs 0 <= m <= n/2, and h must be finite.
    """
    _check_range(n, "m", m, lambda size: (0, size // 2))
    _check_field(h)
    return (2.0 / n) * (m - h * n / 2.0) ** 2 - (n / 2.0) * (1.0 + h * h)


def lmg_ground_magnetization(n, h):
    """Ground-state magnetization at field h >= 0, read off the crossing list.

    Sector m is ground from its crossing h_{n/2-m} up to, not including,
    h_{n/2-m-1}, and sector n/2 for every h >= h_0: m is n/2 less the number
    of `lmg_crossings` fields above h.  At an exact tie (h equal to an
    emitted crossing field) the larger m is returned, which makes the result
    right-continuous in h.  Away from the crossings m minimizes the sector
    energy: it is the nearest integer to hn/2.
    """
    _check_field(h)
    return n // 2 - int(np.count_nonzero(lmg_crossings(n) > h))


def lmg_crossings(n):
    """Fields h_j = 1 - (2j+1)/n of all ground-state level crossings, descending.

    Crossing j joins sectors n/2 - j (above) and n/2 - j - 1 (below), and
    `lmg_ground_magnetization` is read off this list.
    """
    _check_size(n)
    return 1.0 - (2 * np.arange(n // 2) + 1) / n


def lmg_fidelity(n, j):
    """Closed-form crossing fidelity (sqrt((n-j)(n-j-1)) + sqrt(j(j+1)))/n.

    `j` may be an integer array.
    """
    _check_range(n, "crossing index", j, lambda size: (0, size // 2 - 1))
    j = np.asarray(j, dtype=float)
    return (np.sqrt((n - j) * (n - j - 1.0)) + np.sqrt(j * (j + 1.0))) / n


def lmg_curve(n):
    """Fidelity/susceptibility `Curve`, one row per crossing, ascending j.

    The crossing spacing is uniform, delta_h = 2/n, so every row carries a
    susceptibility.  The spacing is passed as 2/n itself: differences of the
    float crossing fields are not bitwise equal to it.
    """
    return Curve(n, lmg_crossings(n), np.full(n // 2, 2.0 / n))


def lmg_chi_max(n):
    """Susceptibility at the crossing nearest the critical field.

    Equals -(n^2/4) ln(1 - 1/n), the j = 0 value, which is also the curve
    maximum; evaluated with log1p so that the n/4 large-n asymptote survives
    cancellation at large n.
    """
    _check_size(n)
    return -(n * n / 4.0) * math.log1p(-1.0 / n)
