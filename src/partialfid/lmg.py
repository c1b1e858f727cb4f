"""Isotropic Lipkin-Meshkov-Glick model: crossings, curves and chi_max.

The ground state of the isotropic model lives in the maximum-spin multiplet
and is labeled by the magnetization quantum number M alone, so everything is
closed form.  Sector M has energy (2/N)(M - hN/2)^2 - (N/2)(1 + h^2), so
adjacent sectors N/2 - j and N/2 - j - 1 cross at h_j = 1 - (2j+1)/N, and
the ground sector at a field h is N/2 less the number of crossing fields
above h (the *nearest* integer to hN/2, which minimizes that quadratic).
The fidelity curve follows from `crossing_fidelity` at each crossing; the
tests check the crossings against the sector energies.
"""

from __future__ import annotations

import math

import numpy as np

from .fidelity import Curve, _check_size


def lmg_crossings(n):
    """Fields h_j = 1 - (2j+1)/n of all ground-state level crossings, descending.

    Crossing j joins sectors n/2 - j (above) and n/2 - j - 1 (below), so
    the ground sector at a field h is n/2 less the number of these fields
    above h.
    """
    _check_size(n)
    return 1.0 - (2 * np.arange(n // 2) + 1) / n


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
