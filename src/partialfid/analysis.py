"""Finite-size scaling: chi_max collection and power-law fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bethe, lmg
from .fidelity import _check_size, crossing_fidelity, crossing_susceptibility

# Smallest system size of each model; a ring's first spacing needs N >= 4.
SIZE_FLOORS = {"lmg": 2, "heisenberg": 4}
MODELS = tuple(SIZE_FLOORS)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line through (ln size, ln value): value ~ e^b * size^a."""

    exponent: float
    log_prefactor: float
    r_squared: float
    points_used: int


def fit_power_law(points):
    """Fit value = prefactor * size^exponent by unweighted log-log least squares.

    Args:
        points: sequence of (size, value) pairs, all finite and strictly
            positive, sizes distinct, at least 3 of them.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    sizes = np.array([p[0] for p in points], dtype=float)
    values = np.array([p[1] for p in points], dtype=float)
    if not (np.isfinite(sizes).all() and np.isfinite(values).all()):
        raise ValueError("sizes and values must be finite")
    if np.any(sizes <= 0.0) or np.any(values <= 0.0):
        raise ValueError("sizes and values must be strictly positive")
    if len(np.unique(sizes)) != len(sizes):
        raise ValueError("sizes must be distinct")

    ln_n = np.log(sizes)
    ln_v = np.log(values)
    slope, intercept = np.polyfit(ln_n, ln_v, 1)
    ss_res = float(np.sum((ln_v - (slope * ln_n + intercept)) ** 2))
    ss_tot = float(np.sum((ln_v - ln_v.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return PowerLawFit(float(slope), float(intercept),
                       min(max(r_squared, 0.0), 1.0), len(points))


def chi_max_scan(model, sizes):
    """Susceptibility maximum and its field location for each system size.

    Both models peak at the first crossing, so only h_0 (and, for the ring,
    h_1 for the spacing) is needed.  The ring solves the sectors
    n_down = 0, 1, 2 of every size with `bethe.solve_bethe`, three calls per
    size, sector by sector into one array of rapidities, and takes the
    sector values epsilon, the fields and chi for all sizes at once; each
    value equals its `heisenberg_curve` counterpart bit for bit.  Returns
    (n, h_at_max, chi_max) triples, deduplicated and in ascending n.

    Sizes must be even integers, >= 2 for lmg and >= 4 for heisenberg.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    sizes = list(sizes)
    if not sizes:
        raise ValueError("at least one size required")
    for n in sizes:  # every given size, before a set merges 8 and 8.0
        _check_size(n, SIZE_FLOORS[model])
    sizes = sorted({int(n) for n in sizes})

    if model == "lmg":
        return [(n, 1.0 - 1.0 / n, lmg.lmg_chi_max(n)) for n in sizes]
    epsilon = np.empty((3, len(sizes)))  # sectors n_down = 0, 1, 2 per size
    for k, row in enumerate(epsilon):
        x = np.empty((len(sizes), k))
        for roots, n in zip(x, sizes):
            roots[:] = bethe.solve_bethe(n, k).rapidities
        row[:] = bethe._epsilon(x)
    h0, h1 = 0.5 * (epsilon[1:] - epsilon[:-1])
    n = np.array(sizes)
    chi = crossing_susceptibility(crossing_fidelity(n, 0), h0 - h1)
    return list(zip(sizes, h0.tolist(), chi.tolist()))
