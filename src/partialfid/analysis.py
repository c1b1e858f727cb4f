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
    h_1 for the spacing) is needed: the ring solves sectors n_down <= 2
    regardless of size.  Returns (n, h_at_max, chi_max) triples, deduplicated
    and in ascending n.

    Sizes must be even, >= 2 for lmg and >= 4 for heisenberg.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    sizes = sorted(set(int(n) for n in sizes))
    if not sizes:
        raise ValueError("at least one size required")
    for n in sizes:
        _check_size(n, SIZE_FLOORS[model])

    if model == "lmg":
        return [(n, 1.0 - 1.0 / n, lmg.lmg_chi_max(n)) for n in sizes]
    fields = np.empty((len(sizes), 2))  # h_0, h_1 per size
    for row, n in zip(fields, sizes):
        row[:] = bethe.heisenberg_crossings(n, max_index=1)
    h0, h1 = fields.T
    n = np.array(sizes)
    chi = crossing_susceptibility(
        crossing_fidelity(n, n // 2, n // 2 - 1), h0 - h1)
    return list(zip(sizes, h0.tolist(), chi.tolist()))
