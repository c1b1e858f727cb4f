"""Finite-size scaling: curve extrema, chi_max collection, power-law fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bethe, lmg
from .fidelity import crossing_fidelity, crossing_susceptibility

MODELS = ("lmg", "heisenberg")


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line through (ln size, ln value): value ~ e^b * size^a."""

    exponent: float
    log_prefactor: float
    r_squared: float
    points_used: int

    def __post_init__(self):
        if self.points_used < 3:
            raise ValueError("a power-law fit needs at least 3 points")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared}")


def fit_power_law(points):
    """Fit value = prefactor * size^exponent by unweighted log-log least squares.

    Args:
        points: sequence of (size, value) pairs, all strictly positive,
            sizes distinct, at least 3 of them.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    sizes = np.array([p[0] for p in points], dtype=float)
    values = np.array([p[1] for p in points], dtype=float)
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


def chi_max_scan(model, sizes, tol=bethe.DEFAULT_TOL,
                 max_iter=bethe.DEFAULT_MAX_ITER):
    """Susceptibility maximum and its field location for each system size.

    Both models peak at the first crossing, so only h_0 (and, for the ring,
    h_1 for the spacing) is needed: the ring solves sectors n_down <= 2
    regardless of size.  Returns (n, h_at_max, chi_max) triples, deduplicated
    and in ascending n.

    Sizes must be even, >= 2 for lmg and >= 4 for heisenberg.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    floor = 2 if model == "lmg" else 4
    sizes = sorted(set(int(n) for n in sizes))
    if not sizes:
        raise ValueError("at least one size required")
    for n in sizes:
        if n % 2 != 0 or n < floor:
            raise ValueError(f"sizes for {model} must be even and >= {floor}, got {n}")

    rows = []
    for n in sizes:
        if model == "lmg":
            rows.append((n, 1.0 - 1.0 / n, lmg.lmg_chi_max(n)))
        else:
            h0, h1 = [c.field for c in heisenberg_first_crossings(
                n, tol=tol, max_iter=max_iter)]
            f = crossing_fidelity(n, n // 2, n // 2 - 1)
            rows.append((n, h0, float(crossing_susceptibility(f, h0 - h1))))
    return rows


def heisenberg_first_crossings(n, tol=bethe.DEFAULT_TOL,
                               max_iter=bethe.DEFAULT_MAX_ITER):
    """The two crossings framing the chi maximum of the ring (j = 0 and 1)."""
    return bethe.heisenberg_crossings(n, max_index=1, tol=tol, max_iter=max_iter)


def min_fidelity(curve):
    """Field and value of the smallest fidelity on a curve, ties toward larger h."""
    if not curve:
        raise ValueError("empty curve")
    best = curve[0]
    for point in curve[1:]:
        if point.fidelity < best.fidelity or (
            point.fidelity == best.fidelity
            and point.crossing.field > best.crossing.field
        ):
            best = point
    return best.crossing.field, best.fidelity
