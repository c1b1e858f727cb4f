"""Bethe-Ansatz sector solver for the spin-1/2 antiferromagnetic Heisenberg ring.

Each magnetization sector (n spins, n_down flipped) has a ground state
parameterized by real rapidities x_j solving the coupled equations

    F_j = 2 n arctan(x_j) - 2 pi I_j - 2 sum_l arctan((x_j - x_l) / 2) = 0,

with quantum numbers I_j = -(n_down-1)/2, ..., (n_down-1)/2.  The sector
energy is affine in the field h because the equations do not involve h, which
pins each crossing field exactly from two sector solves, with no field scan.

The solver is Newton's method on F, as in ABACUS (J.-S. Caux, J. Math.
Phys. 50, 095214 (2009)), started from x_j = tan(pi I_j / n).  The Jacobian
is symmetric and closed form: off the diagonal dF_j/dx_l = 1/(1 + (x_j -
x_l)^2/4), and on it 2n/(1 + x_j^2) minus the sum of that row's off-diagonal
entries.  It converges in about ten steps at every sector size, so the
budget is 50 steps.  The terms of F grow like n pi, so the convergence
threshold on max_j |F_j| is tol * max(1, n/64): tol itself up to n = 64, and
beyond that a fixed multiple (10 to 20 at tol = 1e-12) of the float64 spacing
near the largest term, which the iteration can reach at every n.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .fidelity import (
    CrossingPoint,
    CurvePoint,
    crossing_fidelity,
    crossing_susceptibility,
)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 50

# Largest sector solve a full curve may trigger without the caller raising the
# cap; chi_max scans need only n_down <= 2 and are exempt.
DEFAULT_SIZE_CAP = 512


class ConvergenceError(RuntimeError):
    """Raised when the Newton iteration fails to reach the tolerance."""

    def __init__(self, n, n_down, residual, iterations):
        self.n = n
        self.n_down = n_down
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"Bethe equations for n={n}, n_down={n_down} not converged after "
            f"{iterations} iterations, residual {residual:.3e}"
        )


@dataclass(frozen=True)
class BetheRoots:
    """Solved rapidities of one (n, n_down) sector, with solver diagnostics."""

    n: int
    n_down: int
    quantum_numbers: np.ndarray
    rapidities: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        if len(self.quantum_numbers) != self.n_down:
            raise ValueError("one quantum number per down spin required")
        if len(self.rapidities) != self.n_down:
            raise ValueError("one rapidity per down spin required")
        if self.n_down > 1 and not np.all(np.diff(self.rapidities) > 0):
            raise ValueError("rapidities must be strictly ascending")


def bethe_quantum_numbers(n_down):
    """Ground-state quantum numbers -(n_down-1)/2, ..., (n_down-1)/2, unit step.

    Integers for odd n_down, half-odd-integers for even; empty for n_down = 0.
    """
    if n_down < 0:
        raise ValueError(f"n_down must be nonnegative, got {n_down}")
    return np.arange(n_down) - (n_down - 1) / 2.0


def bethe_residual(n, quantum_numbers, rapidities):
    """Largest absolute violation of the coupled rapidity equations."""
    x = np.asarray(rapidities, dtype=float)
    if x.size == 0:
        return 0.0
    pair_sum = np.arctan(0.5 * (x[:, None] - x[None, :])).sum(axis=1)
    violation = 2.0 * n * np.arctan(x) - 2.0 * np.pi * np.asarray(quantum_numbers) \
        - 2.0 * pair_sum
    return float(np.max(np.abs(violation)))


def _check_sector(n, n_down):
    if n < 2 or n % 2 != 0:
        raise ValueError(f"ring length must be even and >= 2, got {n}")
    if not 0 <= n_down <= n // 2:
        raise ValueError(f"n_down must lie in [0, {n // 2}], got {n_down}")


def solve_bethe(n, n_down, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve the ground-state rapidities of sector (n, n_down) by Newton's method.

    Args:
        n: ring length, even.
        n_down: number of down spins, 0 <= n_down <= n/2.
        tol: convergence threshold on the maximum equation violation for
            n <= 64; larger rings use tol * n / 64, since the equation terms
            grow like n pi and an absolute threshold falls below float64
            resolution.
        max_iter: budget of Newton steps before giving up.

    Returns:
        BetheRoots with ascending rapidities, the achieved residual and the
        number of Newton steps taken.

    Raises:
        ConvergenceError: threshold not reached within max_iter steps, or a
            singular Jacobian or non-finite step.
        ValueError: invalid sector or solver parameters.
    """
    _check_sector(n, n_down)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")

    qn = bethe_quantum_numbers(n_down)
    x = np.tan(np.pi * qn / n)
    if n_down == 0:
        return BetheRoots(n, 0, qn, x, 0.0, 0)

    threshold = tol * max(1.0, n / 64.0)  # terms of F grow like n pi
    two_pi_qn = 2.0 * np.pi * qn
    for iteration in range(max_iter + 1):
        d = 0.5 * (x[:, None] - x[None, :])
        f = 2.0 * n * np.arctan(x) - two_pi_qn - 2.0 * np.arctan(d).sum(axis=1)
        residual = float(np.max(np.abs(f)))
        if residual <= threshold:
            x = np.sort(x)
            if n_down > 1:
                # distinct quantum numbers forbid coinciding roots
                assert np.min(np.diff(x)) > tol, "degenerate rapidities"
            return BetheRoots(n, n_down, qn, x, residual, iteration)
        if iteration == max_iter:
            break
        # Jacobian in place of d: 1/(1 + d^2) off the diagonal (1 on it)
        np.multiply(d, d, out=d)
        d += 1.0
        jacobian = np.reciprocal(d, out=d)
        np.fill_diagonal(jacobian,
                         2.0 * n / (1.0 + x * x) - (jacobian.sum(axis=1) - 1.0))
        try:
            step = np.linalg.solve(jacobian, f)
        except np.linalg.LinAlgError:
            raise ConvergenceError(n, n_down, residual, iteration) from None
        if not np.all(np.isfinite(step)):
            raise ConvergenceError(n, n_down, residual, iteration)
        x = x - step
    raise ConvergenceError(n, n_down, residual, max_iter)


def sector_epsilon(roots):
    """Field-independent energy contribution sum_j 2/(x_j^2 + 1) of the roots."""
    x = roots.rapidities
    return float(np.sum(2.0 / (x * x + 1.0)))


def sector_energy(n, n_down, h, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Ground-state energy n/4 - (n - 2 n_down) h - epsilon of one sector.

    Affine in h with slope -(n - 2 n_down); the rapidities carry no field
    dependence.
    """
    roots = solve_bethe(n, n_down, tol=tol, max_iter=max_iter)
    return n / 4.0 - (n - 2 * n_down) * h - sector_epsilon(roots)


def heisenberg_crossings(n, max_index=None, tol=DEFAULT_TOL,
                         max_iter=DEFAULT_MAX_ITER):
    """Crossing fields h_j = (epsilon(j+1) - epsilon(j))/2, descending in j.

    Sector energies are affine in h, so adjacent sectors n_down = j and j+1
    are degenerate exactly where the epsilon difference says; no field grid is
    involved.  `max_index` limits the solve to crossings j <= max_index (a
    chi_max scan needs only j <= 1, i.e. sectors n_down <= 2); the default
    covers all n/2 crossings.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"ring length must be even and >= 4, got {n}")
    last = n // 2 - 1 if max_index is None else max_index
    if not 0 <= last <= n // 2 - 1:
        raise ValueError(f"max_index must lie in [0, {n // 2 - 1}], got {max_index}")
    epsilon = [
        sector_epsilon(solve_bethe(n, k, tol=tol, max_iter=max_iter))
        for k in range(last + 2)
    ]
    return [
        CrossingPoint(j, 0.5 * (epsilon[j + 1] - epsilon[j]),
                      n // 2 - j, n // 2 - j - 1)
        for j in range(last + 1)
    ]


def h1_closed_form(n):
    """Second crossing field -1 + 2/(tan^2(pi/(2(n-1))) + 1), i.e. cos(pi/(n-1)).

    Follows from the two-down-spin sector, whose rapidities are the
    antisymmetric pair +-tan(pi/(2(n-1))); for large n the gap below h_0 = 1
    approaches pi^2 / (2(n-1)^2).
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"ring length must be even and >= 4, got {n}")
    t = math.tan(math.pi / (2.0 * (n - 1)))
    return -1.0 + 2.0 / (t * t + 1.0)


def heisenberg_curve(n, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                     size_cap=DEFAULT_SIZE_CAP):
    """Fidelity/susceptibility curve of the ring, one point per crossing.

    The spacing delta_h = h_j - h_{j+1} needs the next crossing, so the last
    point (j = n/2 - 1) carries no susceptibility.  The maximum of chi sits at
    j = 0.  Full curves solve every sector up to half filling and are capped
    at `size_cap` spins; raise the cap explicitly for bigger rings.
    """
    if size_cap is not None and n > size_cap:
        raise ValueError(
            f"full curve for n={n} solves sectors up to {n // 2} coupled "
            f"equations; beyond the cap of {size_cap} spins pass a larger "
            f"size_cap explicitly"
        )
    crossings = heisenberg_crossings(n, tol=tol, max_iter=max_iter)
    points = []
    for j, crossing in enumerate(crossings):
        f = float(crossing_fidelity(n, crossing.sector_above, crossing.sector_below))
        if j + 1 < len(crossings):
            delta_h = crossing.field - crossings[j + 1].field
            chi = float(crossing_susceptibility(f, delta_h))
            points.append(CurvePoint(crossing, f, delta_h, chi))
        else:
            points.append(CurvePoint(crossing, f))
    return points
