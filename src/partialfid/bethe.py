"""Bethe-Ansatz sector solver for the spin-1/2 antiferromagnetic Heisenberg ring.

Each magnetization sector (n spins, n_down flipped) has a ground state
parameterized by real rapidities x_j solving the coupled equations

    F_j = 2 n arctan(x_j) - 2 pi I_j - 2 sum_l arctan((x_j - x_l) / 2) = 0,

with quantum numbers I_j = -(n_down-1)/2, ..., (n_down-1)/2.  The sector
energy is affine in the field h because the equations do not involve h, which
pins each crossing field exactly from two sector solves, with no field scan.

The ground-state root set is antisymmetric, x_{n_down+1-j} = -x_j, so the
solver works on the P = floor(n_down/2) positive roots y_j alone; for odd
n_down the middle root is 0, which solves its own equation, and stays fixed.
With the positive quantum numbers I_j, each y_j solves

    F_j = 2 n arctan(y_j) - 2 pi I_j - 2 [sum_l arctan((y_j - y_l) / 2)
          + sum_l arctan((y_j + y_l) / 2) + odd arctan(y_j / 2)] = 0,

the equation of x_j = y_j with the pair terms of -y_l (and of 0) written out;
the equation of -y_j is its negative.  The solver is Newton's method on this
half system, as in ABACUS (J.-S. Caux, J. Math. Phys. 50, 095214 (2009)).
It starts from the dilute-limit roots y_j = tan(pi I_j / (n - n_down/2)):
for small roots, which sum to zero, sum_l 2 arctan((x_j - x_l)/2) is about
n_down x_j, itself about n_down arctan(x_j).  For n_down = 2 this start is
the exact root tan(pi/(2(n-1))), so sectors with at most two down spins
take no Newton step.  With K(d) = 1/(1 + d^2/4) the
Jacobian is symmetric and closed form: off the diagonal dF_j/dy_l =
K(y_j - y_l) - K(y_j + y_l), and on it 2n/(1 + y_j^2) - (sum_l K(y_j - y_l)
- 1) - sum_l K(y_j + y_l) - 1/(1 + y_j^2) - odd K(y_j).  Half the unknowns
make a quarter of the Jacobian and an eighth of the dense solve of the full
system.  It converges in at most about ten steps at every sector size (8 at
half filling of n = 512), so the budget is 50 steps.
The terms of F grow like n pi, so the convergence threshold on max_j |F_j|
(the same over the half and the full root set) is tol * max(1, n/64): tol
itself up to n = 64, and beyond that a fixed multiple (10 to 20 at tol =
1e-12) of the float64 spacing near the largest term, which the iteration can
reach at every n.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .fidelity import _check_size, fidelity_curve

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 50

# Largest ring whose full curve (every sector up to half filling) runs without
# the caller raising the cap; chi_max scans need only n_down <= 2 and are exempt.
DEFAULT_SIZE_CAP = 1024


@dataclass(frozen=True)
class SolverConfig:
    """Newton solver settings: threshold `tol` and step budget `max_iter`.

    `tol` is the threshold on the maximum equation violation for n <= 64;
    larger rings use tol * n / 64 (see `solve_bethe`).
    """

    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")


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
    _check_size(n)
    if not 0 <= n_down <= n // 2:
        raise ValueError(f"n_down must lie in [0, {n // 2}], got {n_down}")


def solve_bethe(n, n_down, solver=SolverConfig()):
    """Solve the ground-state rapidities of sector (n, n_down) by Newton's method.

    Newton runs on the floor(n_down/2) positive roots only (module docstring);
    the full root set is their mirror image, a zero root for odd n_down, and
    the roots themselves.

    Args:
        n: ring length, even.
        n_down: number of down spins, 0 <= n_down <= n/2.
        solver: `SolverConfig` with the threshold `tol` on the maximum
            equation violation, applied as tol * max(1, n/64) since the
            equation terms grow like n pi, and the budget `max_iter` of
            Newton steps before giving up.

    Returns:
        BetheRoots with all n_down rapidities ascending, the achieved
        residual and the number of Newton steps taken.

    Raises:
        ConvergenceError: threshold not reached within max_iter steps, or a
            singular Jacobian or non-finite step.
        ValueError: invalid sector.
    """
    _check_sector(n, n_down)

    qn = bethe_quantum_numbers(n_down)
    odd = n_down % 2
    positive = qn[n_down - n_down // 2:]
    y = np.tan(np.pi * positive / (n - 0.5 * n_down))  # dilute-limit roots
    size = y.size
    if size == 0:  # the lone zero root of n_down = 1 solves its equation
        return BetheRoots(n, n_down, qn, np.zeros(odd), 0.0, 0)

    threshold = solver.tol * max(1.0, n / 64.0)  # terms of F grow like n pi
    two_pi_qn = 2.0 * np.pi * positive
    for iteration in range(solver.max_iter + 1):
        # half-differences of each positive root and every root y, -y (and 0)
        half = 0.5 * y
        d = half[:, None] - np.concatenate((half, -half, np.zeros(odd)))
        f = 2.0 * n * np.arctan(y) - two_pi_qn - 2.0 * np.arctan(d).sum(axis=1)
        residual = float(np.abs(f).max())
        if residual <= threshold:
            y = np.sort(y)
            x = np.concatenate((-y[::-1], np.zeros(odd), y))
            return BetheRoots(n, n_down, qn, x, residual, iteration)
        if iteration == solver.max_iter:
            break
        # K = 1/(1 + d^2) in place of d; dF_j/dy_l = K(y_j - y_l) - K(y_j + y_l)
        np.multiply(d, d, out=d)
        d += 1.0
        k = np.reciprocal(d, out=d)
        jacobian = k[:, :size] - k[:, size:2 * size]
        # a row of K holds K(0) = 1 for y_j itself and K(2 y_j) = 1/(1 + y_j^2)
        # for -y_j, whose term -2 arctan(y_j) has derivative -2/(1 + y_j^2)
        np.fill_diagonal(jacobian,
                         (2.0 * n - 1.0) / (1.0 + y * y) - (k.sum(axis=1) - 1.0))
        try:
            step = np.linalg.solve(jacobian, f)
        except np.linalg.LinAlgError:
            raise ConvergenceError(n, n_down, residual, iteration) from None
        if not np.all(np.isfinite(step)):
            raise ConvergenceError(n, n_down, residual, iteration)
        y = y - step
    raise ConvergenceError(n, n_down, residual, solver.max_iter)


def sector_epsilon(roots):
    """Field-independent energy contribution sum_j 2/(x_j^2 + 1) of the roots."""
    x = roots.rapidities
    return float((2.0 / (x * x + 1.0)).sum())


def sector_energy(n, n_down, h, solver=SolverConfig()):
    """Ground-state energy n/4 - (n - 2 n_down) h - epsilon of one sector.

    Affine in h with slope -(n - 2 n_down); the rapidities carry no field
    dependence.
    """
    roots = solve_bethe(n, n_down, solver)
    return n / 4.0 - (n - 2 * n_down) * h - sector_epsilon(roots)


def heisenberg_crossings(n, max_index=None, solver=SolverConfig()):
    """Crossing fields h_j = (epsilon(j+1) - epsilon(j))/2, a descending array.

    Sector energies are affine in h, so adjacent sectors n_down = j and j+1
    (magnetizations n/2 - j and n/2 - j - 1) are degenerate exactly where the
    epsilon difference says; no field grid is involved.

    `max_index` limits the solve to crossings j <= max_index (a chi_max scan
    needs only j <= 1, i.e. sectors n_down <= 2); the default covers all n/2
    crossings.
    """
    _check_size(n, floor=4)
    last = n // 2 - 1 if max_index is None else max_index
    if not 0 <= last <= n // 2 - 1:
        raise ValueError(f"max_index must lie in [0, {n // 2 - 1}], got {max_index}")
    epsilon = np.array([
        sector_epsilon(solve_bethe(n, k, solver))
        for k in range(last + 2)
    ])
    return 0.5 * (epsilon[1:] - epsilon[:-1])


def h1_closed_form(n):
    """Second crossing field -1 + 2/(tan^2(pi/(2(n-1))) + 1), i.e. cos(pi/(n-1)).

    Follows from the two-down-spin sector, whose rapidities are the
    antisymmetric pair +-tan(pi/(2(n-1))); for large n the gap below h_0 = 1
    approaches pi^2 / (2(n-1)^2).
    """
    _check_size(n, floor=4)
    t = math.tan(math.pi / (2.0 * (n - 1)))
    return -1.0 + 2.0 / (t * t + 1.0)


def heisenberg_curve(n, solver=SolverConfig(), size_cap=DEFAULT_SIZE_CAP):
    """Fidelity/susceptibility `Curve` of the ring, one row per crossing.

    The spacing delta_h = h_j - h_{j+1} needs the next crossing, so the last
    row (j = n/2 - 1) has no `delta_h` or `chi` entry.  The maximum of chi
    sits at j = 0.

    Full curves solve every sector up to half filling and are capped at
    `size_cap` spins; raise the cap explicitly for bigger rings.
    """
    if size_cap is not None and n > size_cap:
        raise ValueError(
            f"full curve for n={n} solves sectors up to {n // 2} coupled "
            f"equations; beyond the cap of {size_cap} spins pass a larger "
            f"size_cap explicitly"
        )
    fields = heisenberg_crossings(n, solver=solver)
    return fidelity_curve(n, fields, fields[:-1] - fields[1:])
