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
system.  Each Newton step is taken in the phases u_j = arctan(y_j), in which
the leading term 2 n arctan(y_j) is linear: the step s of y becomes
y = tan(arctan(y) - s / (1 + y^2)).  So a step no longer overshoots the large
roots, where arctan is flat in y, and a step that takes any u_j outside
(0, pi/2), where tan would wrap to another branch, is a failure.
From the dilute start this takes at most 6 steps per sector up to n = 512
(663 over all 257 sectors of n = 512) and 8 at half filling of n = 2048, so
the budget MAX_ITER is 50 steps.  `heisenberg_crossings` starts each sector
from the sectors solved before it in the same ring (see there), which took
at most 4 steps per sector in every ring tried up to n = 2048.
The terms of F grow like n pi, so the convergence threshold on max_j |F_j|
(the same over the half and the full root set) is TOL * max(1, n/64), with
TOL = 1e-12: TOL itself up to n = 64, and beyond that a fixed multiple (10
to 20) of the float64 spacing near the largest term, which the iteration can
reach at every n.  Neither setting is an option.  On the rings n = 64-512,
TOL = 1e-14 stalls above its threshold at sector (256, 127), TOL = 1e-8
moves crossing fields by up to 8.3e-10, and every budget of at least 4
steps gives the same fields to the bit (3 stops at sector (64, 32)).
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .fidelity import _check_size, fidelity_curve

# Convergence threshold (scaled by max(1, n/64)) and Newton step budget of
# every sector solve; read at call time.
TOL = 1e-12
MAX_ITER = 50

# Largest ring whose full curve (every sector up to half filling) the CLI
# accepts; the library takes any size, and chi_max scans are not capped.
SIZE_CAP = 2048


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
        if self.n_down > 1 and not (np.diff(self.rapidities) > 0).all():
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


def _dilute_phase(n, n_down, positive):
    """Phases arctan(y_j) = pi I_j / (n - n_down/2) of the dilute-limit roots."""
    return np.pi * positive / (n - 0.5 * n_down)


def _phases_in_range(u):
    """True when every phase lies in (0, pi/2), where tan maps it to a positive root."""
    return bool(((u > 0.0) & (u < 0.5 * np.pi)).all())  # False for NaN


def solve_bethe(n, n_down, start=None):
    """Solve the ground-state rapidities of sector (n, n_down) by Newton's method.

    Newton runs on the floor(n_down/2) positive roots only, with each step
    taken in the phases arctan(y) (module docstring); the full root set is
    their mirror image, a zero root for odd n_down, and the roots themselves.
    It stops once the maximum equation violation is at most
    TOL * max(1, n/64), since the equation terms grow like n pi, and gives
    up after MAX_ITER steps.

    Args:
        n: ring length, even.
        n_down: number of down spins, 0 <= n_down <= n/2.
        start: the floor(n_down/2) positive starting roots, in the order of
            the positive quantum numbers; default the dilute-limit roots
            tan(pi I_j / (n - n_down/2)).

    Returns:
        BetheRoots with all n_down rapidities ascending, the achieved
        residual and the number of Newton steps taken.

    Raises:
        ConvergenceError: threshold not reached within MAX_ITER steps, a
            singular Jacobian, or a step that leaves a phase arctan(y_j)
            outside (0, pi/2) or is not finite.
        ValueError: invalid sector, or a start of the wrong length or with a
            root that is not positive and finite.
    """
    _check_sector(n, n_down)

    qn = bethe_quantum_numbers(n_down)
    odd = n_down % 2
    positive = qn[n_down - n_down // 2:]
    if start is None:
        y = np.tan(_dilute_phase(n, n_down, positive))
    else:
        y = np.array(start, dtype=float)
        if y.shape != positive.shape:
            raise ValueError(f"start must hold {positive.size} roots, "
                             f"got shape {y.shape}")
        if not (np.isfinite(y).all() and (y > 0.0).all()):
            raise ValueError("start roots must be positive and finite")
    size = y.size
    if size == 0:  # the lone zero root of n_down = 1 solves its equation
        return BetheRoots(n, n_down, qn, np.zeros(odd), 0.0, 0)

    threshold = TOL * max(1.0, n / 64.0)  # terms of F grow like n pi
    two_pi_qn = 2.0 * np.pi * positive
    for iteration in range(MAX_ITER + 1):
        # half-differences of each positive root and every root y, -y (and 0)
        half = 0.5 * y
        d = half[:, None] - np.concatenate((half, -half, np.zeros(odd)))
        u = np.arctan(y)
        f = 2.0 * n * u - two_pi_qn - 2.0 * np.arctan(d).sum(axis=1)
        residual = float(np.abs(f).max())
        if residual <= threshold:
            y = np.sort(y)
            x = np.concatenate((-y[::-1], np.zeros(odd), y))
            return BetheRoots(n, n_down, qn, x, residual, iteration)
        if iteration == MAX_ITER:
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
        # the step in the phase u = arctan(y), in which 2 n arctan(y) is linear
        u -= step / (1.0 + y * y)
        if not _phases_in_range(u):
            raise ConvergenceError(n, n_down, residual, iteration)
        y = np.tan(u)
    raise ConvergenceError(n, n_down, residual, MAX_ITER)


def sector_epsilon(roots):
    """Field-independent energy contribution sum_j 2/(x_j^2 + 1) of the roots."""
    x = roots.rapidities
    return float((2.0 / (x * x + 1.0)).sum())


def sector_energy(n, n_down):
    """Zero-field ground-state energy n/4 - epsilon of one sector.

    The rapidities carry no field dependence, so a field h adds the Zeeman
    shift -(n - 2 n_down) h.
    """
    return n / 4.0 - sector_epsilon(solve_bethe(n, n_down))


def heisenberg_crossings(n, max_index=None):
    """Crossing fields h_j = (epsilon(j+1) - epsilon(j))/2, a descending array.

    Sector energies are affine in h, so adjacent sectors n_down = j and j+1
    (magnetizations n/2 - j and n/2 - j - 1) are degenerate exactly where the
    epsilon difference says; no field grid is involved.

    `max_index` limits the solve to crossings j <= max_index (a chi_max scan
    needs only j <= 1, i.e. sectors n_down <= 2); the default covers all n/2
    crossings.

    Each sector is one `solve_bethe` call, in order of n_down, and continues
    the start from the sectors solved before it.  A solved sector with
    positive roots y_j gives the profile r(t_j) = arctan(y_j) / u0_j at
    t_j = I_j / (n_down/2), the ratio of each phase to its dilute-limit phase
    u0_j = pi I_j / (n - n_down/2).  The next sector starts at
    tan(u0 g(t)), with g = 2 r_{k-1} - r_{k-2} from the last two profiles
    (interpolated, extended linearly past the last point), or the one
    profile there is.  Sectors n_down <= 2 have no profile before them, so
    they start at the dilute limit as in a lone solve, and so does a sector
    whose continued phases would leave (0, pi/2).  Nothing is kept between
    calls.
    """
    _check_size(n, floor=4)
    last = n // 2 - 1 if max_index is None else max_index
    if not 0 <= last <= n // 2 - 1:
        raise ValueError(f"max_index must lie in [0, {n // 2 - 1}], got {max_index}")
    epsilon = np.empty(last + 2)
    profiles = []  # (t, r) of the last two sectors solved with positive roots
    for k in range(last + 2):
        start = None
        # sectors from n_down = 2 on give or take a profile, unless the solve
        # stops at sector 2 (a chi_max scan), where none would be used
        continued = k >= 2 and last >= 2
        if continued:
            positive = bethe_quantum_numbers(k)[k - k // 2:]
            t, dilute = positive / (0.5 * k), _dilute_phase(n, k, positive)
        if profiles:
            g = _ratio(*profiles[-1], t)
            if len(profiles) == 2:
                g = 2.0 * g - _ratio(*profiles[-2], t)
            phase = dilute * g
            if _phases_in_range(phase):
                start = np.tan(phase)
        roots = solve_bethe(n, k, start=start)
        epsilon[k] = sector_epsilon(roots)
        if continued:
            r = np.arctan(roots.rapidities[k - k // 2:]) / dilute
            profiles = [*profiles[-1:], (t, r)]
    return 0.5 * (epsilon[1:] - epsilon[:-1])


def _ratio(t_solved, r_solved, t):
    """The ratios r_solved at t: interpolated, extended linearly past the last point."""
    r = np.interp(t, t_solved, r_solved)
    if t_solved.size > 1:
        slope = (r_solved[-1] - r_solved[-2]) / (t_solved[-1] - t_solved[-2])
        past = t > t_solved[-1]
        r[past] = r_solved[-1] + slope * (t[past] - t_solved[-1])
    return r


def h1_closed_form(n):
    """Second crossing field -1 + 2/(tan^2(pi/(2(n-1))) + 1), i.e. cos(pi/(n-1)).

    Follows from the two-down-spin sector, whose rapidities are the
    antisymmetric pair +-tan(pi/(2(n-1))); for large n the gap below h_0 = 1
    approaches pi^2 / (2(n-1)^2).
    """
    _check_size(n, floor=4)
    t = math.tan(math.pi / (2.0 * (n - 1)))
    return -1.0 + 2.0 / (t * t + 1.0)


def heisenberg_curve(n):
    """Fidelity/susceptibility `Curve` of the ring, one row per crossing.

    The spacing delta_h = h_j - h_{j+1} needs the next crossing, so the last
    row (j = n/2 - 1) has no `delta_h` or `chi` entry.  The maximum of chi
    sits at j = 0.  Every sector up to half filling is solved.
    """
    fields = heisenberg_crossings(n)
    return fidelity_curve(n, fields, fields[:-1] - fields[1:])
