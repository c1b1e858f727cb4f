"""Independent routes the tests check the library against.

Closed forms and definitions that the library does not need at run time:
the paper's Bhattacharyya overlap of single-site pairs, the crossing
fidelity in closed form, the LMG sector energies, the second Heisenberg
crossing field and the Bethe-equation residual of a root set.  None checks
its inputs; the tests call them with valid ones.
"""

import math

import numpy as np

from partialfid import lmg_crossings


def single_site_state(n, m):
    """Probability pair (p_up, p_down) of one site in the magnetization-m sector.

    The on-site average <sigma^z> is 2m/n.  `n` and `m` may be arrays.
    """
    sz = 2.0 * m / n
    return (1.0 + sz) / 2.0, (1.0 - sz) / 2.0


def bhattacharyya_fidelity(p, q):
    """Overlap sqrt(p_up q_up) + sqrt(p_down q_down) of two probability pairs.

    Each pair is divided by its sum first, and the overlap is clamped at its
    Cauchy-Schwarz bound 1.
    """
    (p_up, p_down), (q_up, q_down) = p, q
    p_total, q_total = p_up + p_down, q_up + q_down
    p_up, p_down = p_up / p_total, p_down / p_total
    q_up, q_down = q_up / q_total, q_down / q_total
    return np.minimum(np.sqrt(p_up * q_up) + np.sqrt(p_down * q_down), 1.0)


def composed_fidelity(n, j):
    """Crossing fidelity by definition: the overlap of sectors n/2 - j and n/2 - j - 1."""
    above = n // 2 - j
    return bhattacharyya_fidelity(single_site_state(n, above),
                                  single_site_state(n, above - 1))


def lmg_fidelity(n, j):
    """Closed-form crossing fidelity (sqrt((n-j)(n-j-1)) + sqrt(j(j+1)))/n."""
    j = np.asarray(j, dtype=float)
    return (np.sqrt((n - j) * (n - j - 1.0)) + np.sqrt(j * (j + 1.0))) / n


def lmg_energy(n, m, h):
    """LMG energy (2/n)(m - hn/2)^2 - (n/2)(1 + h^2) of sector m at field h."""
    return (2.0 / n) * (m - h * n / 2.0) ** 2 - (n / 2.0) * (1.0 + h * h)


def lmg_ground_magnetization(n, h):
    """LMG ground sector at field h: n/2 less the crossing fields above h.

    This reads `lmg_crossings`; the tests compare it with the minimum of
    `lmg_energy` over the sectors, which checks the crossing list.
    """
    return n // 2 - int(np.count_nonzero(lmg_crossings(n) > h))


def h1_closed_form(n):
    """Second ring crossing field -1 + 2/(tan^2(pi/(2(n-1))) + 1) = cos(pi/(n-1)).

    Follows from the two-down-spin sector, whose rapidities are the
    antisymmetric pair +-tan(pi/(2(n-1))); for large n the gap below h_0 = 1
    approaches pi^2 / (2(n-1)^2).
    """
    t = math.tan(math.pi / (2.0 * (n - 1)))
    return -1.0 + 2.0 / (t * t + 1.0)


def bethe_residual(n, rapidities):
    """Largest absolute violation of the coupled rapidity equations.

    The rapidities ascend, and their count k gives the ground-state quantum
    numbers -(k-1)/2, ..., (k-1)/2.
    """
    x = np.asarray(rapidities, dtype=float)
    if x.size == 0:
        return 0.0
    quantum_numbers = np.arange(-0.5 * (x.size - 1), 0.5 * x.size)
    pair_sum = np.arctan(0.5 * (x[:, None] - x[None, :])).sum(axis=1)
    violation = 2.0 * n * np.arctan(x) - 2.0 * np.pi * quantum_numbers \
        - 2.0 * pair_sum
    return float(np.max(np.abs(violation)))
