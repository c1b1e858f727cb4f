"""Interior crossings of large systems against their large-N limits.

Near saturation every crossing of the ring scales like the maximum,
chi_j -> c_j N^3; at a fixed field chi tends to the thermodynamic-limit
susceptibility chi_inf(h) of each model.  The limits are computed here with
numpy alone and no library function.
"""

import math

import numpy as np
import pytest

from partialfid import heisenberg_curve, lmg_curve

RING_SIZES = (128, 256, 512, 1024)


@pytest.fixture(scope="module")
def ring_curves():
    """Curves of the ring at each size of RING_SIZES (about 2.5 s in all)."""
    return {n: heisenberg_curve(n) for n in RING_SIZES}


def doubling_factors(values):
    """Ratio of each value to the next, for values at sizes N, 2N, 4N, ..."""
    values = np.asarray(values)
    return values[:-1] / values[1:]


class TestSaturationScaling:
    """chi_j / N^3 -> c_j = 4 (sqrt(j+1) - sqrt(j))^2 / (pi^4 (j+1)^2).

    Near saturation h_j = 1 - pi^2 j (j+1) / (4 N^2) + ..., so
    delta_h_j ~ pi^2 (j+1) / (2 N^2), and -2 ln F_j ~ (sqrt(j+1) - sqrt(j))^2 / N;
    j = 0 gives the paper's 4 N^3 / pi^4.
    """

    @staticmethod
    def shortfall(curve, j):
        """1 - chi_j / (c_j N^3) of one curve."""
        n = curve.n
        c_j = 4.0 * (math.sqrt(j + 1) - math.sqrt(j)) ** 2 / (
            math.pi ** 4 * (j + 1) ** 2)
        return 1.0 - curve.chi[j] / (c_j * n ** 3)

    @pytest.mark.parametrize("j", range(6))
    def test_shortfall_halves_per_doubling(self, ring_curves, j):
        # measured factors 1.89-2.00 over N = 128-1024
        shortfalls = [self.shortfall(ring_curves[n], j) for n in RING_SIZES]
        assert all(s > 0.0 for s in shortfalls), shortfalls
        for factor in doubling_factors(shortfalls):
            assert 1.85 <= factor <= 2.05, shortfalls

    def test_maximum_approaches_seven_halves_over_n(self, ring_curves):
        # chi_max = (4 N^3 / pi^4) (1 - 7/(2N) + ...); N times the shortfall
        # measured 3.454, 3.477, 3.488 and 3.494 at N = 128-1024
        n = 1024
        assert n * self.shortfall(ring_curves[n], 0) == pytest.approx(
            3.5, abs=0.01)


def ring_magnetization(h, nodes=80):
    """<sigma^z> of the infinite ring at field 0 < h < 1, in the code's units.

    With rapidities x = 2 lambda and a_n(lambda) = (n/2) / (pi (lambda^2 + n^2/4)),
    the dressed energy solves eps + a_2 * eps = 2h - pi a_1 on [-B, B] with
    eps(+-B) = 0, which fixes B, and the root density solves
    rho + a_2 * rho = a_1 there (Griffiths, Phys. Rev. 133, A768 (1964);
    Takahashi, Thermodynamics of One-Dimensional Solvable Models, ch. 4).
    Both are solved by Nystrom on Gauss-Legendre nodes, B by bisection.
    Returns 1 - 2 int rho.
    """
    def a(n, lam):
        return 0.5 * n / (math.pi * (lam * lam + 0.25 * n * n))

    t, w = np.polynomial.legendre.leggauss(nodes)

    def system(b):
        lam, weight = b * t, b * w
        return lam, weight, np.eye(nodes) + a(2, lam[:, None] - lam) * weight

    def edge_energy(b):
        lam, weight, matrix = system(b)
        eps = np.linalg.solve(matrix, 2.0 * h - math.pi * a(1, lam))
        return 2.0 * h - math.pi * a(1, b) - np.dot(a(2, b - lam) * weight, eps)

    low, high = 0.0, 1.0  # eps(B) < 0 below the Fermi point B, > 0 above it
    while edge_energy(high) < 0.0:
        low, high = high, 2.0 * high
    for _ in range(60):
        middle = 0.5 * (low + high)
        if edge_energy(middle) < 0.0:
            low = middle
        else:
            high = middle
    lam, weight, matrix = system(0.5 * (low + high))
    rho = np.linalg.solve(matrix, a(1, lam))
    return 1.0 - 2.0 * np.dot(weight, rho)


def ring_chi_limit(h, dh=1e-4):
    """chi_inf(h) = sigma'(h)^2 / (4 (1 - sigma(h)^2)) of the infinite ring.

    0.074072, 0.111901 and 0.224293 at h = 0.3, 0.5 and 0.7.
    """
    slope = (ring_magnetization(h + dh) - ring_magnetization(h - dh)) / (2.0 * dh)
    sigma = ring_magnetization(h)
    return slope * slope / (4.0 * (1.0 - sigma * sigma))


class TestThermodynamicLimit:
    """Adjacent sectors differ in <sigma^z> by 2/N, so chi -> sigma'^2 / (4 (1 - sigma^2))."""

    def test_lmg_approaches_its_limit_as_one_over_n_squared(self):
        # LMG has sigma = h: chi_inf = 1/(4 (1 - h^2)); measured worst gaps
        # 1.25e-4, 3.20e-5, 8.13e-6 and 2.05e-6 at N = 500-4000
        gaps = []
        for n in (500, 1000, 2000, 4000):
            curve = lmg_curve(n)
            inside = (curve.h > 0.05) & (curve.h < 0.9)
            h = curve.h[inside]
            gaps.append(np.max(np.abs(curve.chi[inside]
                                      - 1.0 / (4.0 * (1.0 - h * h)))))
        for factor in doubling_factors(gaps):
            assert 3.2 <= factor <= 4.2, gaps

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_ring_approaches_its_limit_as_one_over_n(self, ring_curves, h):
        # chi at the row whose spacing midpoint is nearest h, against chi_inf
        # at that midpoint; measured factors 1.89-2.10 (5.23e-4 to 6.22e-5
        # at h = 0.5)
        gaps = []
        for n in RING_SIZES:
            curve = ring_curves[n]
            midpoints = curve.h[:len(curve.delta_h)] - 0.5 * curve.delta_h
            j = int(np.argmin(np.abs(midpoints - h)))
            gaps.append(abs(curve.chi[j] - ring_chi_limit(midpoints[j])))
        for factor in doubling_factors(gaps):
            assert 1.7 <= factor <= 2.3, gaps
