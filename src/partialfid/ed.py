"""Dense exact-diagonalization oracle for small Heisenberg rings.

Builds the Hamiltonian of one fixed-magnetization sector in the bit-string
basis (a set bit is a down spin) and diagonalizes it, providing ground-state
energies that are independent of the Bethe-Ansatz route.  Used to validate
sector energies, crossing fields, and full curves at desk scale; the Zeeman
part commutes with the sector projection and is added analytically.

The ring sum runs literally over bonds (i, i+1 mod n), so n = 2 counts its
single bond twice; n = 2 is therefore excluded from validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.linalg import eigvalsh

from . import bethe

DEFAULT_DIMENSION_CAP = 4000  # covers n = 14 at half filling (dimension 3432)
DEFAULT_VALIDATION_TOL = 1e-8


@dataclass(frozen=True)
class SectorBasis:
    """Bit-string basis of the (n, n_down) sector, ascending by integer value."""

    n: int
    n_down: int
    states: tuple

    def __post_init__(self):
        if len(self.states) != self.dimension:
            raise ValueError(
                f"expected {self.dimension} states, got {len(self.states)}"
            )

    @property
    def dimension(self):
        return comb(self.n, self.n_down)


def sector_basis(n, n_down):
    """Enumerate all n-bit configurations with exactly n_down set bits."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"ring length must be even and >= 2, got {n}")
    if not 0 <= n_down <= n:
        raise ValueError(f"n_down must lie in [0, {n}], got {n_down}")
    states = tuple(s for s in range(1 << n) if s.bit_count() == n_down)
    return SectorBasis(n, n_down, states)


def sector_hamiltonian(n, n_down, cap=DEFAULT_DIMENSION_CAP):
    """Exchange part of the ring Hamiltonian in the (n, n_down) sector.

    Diagonal entries are sum_i s_i s_{i+1} with s = +-1/2; each antiparallel
    neighbor pair contributes an off-diagonal 1/2 to the configuration with
    that pair exchanged (periodic boundary).  Returns a dense symmetric
    matrix.
    """
    dim = comb(n, n_down)
    if dim > cap:
        raise ValueError(
            f"sector (n={n}, n_down={n_down}) has dimension {dim}, "
            f"above the cap of {cap}"
        )
    basis = sector_basis(n, n_down)
    index = {s: i for i, s in enumerate(basis.states)}
    h = np.zeros((dim, dim))
    for s in basis.states:
        row = index[s]
        diagonal = 0.0
        for i in range(n):
            j = (i + 1) % n
            if ((s >> i) & 1) == ((s >> j) & 1):
                diagonal += 0.25
            else:
                diagonal -= 0.25
                flipped = s ^ (1 << i) ^ (1 << j)
                h[index[flipped], row] += 0.5
        h[row, row] += diagonal
    return h


def ed_sector_ground_energy(n, n_down, h, cap=DEFAULT_DIMENSION_CAP):
    """Lowest sector eigenvalue plus the analytic Zeeman shift -h(n - 2 n_down)."""
    matrix = sector_hamiltonian(n, n_down, cap=cap)
    lowest = eigvalsh(matrix, subset_by_index=(0, 0))[0]
    return float(lowest) - h * (n - 2 * n_down)


@dataclass(frozen=True)
class SectorComparison:
    """Bethe vs ED ground energy of one sector at h = 0."""

    n: int
    n_down: int
    energy_bethe: float
    energy_ed: float
    difference: float
    passed: bool


@dataclass(frozen=True)
class CrossingComparison:
    """Bethe vs ED crossing field for one adjacent sector pair."""

    n: int
    index: int
    field_bethe: float
    field_ed: float
    difference: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    """All sector and crossing comparisons for one ring length."""

    n: int
    sectors: tuple
    crossings: tuple
    passed: bool

    def failures(self):
        return [c for c in self.sectors + self.crossings if not c.passed]


def validate_bethe(n, tol=DEFAULT_VALIDATION_TOL, cap=DEFAULT_DIMENSION_CAP,
                   solver_tol=bethe.DEFAULT_TOL,
                   max_iter=bethe.DEFAULT_MAX_ITER):
    """Compare every sector of an n-spin ring against exact diagonalization.

    Checks |E_bethe - E_ed| at h = 0 for n_down = 0 ... n/2 and the crossing
    fields recomputed from ED energies against the Bethe route.  Collects all
    comparisons rather than stopping at the first failure.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"validation needs an even ring length >= 4, got {n}")
    if comb(n, n // 2) > cap:
        raise ValueError(
            f"half filling of n={n} has dimension {comb(n, n // 2)}, "
            f"above the cap of {cap}"
        )

    energies_bethe = []
    energies_ed = []
    sectors = []
    for n_down in range(n // 2 + 1):
        e_bethe = bethe.sector_energy(n, n_down, 0.0, tol=solver_tol,
                                      max_iter=max_iter)
        e_ed = ed_sector_ground_energy(n, n_down, 0.0, cap=cap)
        difference = abs(e_bethe - e_ed)
        energies_bethe.append(e_bethe)
        energies_ed.append(e_ed)
        sectors.append(SectorComparison(
            n, n_down, e_bethe, e_ed, difference, difference < tol
        ))

    # E(n_down, 0) = n/4 - epsilon(n_down), so the crossing field
    # (epsilon(j+1) - epsilon(j))/2 is half the ED energy drop.
    crossings_bethe = bethe.heisenberg_crossings(
        n, tol=solver_tol, max_iter=max_iter
    )
    crossings = []
    for j in range(n // 2):
        field_ed = 0.5 * (energies_ed[j] - energies_ed[j + 1])
        field_bethe = crossings_bethe[j].field
        difference = abs(field_bethe - field_ed)
        crossings.append(CrossingComparison(
            n, j, field_bethe, field_ed, difference, difference < tol
        ))

    passed = all(c.passed for c in sectors) and all(c.passed for c in crossings)
    return ValidationReport(n, tuple(sectors), tuple(crossings), passed)
