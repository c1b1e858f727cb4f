"""Sparse exact-diagonalization oracle for Heisenberg rings up to N = 20.

Builds the Hamiltonian of one fixed-magnetization sector in the bit-string
basis (a set bit is a down spin) as a sparse CSR matrix and takes its lowest
eigenvalue by Lanczos iteration, providing ground-state energies that are
independent of the Bethe-Ansatz route.  Used to validate sector energies,
crossing fields, and full curves at desk scale; the Zeeman part commutes
with the sector projection, so energies are taken at zero field.  Sectors
above `DIMENSION_CAP` states are refused, and a Bethe value passes
validation when it lies within `VALIDATION_TOL` of its ED value.  The
eigenvalue's last bits depend on the BLAS thread count (up to 1.3e-14 at
n = 18-20), so a validation table is bit-identical only between runs with
the same number of threads.

The ring sum runs literally over bonds (i, i+1 mod n), so n = 2 counts its
single bond twice; n = 2 is therefore excluded from validation.

`scipy.sparse` is imported inside the functions that use it, so importing
the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import bethe
from .fidelity import _check_range, _check_size

DIMENSION_CAP = 200_000  # covers n = 20 at half filling (184,756)
# The worst Bethe-vs-ED row over n = 4-20 is 6.75e-14 (energy, n = 12) at
# one and two BLAS threads, 15 times below this bound.
VALIDATION_TOL = 1e-12

_NO_STATES = np.zeros(0, dtype=np.int64)


def _sector_states(n, n_down):
    """Ascending n-bit integers with exactly n_down set bits (int64 array).

    Adds one bit at a time as the new highest bit: the m+1-bit integers with
    k set bits are the m-bit ones with k set bits, followed by 2^m plus the
    m-bit ones with k - 1 set bits, so every list stays ascending.  Only the
    counts k that can still reach n_down are kept, so the work is a few
    times the sector dimension, never 2^n.  Sectors above `DIMENSION_CAP`
    states are refused before any is built.
    """
    _check_range(n, "n_down", n_down, lambda size: (0, size))
    if n > 62:
        raise ValueError(f"states are 64-bit integers: ring length must be "
                         f"<= 62, got {n}")
    dim = comb(n, n_down)
    if dim > DIMENSION_CAP:
        raise ValueError(
            f"sector (n={n}, n_down={n_down}) has dimension {dim}, "
            f"above the cap of {DIMENSION_CAP}"
        )
    levels = {0: np.zeros(1, dtype=np.int64)}
    for m in range(n):
        keep = range(max(0, n_down - (n - m - 1)), min(n_down, m + 1) + 1)
        levels = {k: np.concatenate((levels.get(k, _NO_STATES),
                                     (1 << m) | levels.get(k - 1, _NO_STATES)))
                  for k in keep}
    return levels[n_down]


@dataclass(frozen=True)
class SectorHamiltonian:
    """Exchange part of one sector as a scipy CSR matrix (`matrix`).

    Rows and columns follow the ascending basis of `_sector_states`.
    """

    matrix: object

    @property
    def nbytes(self):
        """Bytes held by the CSR arrays (values, column indices, row pointers)."""
        m = self.matrix
        return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def sector_hamiltonian(n, n_down):
    """Exchange part of the ring Hamiltonian in the (n, n_down) sector.

    Diagonal entries are sum_i s_i s_{i+1} with s = +-1/2; each antiparallel
    neighbor pair contributes an off-diagonal 1/2 to the configuration with
    that pair exchanged (periodic boundary), located in the sorted basis by
    binary search.  Returns a `SectorHamiltonian` holding a symmetric CSR
    matrix.
    """
    states = _sector_states(n, n_down)
    dim = states.size
    from scipy.sparse import csr_array

    diagonal = np.full(dim, 0.25 * n)
    rows, cols = [np.arange(dim)], [np.arange(dim)]
    for i in range(n):
        j = (i + 1) % n
        antiparallel = np.flatnonzero(((states >> i) ^ (states >> j)) & 1)
        diagonal[antiparallel] -= 0.5
        flipped = states[antiparallel] ^ ((1 << i) | (1 << j))
        rows.append(antiparallel)
        cols.append(np.searchsorted(states, flipped))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    values = np.full(rows.size, 0.5)
    values[:dim] = diagonal
    # the n = 2 ring yields each flip twice; the conversion sums duplicates
    matrix = csr_array((values, (rows, cols)), shape=(dim, dim))
    return SectorHamiltonian(matrix)


def _lowest_eigenvalue(matrix):
    """Lowest eigenvalue of a symmetric sparse matrix.

    Lanczos (ARPACK `eigsh`) from a fixed random start vector, so repeated
    runs with the same BLAS thread count give identical bits.  ARPACK needs
    k < dimension, so the one- and two-state sectors are diagonalized densely.
    """
    dim = matrix.shape[0]
    if dim <= 2:
        return np.linalg.eigvalsh(matrix.toarray())[0]
    from scipy.sparse.linalg import eigsh

    start = np.random.default_rng(0).standard_normal(dim)
    return eigsh(matrix, k=1, which="SA", v0=start,
                 return_eigenvectors=False)[0]


def ed_sector_ground_energy(n, n_down):
    """Sector ground energy at zero field; a field h adds -(n - 2 n_down) h."""
    return float(_lowest_eigenvalue(sector_hamiltonian(n, n_down).matrix))


@dataclass(frozen=True, eq=False)
class Comparison:
    """Bethe against ED values of one table, as numpy columns.

    `difference` = |bethe - ed| and `passed` = difference < VALIDATION_TOL
    are computed at construction.  The row index is implicit: n_down for
    sector energies, j for crossing fields.
    """

    bethe: np.ndarray
    ed: np.ndarray
    difference: np.ndarray = field(init=False)
    passed: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.bethe) != len(self.ed):
            raise ValueError("columns bethe and ed must have equal lengths")
        difference = np.abs(self.bethe - self.ed)
        object.__setattr__(self, "difference", difference)
        object.__setattr__(self, "passed", difference < VALIDATION_TOL)

    def __len__(self):
        return len(self.bethe)


@dataclass(frozen=True)
class ValidationReport:
    """Sector energies at h = 0 and crossing fields of one ring, Bethe vs ED."""

    n: int
    sectors: Comparison
    crossings: Comparison

    @property
    def passed(self):
        return bool(self.sectors.passed.all() and self.crossings.passed.all())


def _check_ring(n):
    """Reject a ring that `validate_bethe` cannot take.

    The ring must be even with n >= 4, and its largest sector, half filling,
    must lie within `DIMENSION_CAP` states.
    """
    _check_size(n, floor=4)
    if comb(n, n // 2) > DIMENSION_CAP:
        raise ValueError(
            f"half filling of n={n} has dimension {comb(n, n // 2)}, "
            f"above the cap of {DIMENSION_CAP}"
        )


def validate_bethe(n):
    """Compare every sector of an n-spin ring against exact diagonalization.

    Compares the ground energies at h = 0 of n_down = 0 ... n/2, and the n/2
    crossing fields recomputed from the ED energies against the Bethe route.
    Every row is compared; a failure does not stop the run.
    """
    _check_ring(n)
    sectors = range(n // 2 + 1)
    energies_bethe = np.array([n / 4.0 - bethe.sector_epsilon(
        bethe.solve_bethe(n, k)) for k in sectors])
    energies_ed = np.array([ed_sector_ground_energy(n, k) for k in sectors])
    # E(n_down, 0) = n/4 - epsilon(n_down), so the crossing field
    # (epsilon(j+1) - epsilon(j))/2 is half the ED energy drop.
    fields_ed = 0.5 * (energies_ed[:-1] - energies_ed[1:])
    return ValidationReport(
        n, Comparison(energies_bethe, energies_ed),
        Comparison(bethe.heisenberg_crossings(n), fields_ed))
