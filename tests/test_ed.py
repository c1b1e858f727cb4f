"""Exact-diagonalization oracle tests."""

import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

import partialfid
from partialfid import (
    Comparison,
    ValidationReport,
    ed_sector_ground_energy,
    sector_hamiltonian,
    validate_bethe,
)
from partialfid.ed import VALIDATION_TOL, _sector_states


def literal_hamiltonian(n, n_down):
    """Dense sector Hamiltonian filled entry by entry: the reference builder.

    Walks every basis state and every ring bond (i, i+1 mod n) in Python, so
    it shares no vectorized step with `sector_hamiltonian`.
    """
    states = [s for s in range(1 << n) if s.bit_count() == n_down]
    index = {s: i for i, s in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    for s in states:
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


class TestBasis:
    def test_states_sorted_with_right_popcount(self):
        states = _sector_states(6, 2).tolist()
        assert len(states) == 15
        assert states == sorted(states)
        assert all(s.bit_count() == 2 for s in states)

    def test_empty_and_full(self):
        assert _sector_states(4, 0).tolist() == [0]
        assert _sector_states(4, 4).tolist() == [0b1111]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            _sector_states(5, 2)
        with pytest.raises(ValueError):
            _sector_states(4, 5)
        with pytest.raises(ValueError):
            _sector_states(4, -1)
        with pytest.raises(ValueError, match="64-bit"):
            _sector_states(64, 1)

    def test_matches_popcount_filter(self):
        for n in (2, 6, 10):
            for n_down in range(n + 1):
                expected = [s for s in range(1 << n) if s.bit_count() == n_down]
                assert _sector_states(n, n_down).tolist() == expected

    def test_small_sector_of_long_ring(self):
        # built from the sector alone: a filter over all 2^60 integers
        # could not run
        states = _sector_states(60, 2).tolist()
        assert len(states) == comb(60, 2)
        assert states[0] == 0b11
        assert states[-1] == 0b11 << 58
        assert states == sorted(set(states))
        assert all(s.bit_count() == 2 for s in states)


class TestHamiltonian:
    @pytest.mark.parametrize("n, n_down", [(2, 1), (8, 3), (10, 5)])
    def test_equals_literal_builder(self, n, n_down):
        h = sector_hamiltonian(n, n_down).matrix.toarray()
        assert np.array_equal(h, literal_hamiltonian(n, n_down))

    def test_two_site_ring_counts_bond_twice(self):
        # both bonds join the same pair, so the flip amplitude doubles
        h = sector_hamiltonian(2, 1).matrix.toarray()
        assert np.array_equal(h, [[-0.5, 1.0], [1.0, -0.5]])
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(-1.5, abs=1e-14)

    def test_four_site_half_filling(self):
        h = sector_hamiltonian(4, 2).matrix.toarray()
        assert h.shape == (6, 6)
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_eight_site_half_filling(self):
        h = sector_hamiltonian(8, 4).matrix.toarray()
        assert h.shape == (70, 70)
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(-3.6510934089, abs=1e-9)

    def test_exactly_symmetric(self):
        for n, n_down in [(6, 2), (8, 3), (10, 5)]:
            h = sector_hamiltonian(n, n_down).matrix.toarray()
            assert np.array_equal(h, h.T)

    def test_off_diagonal_row_sums_count_antiparallel_pairs(self):
        n, n_down = 8, 3
        h = sector_hamiltonian(n, n_down).matrix.toarray()
        off = np.abs(h - np.diag(np.diag(h))).sum(axis=1)
        for row, s in enumerate(_sector_states(n, n_down).tolist()):
            pairs = sum(((s >> i) & 1) != ((s >> ((i + 1) % n)) & 1)
                        for i in range(n))
            assert off[row] == pytest.approx(0.5 * pairs, abs=1e-14)

    def test_dimension_cap(self):
        # refused before any state is built
        with pytest.raises(ValueError, match="705432"):
            sector_hamiltonian(22, 11)

    def test_nbytes_counts_the_sparse_arrays(self):
        h = sector_hamiltonian(10, 5)
        m = h.matrix
        # one diagonal entry per state plus one per antiparallel bond
        nonzeros = sum(1 + sum(((s >> i) ^ (s >> ((i + 1) % 10))) & 1
                               for i in range(10))
                       for s in _sector_states(10, 5).tolist())
        assert m.nnz == nonzeros
        assert h.nbytes == m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert h.nbytes < literal_hamiltonian(10, 5).nbytes


class TestGroundEnergy:
    def test_polarized_sector_is_classical(self):
        # aligned ring is an eigenstate: n/4
        assert ed_sector_ground_energy(8, 0) == pytest.approx(2.0, abs=1e-14)
        # one down spin lowers it by 2, the Zeeman gap 2h at saturation h = 1
        assert ed_sector_ground_energy(8, 1) - ed_sector_ground_energy(8, 0) \
            == pytest.approx(-2.0, abs=1e-12)

    def test_half_filling_at_zero_field(self):
        assert ed_sector_ground_energy(4, 2) == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("n, n_down", [(2, 1), (6, 1), (10, 3), (12, 6)])
    def test_lanczos_matches_dense_spectrum(self, n, n_down):
        # (2, 1) has two states and takes the dense route; the rest go
        # through Lanczos from the fixed start vector
        lowest = np.linalg.eigvalsh(literal_hamiltonian(n, n_down))[0]
        assert ed_sector_ground_energy(n, n_down) == pytest.approx(
            lowest, abs=1e-12)


class TestComparison:
    def test_difference_and_passed_columns(self):
        tol = VALIDATION_TOL
        bethe = np.array([-2.0, 0.3, tol, np.nextafter(tol, 0.0), 1.0])
        ed = np.array([-2.0, 0.3 + 1e-6, 0.0, 0.0, 1.0 - 2.0 * tol])
        table = Comparison(bethe, ed)
        assert np.array_equal(table.difference, np.abs(bethe - ed))
        assert table.difference[2] == tol
        # strictly below the tolerance: a row exactly at it fails
        assert table.passed.tolist() == [True, False, False, True, False]
        assert np.array_equal(table.passed, table.difference < tol)
        assert len(table) == 5

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Comparison(np.zeros(3), np.zeros(2))

    def test_report_passes_only_when_every_row_passes(self):
        good = Comparison(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        bad = Comparison(np.array([1.0]), np.array([1.5]))
        assert ValidationReport(4, good, good).passed is True
        assert ValidationReport(4, good, bad).passed is False
        assert ValidationReport(4, bad, good).passed is False


class TestValidation:
    def test_eight_spins_all_sectors_agree(self):
        report = validate_bethe(8)
        assert report.passed
        assert len(report.sectors) == 5
        assert np.all(report.sectors.difference < 1e-8)
        assert report.sectors.passed.all() and report.crossings.passed.all()

    def test_twelve_spins_with_crossings(self):
        report = validate_bethe(12)
        assert report.passed
        assert len(report.sectors) == 7
        assert len(report.crossings) == 6
        assert np.all(report.crossings.difference < 1e-8)

    def test_four_spins_saturation_field(self):
        report = validate_bethe(4)
        assert report.passed
        assert report.crossings.bethe[0] == pytest.approx(1.0, abs=1e-10)
        assert report.crossings.ed[0] == pytest.approx(1.0, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            validate_bethe(2)
        with pytest.raises(ValueError):
            validate_bethe(9)
        with pytest.raises(ValueError, match="above the cap"):
            validate_bethe(22)


def test_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse is imported only when a sector is built
    src = str(Path(partialfid.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r}); import partialfid; "
              "sys.exit('scipy.sparse' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or "scipy.sparse was loaded"
