"""LMG model tests: crossings against the sector energies, curves, chi_max."""

import math

import numpy as np
import pytest

from oracles import (
    composed_fidelity,
    lmg_energy,
    lmg_fidelity,
    lmg_ground_magnetization,
)
from partialfid import (
    crossing_fidelity,
    lmg_chi_max,
    lmg_crossings,
    lmg_curve,
)


class TestEnergy:
    @pytest.mark.parametrize("n, m, h, expected", [
        (4, 2, 1.0, -4.0),
        (4, 0, 0.0, -2.0),
        (4, 2, 0.0, 0.0),
    ])
    def test_direct_values(self, n, m, h, expected):
        assert lmg_energy(n, m, h) == expected

    def test_degenerate_at_crossing(self):
        for n in (4, 10, 64):
            for j, h in enumerate(lmg_crossings(n).tolist()):
                above = lmg_energy(n, n // 2 - j, h)
                below = lmg_energy(n, n // 2 - j - 1, h)
                assert above == pytest.approx(below, rel=1e-12, abs=1e-12)


class TestGroundMagnetization:
    """The ground sector read off the crossing list (`lmg_ground_magnetization`)."""

    def test_saturated_phase(self):
        assert lmg_ground_magnetization(100, 1.2) == 50
        assert lmg_ground_magnetization(100, 1.0) == 50

    def test_rounds_to_nearest(self):
        # h n/2 = 4.75 -> 5, despite the integer part being 4
        assert lmg_ground_magnetization(10, 0.95) == 5
        # h = 0.85 and h = 0.95 straddle h_0 = 0.9 of n = 10
        assert (lmg_ground_magnetization(10, 0.85),
                lmg_ground_magnetization(10, 0.95)) == (4, 5)
        assert lmg_ground_magnetization(100, 0.513) == 26

    def test_tie_takes_larger_sector(self):
        # h = 0.75 is the first crossing of n = 4 (h n/2 exactly 1.5)
        assert lmg_ground_magnetization(4, 0.75) == 2
        assert lmg_ground_magnetization(4, 0.25) == 1

    def test_agrees_with_emitted_crossing_fields(self):
        # at every field lmg_crossings emits the larger sector wins, and one
        # ulp below it the smaller one, for all N <= 1000
        for n in range(2, 1001, 2):
            for j, h in enumerate(lmg_crossings(n).tolist()):
                assert lmg_ground_magnetization(n, h) == n // 2 - j
                below = math.nextafter(h, -math.inf)
                assert lmg_ground_magnetization(n, below) == n // 2 - j - 1

    def test_matches_energy_argmin_on_dense_grid(self):
        for n in (4, 10, 48, 200):
            crossing_fields = set(lmg_crossings(n).tolist())
            for h in np.linspace(0.0, 1.1, 431):
                if any(abs(h - hc) < 1e-9 for hc in crossing_fields):
                    continue  # argmin ambiguous only exactly at a crossing
                energies = [lmg_energy(n, m, h) for m in range(n // 2 + 1)]
                assert lmg_ground_magnetization(n, h) == int(np.argmin(energies))


class TestCrossings:
    def test_ten_spins(self):
        fields = lmg_crossings(10).tolist()
        assert fields == pytest.approx([0.9, 0.7, 0.5, 0.3, 0.1], abs=1e-15)

    def test_four_spins(self):
        assert lmg_crossings(4).tolist() == [0.75, 0.25]

    def test_two_spins(self):
        assert lmg_crossings(2).tolist() == [0.5]
        curve = lmg_curve(2)
        assert (curve.h.tolist(), (2 // 2 - np.arange(len(curve))).tolist()) == ([0.5], [1])

    def test_sectors_and_ordering(self):
        for n in (2, 8, 30, 256):
            fields = lmg_crossings(n)
            assert len(fields) == n // 2
            assert fields[-1] == pytest.approx(1.0 / n, rel=1e-15)
            assert np.all(fields[:-1] > fields[1:])
            curve = lmg_curve(n)
            assert len(curve) == n // 2
            assert np.array_equal(curve.h, fields)

    @pytest.mark.parametrize("n", [7, 0, -2])
    def test_domain_errors(self, n):
        with pytest.raises(ValueError, match="number of spins"):
            lmg_crossings(n)


class TestCurve:
    def test_four_spin_values(self):
        curve = lmg_curve(4)
        assert len(curve) == 2
        assert curve.fidelity[0] == pytest.approx(math.sqrt(12.0) / 4.0,
                                                  abs=1e-15)
        assert curve.delta_h[0] == 0.5
        assert curve.chi[0] == pytest.approx(
            -8.0 * math.log(math.sqrt(12.0) / 4.0), rel=1e-14)
        assert curve.fidelity[1] == pytest.approx(
            (math.sqrt(6) + math.sqrt(2)) / 4.0, abs=1e-15)
        assert curve.chi[1] == pytest.approx(-8.0 * math.log(curve.fidelity[1]),
                                             rel=1e-14)

    def test_uniform_spacing(self):
        curve = lmg_curve(100)
        assert len(curve.delta_h) == len(curve) == 50
        assert np.all(curve.delta_h == 2.0 / 100)

    def test_curve_fidelities_match_closed_form(self):
        for n in (*range(2, 201, 2), 1000, 4096):
            f = lmg_curve(n).fidelity
            closed = lmg_fidelity(n, np.arange(n // 2))
            assert np.max(np.abs(f - closed) / closed) <= 1e-12

    def test_closed_form_equals_composition(self):
        # the closed form against the library and against the definition
        for n in (2, 4, 26, 1000):
            j = np.arange(n // 2)
            closed = lmg_fidelity(n, j)
            for composed in (crossing_fidelity(n, j), composed_fidelity(n, j)):
                assert np.max(np.abs(closed - composed) / closed) <= 1e-12

    def test_minimum_at_first_crossing(self):
        for n in (4, 16, 210):
            curve = lmg_curve(n)
            assert np.argmin(curve.fidelity) == 0
            assert np.argmax(curve.chi) == 0

    def test_minimum_rises_with_size(self):
        previous = 0.0
        for n in (4, 8, 16, 32, 64, 128):
            smallest = lmg_curve(n).fidelity.min()
            assert smallest == pytest.approx(math.sqrt(1.0 - 1.0 / n), abs=1e-15)
            assert smallest > previous
            previous = smallest


class TestChiMax:
    def test_hundred_spins(self):
        chi = lmg_chi_max(100)
        assert chi == pytest.approx(-2500.0 * math.log(0.99), rel=1e-14)
        assert 4.0 * chi / 100 == pytest.approx(1.00503, abs=5e-6)

    def test_matches_curve_maximum(self):
        for n in (4, 10, 64, 1024):
            curve_max = lmg_curve(n).chi.max()
            assert lmg_chi_max(n) == pytest.approx(curve_max, rel=1e-11)

    def test_large_n_asymptote(self):
        # ratio 4 chi / n = 1 + 1/(2n) + O(1/n^2), so it decreases toward 1
        ratios = [4.0 * lmg_chi_max(n) / n for n in (4096, 2**16, 2**24, 2**40)]
        assert all(r > 1.0 for r in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-11)

    def test_asymptote_within_a_thousandth_beyond_2048(self):
        for n in (2048, 4096, 8192):
            assert 0.0 < 4.0 * lmg_chi_max(n) / n - 1.0 < 1e-3
