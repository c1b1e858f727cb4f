"""Scaling analysis tests: power-law fits, chi_max scans, curve minima."""

import math

import numpy as np
import pytest

from partialfid import (
    bethe,
    chi_max_scan,
    crossing_fidelity,
    crossing_susceptibility,
    fit_power_law,
    heisenberg_curve,
    lmg_chi_max,
    lmg_curve,
    sector_epsilon,
    solve_bethe,
)


class TestFitPowerLaw:
    def test_exact_cubic(self):
        fit = fit_power_law([(10, 1000), (20, 8000), (40, 64000)])
        assert fit.exponent == pytest.approx(3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.log_prefactor == pytest.approx(0.0, abs=1e-10)
        assert fit.points_used == 3

    def test_lmg_chi_max_is_nearly_linear(self):
        points = [(n, lmg_chi_max(n)) for n in (64, 128, 256, 512)]
        fit = fit_power_law(points)
        assert abs(fit.exponent - 0.997) < 0.003
        assert fit.r_squared > 0.999999

    def test_heisenberg_chi_max_is_nearly_cubic(self):
        points = [(n, chi) for n, _, chi in
                  chi_max_scan("heisenberg", (64, 128, 256, 512, 1024))]
        fit = fit_power_law(points)
        assert abs(fit.exponent - 3.02) < 0.02

    def test_heisenberg_chi_max_approaches_quartic_gap_form(self):
        # chi_max relative to -8(N-1)^4 ln(sqrt(1-1/N)) / pi^4 decreases
        # toward 1 as the crossing gap approaches pi^2/(2(N-1)^2)
        ratios = []
        for n, _, chi in chi_max_scan("heisenberg", (32, 64, 128, 256, 512)):
            scale = 8.0 * (n - 1) ** 4 / math.pi**4 \
                * -math.log(math.sqrt(1.0 - 1.0 / n))
            ratios.append(chi / scale)
        assert all(a > b > 1.0 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("points", [
        [(10, 1000), (20, 8000)],
        [(10, 1000), (20, 8000), (20, 64000)],
        [(10, 1000), (-20, 8000), (40, 64000)],
        [(10, 0.0), (20, 8000), (40, 64000)],
    ])
    def test_domain_errors(self, points):
        with pytest.raises(ValueError):
            fit_power_law(points)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("position", ["size", "value"])
    def test_non_finite_points(self, capfd, bad, position):
        # unchecked, a bad value gives exponent nan with r^2 = 1, and a bad
        # size a LinAlgError after LAPACK prints to stderr
        last = (bad, 3.0) if position == "size" else (3.0, bad)
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([(1.0, 1.0), (2.0, 2.0), last])
        assert capfd.readouterr() == ("", "")


class TestChiMaxScan:
    def test_lmg_values(self):
        rows = chi_max_scan("lmg", (4, 100))
        assert rows[0] == (4, 0.75, pytest.approx(lmg_chi_max(4), rel=1e-15))
        n, h, chi = rows[1]
        assert (n, h) == (100, 0.99)
        assert chi == pytest.approx(-2500.0 * math.log(0.99), rel=1e-13)

    def test_heisenberg_small_ring(self):
        ((n, h, chi),) = chi_max_scan("heisenberg", (8,))
        assert n == 8
        assert h == pytest.approx(1.0, abs=1e-10)
        assert chi == pytest.approx(13.61569739358725, rel=1e-9)

    def test_scan_matches_full_curve_maximum(self):
        for model, build in (("lmg", lmg_curve), ("heisenberg", heisenberg_curve)):
            ((_, h, chi),) = chi_max_scan(model, (12,))
            curve = build(12)
            best = np.argmax(curve.chi)
            assert h == pytest.approx(curve.h[best], rel=1e-12)
            assert chi == pytest.approx(curve.chi[best], rel=1e-10)

    def test_sizes_sorted_and_deduplicated(self):
        rows = chi_max_scan("lmg", (8, 4, 8))
        assert [r[0] for r in rows] == [4, 8]

    def test_rows_equal_per_size_scalar_route(self):
        sizes = list(range(4, 301, 2)) + [1024, 4096, 8192]
        expected = []
        for n in sizes:
            e0, e1, e2 = (sector_epsilon(solve_bethe(n, k)) for k in range(3))
            h0, h1 = 0.5 * (e1 - e0), 0.5 * (e2 - e1)
            f = crossing_fidelity(n, 0)
            expected.append((n, h0, float(crossing_susceptibility(f, h0 - h1))))
        assert chi_max_scan("heisenberg", sizes) == expected

    def test_rows_equal_curve_route(self):
        # the batched scan against the curve, bit for bit, at every even N
        sizes = range(4, 65, 2)
        for n, h, chi in chi_max_scan("heisenberg", sizes):
            curve = heisenberg_curve(n)
            assert (h, chi) == (curve.h[0], curve.chi[0]), n

    def test_three_solves_per_distinct_size(self, monkeypatch):
        calls = []

        def counted(n, n_down, start=None):
            calls.append((n, n_down))
            return solve_bethe(n, n_down, start)

        monkeypatch.setattr(bethe, "solve_bethe", counted)
        sizes = [64, 8, 64, 10, 8192, 8]
        chi_max_scan("heisenberg", sizes)
        assert sorted(calls) == [(n, k) for n in sorted(set(sizes))
                                 for k in range(3)]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi_max_scan("ising", (8,))
        with pytest.raises(ValueError):
            chi_max_scan("lmg", (7,))
        with pytest.raises(ValueError):
            chi_max_scan("heisenberg", (2,))
        with pytest.raises(ValueError):
            chi_max_scan("lmg", ())

    @pytest.mark.parametrize("model", ["lmg", "heisenberg"])
    def test_non_integer_size_rejected(self, model):
        # truncating would return a row for N = 64
        with pytest.raises(ValueError, match="64.5"):
            chi_max_scan(model, [64.5, 128, 256])


class TestMinFidelity:
    def test_lmg_four_spins(self):
        curve = lmg_curve(4)
        assert np.argmin(curve.fidelity) == 0
        assert curve.h[0] == 0.75
        assert curve.fidelity.min() == pytest.approx(math.sqrt(3.0) / 2.0,
                                                     abs=1e-15)

    def test_lmg_thirty_two_spins(self):
        curve = lmg_curve(32)
        assert np.argmin(curve.fidelity) == 0
        assert curve.h[0] == pytest.approx(0.96875, abs=1e-15)
        assert curve.fidelity.min() == pytest.approx(math.sqrt(31.0 / 32.0),
                                                     abs=1e-15)

    def test_heisenberg_eight_spins(self):
        curve = heisenberg_curve(8)
        assert np.argmin(curve.fidelity) == 0
        assert curve.h[0] == pytest.approx(1.0, abs=1e-10)
        assert curve.fidelity.min() == pytest.approx(math.sqrt(7.0 / 8.0),
                                                     abs=1e-13)

    def test_minimum_sits_at_first_crossing_for_both_models(self):
        for build in (lmg_curve, heisenberg_curve):
            for n in (12, 16, 20):
                assert np.argmin(build(n).fidelity) == 0
