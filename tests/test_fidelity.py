"""Kernel tests: probability pairs, Bhattacharyya fidelity, susceptibility, curves."""

import math

import numpy as np
import pytest

from partialfid import (
    Curve,
    bhattacharyya_fidelity,
    crossing_fidelity,
    crossing_susceptibility,
    fidelity_curve,
    heisenberg_curve,
    lmg_crossings,
    lmg_curve,
    single_site_state,
)


class TestDiagonalState:
    """Checks and renormalization of the probability pairs of one site."""

    def test_exact_pair_kept(self):
        # an exact pair is not rescaled: the overlap with the polarized pair
        # is sqrt(0.875) to the bit
        f = bhattacharyya_fidelity((0.875, 0.125), (1.0, 0.0))
        assert f == math.sqrt(0.875)

    def test_small_drift_renormalized(self):
        # (0.5 + 3e-13) twice sums to 1 + 6e-13; unrenormalized, the overlap
        # with the polarized pair would exceed sqrt(0.5) by 2e-13
        f = bhattacharyya_fidelity((0.5 + 3e-13, 0.5 + 3e-13), (1.0, 0.0))
        assert abs(f - math.sqrt(0.5)) <= 1e-15

    def test_large_drift_rejected(self):
        with pytest.raises(ValueError):
            bhattacharyya_fidelity((0.6, 0.5), (0.5, 0.5))
        with pytest.raises(ValueError):
            bhattacharyya_fidelity((0.5, 0.5), (0.6, 0.5))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bhattacharyya_fidelity((1.0 + 1e-13, -1e-13), (0.5, 0.5))


class TestSingleSiteState:
    def test_polarized_three_quarters(self):
        # <sigma^z> = 2*3/8 = 0.75
        assert single_site_state(8, 3) == (0.875, 0.125)

    def test_fully_polarized(self):
        assert single_site_state(6, 3) == (1.0, 0.0)

    def test_zero_magnetization(self):
        assert single_site_state(4, 0) == (0.5, 0.5)

    def test_negative_magnetization(self):
        assert single_site_state(8, -4) == (0.0, 1.0)

    @pytest.mark.parametrize("n, m", [
        (7, 2), (0, 0), (-2, 0), (8, 5), (8, -5),
        # an array of sizes is rejected when any one entry is invalid
        (np.array([8, 7]), 2), (np.array([8, 0]), 0), (np.array([8, 4]), 3),
    ])
    def test_domain_errors(self, n, m):
        with pytest.raises(ValueError):
            single_site_state(n, m)

    def test_array_argument(self):
        p_up, p_down = single_site_state(8, np.array([4, 3, 0]))
        assert np.array_equal(p_up, [1.0, 0.875, 0.5])
        assert np.array_equal(p_down, [0.0, 0.125, 0.5])

    def test_array_of_sizes(self):
        p_up, p_down = single_site_state(np.array([8, 4]), np.array([3, 2]))
        assert np.array_equal(p_up, [0.875, 1.0])
        assert np.array_equal(p_down, [0.125, 0.0])


class TestBhattacharyya:
    def test_identical_states(self):
        assert bhattacharyya_fidelity((0.5, 0.5), (0.5, 0.5)) == 1.0

    def test_orthogonal_supports(self):
        assert bhattacharyya_fidelity((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_hand_value(self):
        # sqrt(1 * 0.875) + sqrt(0 * 0.125) = sqrt(0.875)
        f = bhattacharyya_fidelity((1.0, 0.0), (0.875, 0.125))
        assert f == pytest.approx(math.sqrt(0.875), abs=1e-15)
        assert f == pytest.approx(0.9354143, abs=5e-8)

    def test_random_pairs_symmetry_bounds_identity(self):
        # product terms commute, so symmetry must hold bitwise
        rng = np.random.default_rng(20260810)
        a = rng.uniform(0.0, 1.0, size=10_000)
        b = rng.uniform(0.0, 1.0, size=10_000)
        p = (a, 1.0 - a)
        q = (b, 1.0 - b)
        f_pq = bhattacharyya_fidelity(p, q)
        f_qp = bhattacharyya_fidelity(q, p)
        assert np.array_equal(f_pq, f_qp)
        assert np.all(f_pq >= 0.0) and np.all(f_pq <= 1.0)
        assert np.all(bhattacharyya_fidelity(p, p) >= 1.0 - 5e-16)
        apart = np.abs(a - b) > 1e-7
        assert np.all(f_pq[apart] < 1.0)


class TestCrossingFidelity:
    def test_polarized_pair(self):
        f = crossing_fidelity(8, 4, 3)
        assert f == pytest.approx(math.sqrt(7.0 / 8.0), abs=1e-15)

    def test_matches_half_angle_form(self):
        # (sqrt(6) + sqrt(2))/4 at the last crossing of the 4-spin model
        f = crossing_fidelity(4, 1, 0)
        assert f == pytest.approx((math.sqrt(6) + math.sqrt(2)) / 4.0, abs=1e-15)

    def test_equal_sectors_give_one(self):
        for n, m in [(4, 0), (8, 2), (100, 50)]:
            assert crossing_fidelity(n, m, m) == 1.0

    def test_adjacent_sectors_below_one(self):
        for n in (2, 4, 8, 50, 300):
            for m in range(1, n // 2 + 1):
                assert crossing_fidelity(n, m, m - 1) < 1.0


class TestCrossingSusceptibility:
    def test_zero_at_unit_fidelity(self):
        chi = crossing_susceptibility(1.0, 0.1)
        assert chi == 0.0 and math.copysign(1.0, chi) == 1.0

    def test_frozen_lmg_like_value(self):
        # -2 ln(sqrt(7/8)) / 0.25^2
        chi = crossing_susceptibility(math.sqrt(7.0 / 8.0), 0.25)
        assert chi == pytest.approx(2.1365022819923625, rel=1e-14)

    def test_frozen_heisenberg_maximum(self):
        # spacing 2 sin^2(pi/14) between the first two ring crossings at n = 8
        delta_h = 2.0 * math.sin(math.pi / 14.0) ** 2
        chi = crossing_susceptibility(math.sqrt(7.0 / 8.0), delta_h)
        assert chi == pytest.approx(13.61569739358725, rel=1e-13)

    def test_decreasing_in_fidelity(self):
        fids = np.linspace(0.05, 1.0, 200)
        chis = crossing_susceptibility(fids, 0.3)
        assert np.all(np.diff(chis) < 0.0) and np.all(chis >= 0.0)

    @pytest.mark.parametrize("f, dh", [(0.0, 0.1), (-0.2, 0.1), (1.1, 0.1),
                                       (0.9, 0.0), (0.9, -1.0)])
    def test_domain_errors(self, f, dh):
        with pytest.raises(ValueError):
            crossing_susceptibility(f, dh)


def hand_curve(**columns):
    """A valid 6-spin Curve with two spacings, with some columns replaced."""
    valid = {"n": 6, "h": np.array([0.9, 0.5, 0.1]),
             "fidelity": np.array([0.9, 0.95, 0.99]),
             "delta_h": np.array([0.4, 0.4])}
    return Curve(**{**valid, **columns})


class TestCrossingPoint:
    def test_nonpositive_field_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            hand_curve(h=np.array([0.9, 0.5, 0.0]))


class TestCurvePoint:
    def test_chi_must_recompute(self):
        curve = hand_curve()
        assert np.array_equal(curve.chi, crossing_susceptibility(
            curve.fidelity[:2], curve.delta_h))
        assert curve.chi[0] == float(crossing_susceptibility(0.9, 0.4))

    def test_chi_and_delta_h_together(self):
        curve = lmg_curve(8)
        assert len(curve.chi) == len(curve.delta_h) == len(curve) == 4
        curve = heisenberg_curve(8)
        assert len(curve.chi) == len(curve.delta_h) == len(curve) - 1 == 3

    def test_bare_point_allowed(self):
        curve = hand_curve(delta_h=np.array([]))
        assert len(curve) == 3
        assert curve.delta_h.size == 0 and curve.chi.size == 0

    def test_fidelity_range_enforced(self):
        with pytest.raises(ValueError, match="fidelity"):
            hand_curve(fidelity=np.array([0.9, 0.0, 0.99]))
        with pytest.raises(ValueError, match="fidelity"):
            hand_curve(fidelity=np.array([0.9, 0.95, 1.0 + 1e-9]))
        # a fidelity past the last spacing is checked too
        with pytest.raises(ValueError, match="fidelity"):
            hand_curve(fidelity=np.array([0.9, 0.95, 0.0]))

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            hand_curve(h=np.array([0.9, 0.5]))
        with pytest.raises(ValueError, match="lengths"):
            hand_curve(fidelity=np.array([0.9, 0.95, 0.99, 0.999]))

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError, match="delta_h"):
            hand_curve(delta_h=np.array([0.4, 0.0]))
        with pytest.raises(ValueError, match="delta_h"):
            hand_curve(delta_h=np.array([-0.4, 0.4]))


class TestFidelityCurve:
    def test_models_share_the_crossing_fidelity(self):
        for n in range(4, 41, 2):
            assert heisenberg_curve(n).fidelity.tolist() == \
                lmg_curve(n).fidelity.tolist()

    def test_crossings_beyond_spacings_carry_no_chi(self):
        curve = fidelity_curve(8, lmg_crossings(8), [0.25, 0.25])
        assert len(curve) == 4
        assert curve.delta_h.tolist() == [0.25, 0.25]
        assert curve.chi[0] == float(crossing_susceptibility(curve.fidelity[0],
                                                             0.25))
        assert curve.chi.size == 2

    def test_more_spacings_than_crossings_rejected(self):
        with pytest.raises(ValueError):
            fidelity_curve(8, lmg_crossings(8), [0.25] * 5)

    def test_columns_follow_the_crossing_index(self):
        curve = fidelity_curve(8, lmg_crossings(8), [0.25] * 4)
        assert curve.n == 8
        assert len(curve) == 4
        above = 8 // 2 - np.arange(len(curve))
        assert above.tolist() == [4, 3, 2, 1]
        assert curve.h.tolist() == [0.875, 0.625, 0.375, 0.125]
        assert np.array_equal(curve.fidelity,
                              crossing_fidelity(8, above, above - 1))
