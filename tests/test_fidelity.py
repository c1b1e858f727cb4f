"""Kernel tests: the crossing fidelity against its definition, susceptibility, curves."""

import math
import re

import numpy as np
import pytest

from oracles import (
    bhattacharyya_fidelity,
    composed_fidelity,
    single_site_state,
)
from partialfid import (
    Curve,
    chi_max_scan,
    crossing_fidelity,
    crossing_susceptibility,
    ed_sector_ground_energy,
    heisenberg_curve,
    lmg_crossings,
    lmg_curve,
    solve_bethe,
)


class TestDiagonalState:
    """Renormalization in the Bhattacharyya oracle."""

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


class TestSingleSiteState:
    """The one-site pairs of the oracle."""

    def test_polarized_three_quarters(self):
        # <sigma^z> = 2*3/8 = 0.75
        assert single_site_state(8, 3) == (0.875, 0.125)

    def test_fully_polarized(self):
        assert single_site_state(6, 3) == (1.0, 0.0)

    def test_zero_magnetization(self):
        assert single_site_state(4, 0) == (0.5, 0.5)

    def test_negative_magnetization(self):
        assert single_site_state(8, -4) == (0.0, 1.0)

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
        f = crossing_fidelity(8, 0)
        assert f == pytest.approx(math.sqrt(7.0 / 8.0), abs=1e-15)

    def test_matches_half_angle_form(self):
        # (sqrt(6) + sqrt(2))/4 at the last crossing of the 4-spin model
        f = crossing_fidelity(4, 1)
        assert f == pytest.approx((math.sqrt(6) + math.sqrt(2)) / 4.0, abs=1e-15)

    def test_equal_sectors_give_one(self):
        for n, m in [(4, 0), (8, 2), (100, 50)]:
            state = single_site_state(n, m)
            assert bhattacharyya_fidelity(state, single_site_state(n, m)) == 1.0

    def test_adjacent_sectors_below_one(self):
        for n in (2, 4, 8, 50, 300):
            for j in range(n // 2):
                assert crossing_fidelity(n, j) < 1.0

    @pytest.mark.parametrize("n, j", [(8, -1), (8, 4), (2, 1),
                                      (8, np.array([0, 4])),
                                      (np.array([4, 8]), 2)])
    def test_index_outside_the_crossings_rejected(self, n, j):
        with pytest.raises(ValueError, match="crossing index"):
            crossing_fidelity(n, j)

    @pytest.mark.parametrize("n", [
        7, 0, -2,
        # an array of sizes is rejected when any one entry is invalid
        np.array([8, 7]), np.array([8, 0]),
    ])
    def test_invalid_size_rejected(self, n):
        with pytest.raises(ValueError, match="number of spins"):
            crossing_fidelity(n, 0)


# Every even N up to 4096, and every size the lmg-curve benchmark workload
# reaches (five bases, each shifted by -4, -2 or 0).
BIT_SIZES = [*range(2, 4097, 2),
             *(base + shift for base in (4000, 8000, 16000, 32000, 64000)
               for shift in (-4, -2, 0))]


class TestBitsOfTheDefinition:
    """`crossing_fidelity` returns the bits of the renormalizing definition."""

    def test_every_crossing_equals_the_composition(self):
        for n in BIT_SIZES:
            j = np.arange(n // 2)
            assert np.array_equal(crossing_fidelity(n, j),
                                  composed_fidelity(n, j)), n

    def test_array_of_sizes_equals_the_composition(self):
        # the call chi_max_scan makes: crossing 0 of many sizes at once
        sizes = np.array(BIT_SIZES)
        assert np.array_equal(crossing_fidelity(sizes, 0),
                              composed_fidelity(sizes, 0))

    def test_pairs_sum_to_one_exactly(self):
        # no pair needs the division by its sum the definition makes;
        # m runs over every sector n/2 - j and n/2 - j - 1 of the crossings
        for n in BIT_SIZES:
            p_up, p_down = single_site_state(n, np.arange(n // 2 + 1))
            assert np.all(p_up + p_down == 1.0), n


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
             "delta_h": np.array([0.4, 0.4])}
    return Curve(**{**valid, **columns})


class TestCurve:
    def test_nonpositive_field_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            hand_curve(h=np.array([0.9, 0.5, 0.0]))

    def test_chi_must_recompute(self):
        curve = hand_curve()
        assert np.array_equal(curve.chi, crossing_susceptibility(
            curve.fidelity[:2], curve.delta_h))
        # F_0 = sqrt(5/6) at n = 6, so chi_0 = -ln(5/6) / 0.4^2
        assert curve.chi[0] == pytest.approx(-math.log(5.0 / 6.0) / 0.16,
                                             rel=1e-14)

    def test_chi_and_delta_h_together(self):
        curve = lmg_curve(8)
        assert len(curve.chi) == len(curve.delta_h) == len(curve) == 4
        curve = heisenberg_curve(8)
        assert len(curve.chi) == len(curve.delta_h) == len(curve) - 1 == 3

    def test_bare_point_allowed(self):
        curve = hand_curve(delta_h=np.array([]))
        assert len(curve) == 3
        assert curve.delta_h.size == 0 and curve.chi.size == 0

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            hand_curve(h=np.array([0.9]))

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError, match="delta_h"):
            hand_curve(delta_h=np.array([0.4, 0.0]))
        with pytest.raises(ValueError, match="delta_h"):
            hand_curve(delta_h=np.array([-0.4, 0.4]))

    def test_more_rows_than_crossings_rejected(self):
        # a 4-spin ring has crossings j = 0, 1 only; rows 2 and 3 would pair
        # sectors 0/-1 and -1/-2
        with pytest.raises(ValueError, match="crossing index"):
            Curve(4, [0.9, 0.5, 0.3, 0.1], [])
        assert len(Curve(4, [0.9, 0.5], [])) == 2


class TestFidelityCurve:
    def test_models_share_the_crossing_fidelity(self):
        for n in range(4, 41, 2):
            assert heisenberg_curve(n).fidelity.tolist() == \
                lmg_curve(n).fidelity.tolist()

    def test_crossings_beyond_spacings_carry_no_chi(self):
        curve = Curve(8, lmg_crossings(8), [0.25, 0.25])
        assert len(curve) == 4
        assert curve.delta_h.tolist() == [0.25, 0.25]
        assert curve.chi[0] == float(crossing_susceptibility(curve.fidelity[0],
                                                             0.25))
        assert curve.chi.size == 2

    def test_more_spacings_than_crossings_rejected(self):
        with pytest.raises(ValueError):
            Curve(8, lmg_crossings(8), [0.25] * 5)

    def test_columns_follow_the_crossing_index(self):
        curve = Curve(8, lmg_crossings(8), [0.25] * 4)
        assert curve.n == 8
        assert len(curve) == 4
        assert curve.h.tolist() == [0.875, 0.625, 0.375, 0.125]
        assert np.array_equal(curve.fidelity,
                              crossing_fidelity(8, np.arange(4)))
        # row j pairs sectors 4 - j and 3 - j
        assert curve.fidelity.tolist() == [
            float(bhattacharyya_fidelity(single_site_state(8, m),
                                         single_site_state(8, m - 1)))
            for m in (4, 3, 2, 1)]


@pytest.mark.parametrize("call", [
    lambda: crossing_susceptibility(0.9, math.nan),
    lambda: crossing_susceptibility(math.nan, 0.1),
    lambda: crossing_susceptibility(0.9, math.inf),
    lambda: Curve(4, [1.0, 0.5], [math.nan]),
    lambda: Curve(4, [1.0, 0.5], [math.inf]),
    lambda: Curve(4, [math.inf, 0.5], [0.5]),
    lambda: crossing_fidelity(4, math.nan),
    lambda: crossing_fidelity(4, 0.5),
    lambda: crossing_fidelity(4, np.array([0.0, 0.5])),
], ids=["chi-nan-spacing", "chi-nan-fidelity", "chi-infinite-spacing",
        "curve-nan-spacing", "curve-infinite-spacing", "curve-infinite-field",
        "nan-crossing", "fractional-crossing", "fractional-crossing-array"])
def test_nan_infinite_and_fractional_inputs_rejected(call):
    # each range check is "all in range", which NaN fails
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call, value", [
    (lambda: solve_bethe(8, 1.5), "1.5"),
    (lambda: solve_bethe(8.0, 2), "8.0"),
    (lambda: solve_bethe(8, 2.0), "2.0"),
    (lambda: ed_sector_ground_energy(8, 1.5), "1.5"),
    (lambda: lmg_curve(8.0), "8.0"),
    (lambda: heisenberg_curve(8.0), "8.0"),
    (lambda: chi_max_scan("heisenberg", [8, 10, 12.0]), "12.0"),
    (lambda: crossing_fidelity(8, 1.0), "1.0"),
    # a size that is no number fails as a size, before any bound uses it
    (lambda: solve_bethe(None, 1), "integer >= 2, got None"),
    (lambda: crossing_fidelity("8", 1), "integer >= 2, got 8"),
    (lambda: crossing_fidelity(None, 0), "integer >= 2, got None"),
    # every given size is checked before duplicates merge
    (lambda: chi_max_scan("lmg", [8, 8.0]), "got 8.0"),
    (lambda: chi_max_scan("lmg", [8, None]), "got None"),
    (lambda: chi_max_scan("heisenberg", [8, "10"]), "got 10"),
    # a bool is no integer, as a scalar as in an array
    (lambda: solve_bethe(8, True), "got True"),
    (lambda: crossing_fidelity(8, True), "got True"),
    (lambda: crossing_fidelity(True, 0), "got True"),
    (lambda: ed_sector_ground_energy(8, True), "got True"),
    (lambda: chi_max_scan("heisenberg", [8, True]), "got True"),
], ids=["bethe-fractional-sector", "bethe-float-size", "float-quantum-count",
        "ed-fractional-sector", "lmg-float-size", "heisenberg-float-size",
        "scan-float-size", "float-crossing", "bethe-none-size",
        "crossing-string-size", "crossing-none-size",
        "scan-duplicate-float-size", "scan-none-size", "scan-string-size",
        "bethe-bool-sector", "bool-crossing", "bool-size", "ed-bool-sector",
        "scan-bool-size"])
def test_non_integer_size_or_index_rejected(call, value):
    # a float is refused even when integral: sizes and indices are integers
    with pytest.raises(ValueError, match=re.escape(value)):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: solve_bethe(True, 0), "number of spins must be an even integer "
                                   ">= 2, got True"),
    (lambda: solve_bethe(8, True), "n_down must be an integer in [0, 4], "
                                   "got True"),
    (lambda: solve_bethe(8.0, 2), "number of spins must be an even integer "
                                  ">= 2, got 8.0"),
    (lambda: solve_bethe(8, 2.0), "n_down must be an integer in [0, 4], "
                                  "got 2.0"),
    (lambda: solve_bethe(np.int64(7), 1), "number of spins must be an even "
                                          "integer >= 2, got 7"),
    (lambda: solve_bethe(np.int64(8), 5), "n_down must be an integer in "
                                          "[0, 4], got 5"),
    (lambda: solve_bethe(8, np.int64(5)), "n_down must be an integer in "
                                          "[0, 4], got 5"),
    (lambda: crossing_fidelity(True, 0), "number of spins must be an even "
                                         "integer >= 2, got True"),
    (lambda: crossing_fidelity(8, True), "crossing index must be an integer "
                                         "in [0, 3], got True"),
    (lambda: crossing_fidelity(8.0, 0), "number of spins must be an even "
                                        "integer >= 2, got 8.0"),
    (lambda: crossing_fidelity(8, 1.0), "crossing index must be an integer "
                                        "in [0, 3], got 1.0"),
    (lambda: crossing_fidelity(np.int64(8), 4), "crossing index must be an "
                                                "integer in [0, 3], got 4"),
])
def test_size_and_index_messages(call, message):
    # plain ints take a scalar check; a bool, a numpy integer or a float goes
    # through the general one, with the same message as a plain int would
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("n, j", [(8, 2), (2, 0), (8192, 4095)])
def test_numpy_integers_give_the_plain_int_results(n, j):
    assert crossing_fidelity(np.int64(n), np.int64(j)) \
        == crossing_fidelity(n, j)
    n_down = min(j, 2)
    numpy_roots = solve_bethe(np.int64(n), np.int64(n_down))
    roots = solve_bethe(n, n_down)
    assert numpy_roots.rapidities.tobytes() == roots.rapidities.tobytes()
    assert (numpy_roots.residual, numpy_roots.iterations) \
        == (roots.residual, roots.iterations)
    # the record holds plain floats whatever integer type the size had
    assert type(numpy_roots.residual) is float
    assert type(roots.residual) is float


@pytest.mark.parametrize("call, size", [
    (lambda: solve_bethe(2**70, 0), 2**70),
    (lambda: solve_bethe(2**63, 1), 2**63),
    (lambda: crossing_fidelity(2**64, 0), 2**64),
    (lambda: crossing_fidelity(np.uint64(2**63), 0), 2**63),
    (lambda: crossing_fidelity(np.array([8, 2**63], dtype=np.uint64), 0),
     2**63),
    (lambda: lmg_curve(2**70), 2**70),
    (lambda: heisenberg_curve(2**70), 2**70),
    (lambda: ed_sector_ground_energy(2**70, 1), 2**70),
], ids=["bethe", "bethe-2**63", "crossing", "numpy-scalar", "numpy-array",
        "lmg-curve", "heisenberg-curve", "ed"])
def test_size_beyond_int64_rejected(call, size):
    # sizes are int64 in every array; the message names the size
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"number of spins must be below 2**63, got {size}"


def test_array_size_message_names_the_first_invalid_entry():
    with pytest.raises(ValueError) as info:
        crossing_fidelity(np.array([8, 7, 9, 10]), 0)
    assert str(info.value) == ("number of spins must be an even integer >= 2, "
                               "got 7")
