"""Bethe solver tests: roots, residuals, sector energies, crossings, curves."""

import math

import numpy as np
import pytest

from partialfid import (
    ConvergenceError,
    bethe,
    bethe_quantum_numbers,
    bethe_residual,
    h1_closed_form,
    heisenberg_crossings,
    heisenberg_curve,
    sector_energy,
    sector_epsilon,
    solve_bethe,
)


def residual_by_hand(n, quantum_numbers, rapidities):
    """Scalar-loop re-evaluation of the coupled equations, no numpy."""
    worst = 0.0
    for qn, x in zip(quantum_numbers, rapidities):
        pair = sum(math.atan((x - y) / 2.0) for y in rapidities)
        worst = max(worst, abs(2 * n * math.atan(x) - 2 * math.pi * qn - 2 * pair))
    return worst


def full_system_newton(n, n_down, tol=1e-12, max_iter=50):
    """Newton on all n_down coupled equations, no root symmetry assumed.

    The full n_down x n_down Jacobian has 1/(1 + (x_j - x_l)^2/4) off the
    diagonal and 2n/(1 + x_j^2) minus the rest of its row on it.  Each step
    s is taken in the phase arctan(x): x = tan(arctan(x) - s / (1 + x^2)).
    Returns the ascending roots and the number of Newton steps.  It starts
    and steps as `solve_bethe` does, so both take the same steps.
    """
    qn = bethe_quantum_numbers(n_down)
    x = np.tan(np.pi * qn / (n - 0.5 * n_down))
    threshold = tol * max(1.0, n / 64.0)
    for steps in range(max_iter + 1):
        d = 0.5 * (x[:, None] - x[None, :])
        f = 2.0 * n * np.arctan(x) - 2.0 * np.pi * qn \
            - 2.0 * np.arctan(d).sum(axis=1)
        if np.max(np.abs(f)) <= threshold:
            return np.sort(x), steps
        jacobian = 1.0 / (1.0 + d * d)
        np.fill_diagonal(jacobian, 2.0 * n / (1.0 + x * x)
                         - (jacobian.sum(axis=1) - 1.0))
        step = np.linalg.solve(jacobian, f)
        x = np.tan(np.arctan(x) - step / (1.0 + x * x))
    raise AssertionError(f"full system ({n}, {n_down}) did not converge")


class TestQuantumNumbers:
    def test_single_down_spin(self):
        assert bethe_quantum_numbers(1).tolist() == [0.0]

    def test_two_down_spins(self):
        assert bethe_quantum_numbers(2).tolist() == [-0.5, 0.5]

    def test_three_down_spins(self):
        assert bethe_quantum_numbers(3).tolist() == [-1.0, 0.0, 1.0]

    def test_empty_sector(self):
        assert bethe_quantum_numbers(0).size == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bethe_quantum_numbers(-1)


class TestSolver:
    def test_single_root_is_zero(self):
        roots = solve_bethe(8, 1)
        assert roots.rapidities.tolist() == [0.0]
        assert roots.residual == 0.0

    def test_two_root_closed_form(self):
        roots = solve_bethe(8, 2)
        expected = math.tan(math.pi / 14.0)
        assert roots.rapidities[1] == pytest.approx(expected, abs=1e-12)
        assert roots.rapidities[0] == pytest.approx(-expected, abs=1e-12)

    def test_residual_reverified_independently(self):
        for n, n_down in [(8, 2), (8, 4), (12, 6), (20, 7), (32, 16)]:
            roots = solve_bethe(n, n_down)
            recomputed = residual_by_hand(n, roots.quantum_numbers,
                                          roots.rapidities)
            assert roots.residual <= 1e-12
            assert abs(recomputed - roots.residual) < 1e-12
            assert bethe_residual(n, roots.quantum_numbers,
                                  roots.rapidities) <= 2e-12

    def test_root_set_antisymmetric(self):
        for n, n_down in [(8, 3), (12, 6), (16, 5), (64, 32)]:
            x = solve_bethe(n, n_down).rapidities
            assert np.max(np.abs(x + x[::-1])) <= 1e-11

    def test_roots_separated_and_sorted(self):
        for n_down in range(2, 9):
            x = solve_bethe(16, n_down).rapidities
            assert np.all(np.diff(x) > 1e-12)

    def test_deterministic(self):
        a = solve_bethe(24, 9)
        b = solve_bethe(24, 9)
        assert np.array_equal(a.rapidities, b.rapidities)
        assert a.residual == b.residual and a.iterations == b.iterations

    def test_nonconvergence_reports_sector_and_residual(self, monkeypatch):
        monkeypatch.setattr(bethe, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as info:
            solve_bethe(12, 6)
        err = info.value
        assert (err.n, err.n_down, err.iterations) == (12, 6, 2)
        assert err.residual > 0.0
        assert "n=12" in str(err) and "n_down=6" in str(err)

    @pytest.mark.parametrize("n, n_down", [(7, 1), (8, 5), (8, -1), (0, 0)])
    def test_sector_domain_errors(self, n, n_down):
        with pytest.raises(ValueError):
            solve_bethe(n, n_down)

    def test_loose_tolerance_at_half_filling(self, monkeypatch):
        monkeypatch.setattr(bethe, "TOL", 0.05)
        roots = solve_bethe(64, 32)
        assert roots.residual <= 0.05
        assert np.all(np.diff(roots.rapidities) > 0.0)

    def test_singular_jacobian_reports_sector(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ConvergenceError) as info:
            solve_bethe(12, 6)
        err = info.value
        assert (err.n, err.n_down, err.iterations) == (12, 6, 0)
        assert err.residual > 0.0

    def test_non_finite_step_reports_sector(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
        with pytest.raises(ConvergenceError) as info:
            solve_bethe(12, 6)
        assert (info.value.n, info.value.n_down) == (12, 6)

    @pytest.mark.parametrize("size", [1e6, -1e6])
    def test_step_out_of_phase_range_reports_sector(self, monkeypatch, size):
        # a finite step that takes a phase arctan(y) outside (0, pi/2), where
        # tan would wrap around to a wrong root, stops at the first step
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, size))
        with pytest.raises(ConvergenceError) as info:
            solve_bethe(12, 6)
        err = info.value
        assert (err.n, err.n_down, err.iterations) == (12, 6, 0)
        assert err.residual > 0.0
        assert "n=12" in str(err) and "n_down=6" in str(err)

    def test_tolerance_reachable_at_large_n(self):
        # in (2060, 1030) Newton stalls above an absolute 1e-12 (at 1.1e-12
        # in float64), where (2058, 1029) still reaches it; the threshold
        # tol * n / 64 is reachable
        roots = solve_bethe(2060, 1030)
        assert roots.residual <= 1e-12 * 2060 / 64
        assert np.all(np.diff(roots.rapidities) > 0.0)

    def test_newton_converges_in_few_steps(self):
        for n, n_down in [(64, 32), (256, 128), (512, 256)]:
            assert solve_bethe(n, n_down).iterations <= 8


class TestDiluteStart:
    """Newton starts at y_j = tan(pi I_j / (n - n_down/2)), the dilute-limit roots."""

    def test_two_down_spins_start_at_their_root(self):
        # for n_down = 2 the start is the exact root tan(pi/(2(n-1)))
        for n in range(4, 8193, 2):
            roots = solve_bethe(n, 2)
            exact = math.tan(math.pi / (2.0 * (n - 1)))
            assert roots.iterations == 0, n
            assert abs(roots.rapidities[1] - exact) <= math.ulp(exact), n
            h1 = heisenberg_crossings(n, max_index=1)[1]
            assert abs(h1 - h1_closed_form(n)) <= math.ulp(h1), n

    def test_total_steps_over_all_sectors(self):
        # every sector of a 512-spin ring solved alone: 663 steps with the
        # phase step, 754 with the step in y and 989 from tan(pi I_j / n)
        assert sum(solve_bethe(512, k).iterations for k in range(257)) <= 700


class TestStart:
    """`start` replaces the dilute-limit start by the caller's positive roots."""

    @pytest.mark.parametrize("start", [
        [0.1, 0.2],                 # 3 positive roots in sector (12, 6)
        [0.1, 0.2, 0.3, 0.4],
        [[0.1, 0.2, 0.3]],
        [0.1, 0.0, 0.3],
        [0.1, -0.2, 0.3],
        [0.1, math.nan, 0.3],
        [0.1, math.inf, 0.3],
    ])
    def test_invalid_start_rejected(self, start):
        with pytest.raises(ValueError):
            solve_bethe(12, 6, start=start)

    def test_sectors_without_positive_roots_take_an_empty_start(self):
        assert solve_bethe(12, 1, start=[]).rapidities.tolist() == [0.0]
        with pytest.raises(ValueError):
            solve_bethe(12, 1, start=[0.5])

    @pytest.mark.parametrize("n, n_down", [(12, 5), (64, 32), (256, 127)])
    def test_solved_roots_take_no_step(self, n, n_down):
        roots = solve_bethe(n, n_down)
        again = solve_bethe(n, n_down, start=roots.rapidities[n_down - n_down // 2:])
        assert again.iterations == 0
        assert np.array_equal(again.rapidities, roots.rapidities)


class TestContinuedStart:
    """`heisenberg_crossings` starts each sector from the ones solved before it."""

    @pytest.fixture
    def sector_steps(self, monkeypatch):
        """Runs `heisenberg_crossings(n)`; returns the steps of each sector solve."""
        calls = []
        solve = bethe.solve_bethe

        def counted(n, n_down, *args, **kwargs):
            roots = solve(n, n_down, *args, **kwargs)
            calls.append((n_down, roots.iterations))
            return roots

        monkeypatch.setattr(bethe, "solve_bethe", counted)

        def run(n):
            calls.clear()
            heisenberg_crossings(n)
            # one solve per sector, in order
            assert [n_down for n_down, _ in calls] == list(range(n // 2 + 1))
            return [steps for _, steps in calls]

        return run

    def test_total_steps_over_one_ring(self, sector_steps):
        # 427 steps over the 257 sectors of a 512-spin ring; 663 solved alone
        assert sum(sector_steps(512)) <= 500

    def test_few_steps_in_every_sector(self, sector_steps):
        for n in [*range(4, 257, 2), 512]:
            assert max(sector_steps(n)) <= 5, n

    @pytest.mark.parametrize("n", [64, 512])
    def test_fields_match_independent_solves(self, n):
        eps = np.array([sector_epsilon(solve_bethe(n, k)) for k in range(n // 2 + 1)])
        fields = heisenberg_crossings(n)
        assert np.max(np.abs(fields - 0.5 * (eps[1:] - eps[:-1]))) <= 1e-12
        assert fields[1] == h1_closed_form(n)


class TestHalfSystem:
    """`solve_bethe` solves only the positive roots; check it against the full system."""

    @pytest.mark.parametrize("n, n_down",
                             [(12, 5), (12, 6), (64, 31), (64, 32), (256, 127)])
    def test_matches_full_system_newton(self, n, n_down):
        half = solve_bethe(n, n_down)
        full, steps = full_system_newton(n, n_down)
        assert np.max(np.abs(half.rapidities - full)) <= 1e-12
        assert half.iterations == steps

    def test_zero_root_kept_for_odd_sectors(self):
        for n, n_down in [(8, 1), (12, 5), (64, 31)]:
            x = solve_bethe(n, n_down).rapidities
            assert x[n_down // 2] == 0.0
            assert np.array_equal(x[:n_down // 2], -x[:n_down // 2:-1])

    def test_full_residual_within_threshold_at_cap(self):
        roots = solve_bethe(1024, 512)
        threshold = 1e-12 * 1024 / 64
        full = bethe_residual(1024, roots.quantum_numbers, roots.rapidities)
        assert roots.residual <= threshold and full <= threshold


class TestSectorEnergy:
    def test_empty_sector_values(self):
        roots = solve_bethe(8, 0)
        assert sector_epsilon(roots) == 0.0
        assert sector_energy(8, 0) == 2.0

    def test_single_down_spin_epsilon(self):
        assert sector_epsilon(solve_bethe(8, 1)) == 2.0

    def test_two_down_spin_epsilon(self):
        # 4 / (tan^2(pi/14) + 1), equal to 2 + 2 cos(pi/7)
        eps = sector_epsilon(solve_bethe(8, 2))
        assert eps == pytest.approx(2.0 + 2.0 * math.cos(math.pi / 7.0), abs=1e-12)

    def test_degeneracy_at_saturation_field(self):
        # the Zeeman shifts differ by 2h, so the sectors cross at h = 1
        assert sector_energy(8, 1) - sector_energy(8, 0) == pytest.approx(
            -2.0, abs=1e-13)

    def test_half_filling_matches_known_ground_energy(self):
        # antiferromagnetic 8-site ring
        assert sector_energy(8, 4) == pytest.approx(-3.6510934089, abs=1e-9)

    def test_epsilon_strictly_increasing(self):
        for n in (8, 20, 64):
            eps = [sector_epsilon(solve_bethe(n, k)) for k in range(n // 2 + 1)]
            assert all(b > a for a, b in zip(eps, eps[1:]))


class TestCrossings:
    def test_first_field_is_saturation(self):
        for n in (4, 8, 16, 64):
            assert heisenberg_crossings(n, max_index=0)[0] == \
                pytest.approx(1.0, abs=1e-10)

    def test_second_field_closed_form(self):
        crossings = heisenberg_crossings(8, max_index=1)
        assert crossings[1] == pytest.approx(-1.0 + 2.0 / (
            math.tan(math.pi / 14.0) ** 2 + 1.0), abs=1e-10)

    def test_fields_strictly_decreasing_and_positive(self):
        for n in (8, 12, 20):
            fields = heisenberg_crossings(n).tolist()
            assert len(fields) == n // 2
            assert all(a > b for a, b in zip(fields, fields[1:]))
            assert fields[-1] > 0.0

    def test_sector_labels(self):
        curve = heisenberg_curve(12)
        assert len(heisenberg_crossings(12)) == 6
        assert len(curve) == 6
        assert (12 // 2 - np.arange(len(curve))).tolist() == [6, 5, 4, 3, 2, 1]

    def test_max_index_prefix_consistent(self):
        # every prefix, so also the ones that stop before the continued start
        # takes over (max_index <= 1) or just after it
        for n in (10, 64):
            full = heisenberg_crossings(n)
            for max_index in range(n // 2):
                short = heisenberg_crossings(n, max_index=max_index)
                assert short.tolist() == full[:max_index + 1].tolist()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            heisenberg_crossings(2)
        with pytest.raises(ValueError):
            heisenberg_crossings(9)
        with pytest.raises(ValueError):
            heisenberg_crossings(8, max_index=4)


class TestH1ClosedForm:
    def test_eight_spins(self):
        assert h1_closed_form(8) == pytest.approx(math.cos(math.pi / 7.0),
                                                  abs=1e-15)

    def test_thirty_two_spins(self):
        # trigonometric rewrite: 1 - 2 sin^2(pi/62)
        assert h1_closed_form(32) == pytest.approx(
            1.0 - 2.0 * math.sin(math.pi / 62.0) ** 2, abs=1e-15)

    def test_matches_generic_solver(self):
        for n in (8, 16, 32, 64):
            solver_h1 = heisenberg_crossings(n, max_index=1)[1]
            assert abs(solver_h1 - h1_closed_form(n)) < 1e-10

    def test_gap_approaches_large_n_form_from_below(self):
        ratios = []
        for n in (8, 16, 32, 64, 128, 256):
            gap = 1.0 - h1_closed_form(n)
            ratios.append(gap * 2.0 * (n - 1) ** 2 / math.pi ** 2)
        assert all(r < 1.0 for r in ratios)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.9999


class TestCurve:
    def test_eight_spin_first_point(self):
        curve = heisenberg_curve(8)
        assert curve.fidelity[0] == pytest.approx(math.sqrt(7.0 / 8.0),
                                                  abs=1e-13)
        assert curve.delta_h[0] == pytest.approx(
            2.0 * math.sin(math.pi / 14.0) ** 2, abs=1e-11)
        assert curve.chi[0] == pytest.approx(13.61569739358725, rel=1e-9)

    def test_last_point_has_no_spacing(self):
        curve = heisenberg_curve(12)
        assert len(curve) == 6
        assert len(curve.delta_h) == len(curve.chi) == 5

    def test_all_fidelities_below_one(self):
        assert np.all(heisenberg_curve(16).fidelity < 1.0)

    def test_chi_maximum_at_first_crossing(self):
        for n in (8, 12, 24):
            assert np.argmax(heisenberg_curve(n).chi) == 0

    def test_step_budget_reaches_the_solver(self, monkeypatch):
        monkeypatch.setattr(bethe, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError):
            heisenberg_curve(12)
