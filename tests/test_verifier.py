"""Verification suites: surfaces, grid searches, sign checks and trials."""

import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobound import (
    MeasurementFamily,
    additivity_trial,
    bloch_state,
    cond_renyi_entropy,
    ensemble_trial,
    figure_rows,
    grid_search_min,
    legacy_min_n,
    curvature_gap,
    curvature_gap_series,
    curvature_gap_sweep,
    six_state_surface,
    outcome_table,
    random_density,
    bb84_surface,
    bloch_power_sum,
    renyi_floor,
    endpoint_curvature,
    midpoint_curvature,
    stationary_signs,
    surface_entropy,
)
from entrobound.simulator import DensityOperator, product_eigenstate
from entrobound import verify
from entrobound.verify import _eigenstate_probes, _near_eigenstate, _probe_states
from helpers import (
    entropy_space_grid_search_min,
    reference_additivity,
    reference_ensemble,
    series_remainder_bound,
    whole_grid_search_min,
)

BB84 = MeasurementFamily.BB84
SIX = MeasurementFamily.SIX_STATE


class TestSurfaces:
    def test_two_basis_maximally_mixed(self):
        for s in (0.1, 0.5, 1.0):
            assert bb84_surface(s, 0.0, 0.7) == pytest.approx(2.0**-s, abs=1e-14)

    def test_two_basis_eigenstate_values(self):
        assert bb84_surface(1.0, 1.0, 0.0) == pytest.approx(0.75, abs=1e-15)
        for s in np.linspace(0.05, 1.0, 20):
            expected = (2.0**s + 1.0) / 2.0 ** (1.0 + s)
            assert bb84_surface(s, 1.0, 0.0) == pytest.approx(expected, abs=1e-14)

    def test_three_basis_maximally_mixed(self):
        for s in (0.2, 0.8, 1.0):
            assert six_state_surface(s, 0.0, 0.3, 1.1) == pytest.approx(2.0**-s, abs=1e-14)

    def test_three_basis_pole_value(self):
        assert six_state_surface(1.0, 1.0, 0.0, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        for s in np.linspace(0.05, 1.0, 20):
            expected = (1.0 + 2.0 ** (1.0 - s)) / 3.0
            assert six_state_surface(s, 1.0, 0.0, 0.0) == pytest.approx(expected, abs=1e-14)

    def test_three_basis_maximum_sits_at_poles(self):
        s = 0.6
        ang = np.linspace(0.0, math.pi / 2.0, 40)
        grid = six_state_surface(s, 1.0, ang[:, None], ang[None, :])
        assert grid.max() <= six_state_surface(s, 1.0, 0.0, 0.0) + 1e-12

    def test_bb84_surface_matches_simulator(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            r = rng.random()
            phi = rng.random() * math.pi / 2.0
            s = 0.05 + 0.95 * rng.random()
            state = bloch_state(r * math.sin(phi), 0.0, r * math.cos(phi))
            h_table = cond_renyi_entropy(outcome_table(state, BB84), 1.0 + s)
            h_surface = float(surface_entropy(bb84_surface(s, r, phi), s))
            assert h_surface == pytest.approx(h_table, abs=1e-10)

    def test_six_state_surface_matches_simulator(self):
        rng = np.random.default_rng(321)
        for _ in range(100):
            r = rng.random()
            phi = rng.random() * math.pi / 2.0
            theta = rng.random() * math.pi / 2.0
            s = 0.05 + 0.95 * rng.random()
            state = bloch_state(
                r * math.sin(phi) * math.sin(theta),
                r * math.cos(phi) * math.sin(theta),
                r * math.cos(theta),
            )
            h_table = cond_renyi_entropy(outcome_table(state, SIX), 1.0 + s)
            h_surface = float(surface_entropy(six_state_surface(s, r, phi, theta), s))
            assert h_surface == pytest.approx(h_table, abs=1e-10)

    def test_eigenstate_attains_floor_exactly(self):
        for s in np.linspace(0.01, 1.0, 25):
            h = float(surface_entropy(bb84_surface(s, 1.0, 0.0), s))
            assert abs(h - renyi_floor(1.0 + s, BB84)) <= 1e-12
            h6 = float(surface_entropy(six_state_surface(s, 1.0, 0.0, 0.0), s))
            assert abs(h6 - renyi_floor(1.0 + s, SIX)) <= 1e-12
            for family in (BB84, SIX):
                axis = (1.0,) + (0.0,) * (family.bases_per_qubit - 1)
                h_axis = float(surface_entropy(bloch_power_sum(s, axis), s))
                assert abs(h_axis - renyi_floor(1.0 + s, family)) <= 1e-14


class TestGridSearch:
    @pytest.mark.parametrize(
        "family,alpha,expected",
        [
            (BB84, 2.0, 2.0 - math.log2(3.0)),
            (BB84, 1.5, 0.45689339367277615),
            (SIX, 2.0, math.log2(3.0) - 1.0),
        ],
    )
    def test_minimum_matches_floor(self, family, alpha, expected):
        report = grid_search_min(family, alpha, resolution=60)
        assert report.passed
        assert report.worst_margin + renyi_floor(alpha, family) == pytest.approx(
            expected, abs=1e-3
        )
        # one-sided: the closed form is a true lower bound on the grid
        assert report.worst_margin >= -1e-9

    def test_argmin_is_an_eigenstate_direction(self):
        report = grid_search_min(BB84, 1.5, resolution=80)
        r, phi = report.argmin
        assert r == pytest.approx(1.0, abs=1 / 79 + 1e-12)
        assert min(phi, math.pi / 2 - phi) <= math.pi / 2 / 79 + 1e-12

    @pytest.mark.parametrize("phi", [0.0, 0.3, math.pi / 4, math.pi / 2])
    def test_six_state_pole_is_an_eigenstate_for_any_phi(self, phi):
        step = math.pi / 2 / 99
        assert _near_eigenstate((1.0, phi, 0.0), 1 / 99, step)
        assert _near_eigenstate((1.0 - 1 / 99, phi, step), 1 / 99, step)

    @pytest.mark.parametrize(
        "point",
        [(1.0, math.pi / 4), (1.0, 2 * math.pi / 2 / 99), (1.0, math.pi / 4, math.pi / 4),
         (1.0, 0.0, math.pi / 2 - 2 * math.pi / 2 / 99), (1.0 - 2 / 99, 0.0)],
        ids=["bb84 diagonal", "bb84 two steps", "six diagonal", "six two steps", "inside"],
    )
    def test_off_axis_argmin_is_rejected(self, point):
        assert not _near_eigenstate(point, 1 / 99, math.pi / 2 / 99)

    def test_reports_are_deterministic(self):
        a = grid_search_min(SIX, 1.8, resolution=50)
        b = grid_search_min(SIX, 1.8, resolution=50)
        assert a == b

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            grid_search_min(BB84, 2.0, resolution=10)

    def test_six_state_resolution_capped(self):
        report = grid_search_min(SIX, 2.0, resolution=500)
        assert report.resolution == 100

    @settings(max_examples=60, deadline=None)
    @given(
        st.data(),
        st.sampled_from([BB84, SIX]),
        st.just(2.0) | st.floats(min_value=-15.0, max_value=0.0).map(lambda x: 1.0 + 10.0**x),
        st.sampled_from([None, 1, 997, 4099]),
    )
    def test_streamed_search_matches_whole_grid(self, data, family, alpha, chunk_points):
        # Small chunks cut BB84 grids into many chunks too, and their heights
        # rarely divide the row count; None keeps the module's chunk size.
        top = 400 if family is BB84 else 100
        resolution = data.draw(st.integers(min_value=50, max_value=top), label="resolution")
        with mock.patch.object(verify, "_CHUNK_POINTS", chunk_points or verify._CHUNK_POINTS):
            report = grid_search_min(family, alpha, resolution)
        expected = whole_grid_search_min(family, alpha, resolution)
        assert report == expected  # every field but the (empty) witness
        assert repr(report.worst_margin) == repr(expected.worst_margin)

    @pytest.mark.parametrize(
        "family,alpha,resolution",
        [(BB84, 2.0, 1500), (BB84, 1.3, 1500), (SIX, 2.0, 100), (SIX, 1.0001, 100)],
    )
    def test_command_line_grids_match_whole_grid(self, family, alpha, resolution):
        assert grid_search_min(family, alpha, resolution) == whole_grid_search_min(
            family, alpha, resolution
        )

    def test_memory_does_not_grow_with_resolution(self):
        grid_search_min(BB84, 1.5, resolution=50)  # first-use caches stay out of the peaks
        peaks = []
        for resolution in (1500, 3000):
            tracemalloc.start()
            try:
                grid_search_min(BB84, 1.5, resolution)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a whole 3000^2 grid is 69 MiB per array
        assert peaks[1] < 8 * 2**20
        assert abs(peaks[1] - peaks[0]) < 2**20

    @pytest.mark.parametrize(
        "resolution", [10_001, 100_000_000, 10**400], ids=["10001", "1e8", "1e400"]
    )
    def test_oversized_grid_is_refused_before_allocating(self, resolution):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"10\^8 points"):
                grid_search_min(BB84, 2.0, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_largest_grids_are_not_refused(self):
        # six-state is capped at 100 per axis, 10^6 points, whatever is asked
        assert grid_search_min(SIX, 2.0, resolution=10**400).resolution == 100
        assert verify._MAX_GRID_POINTS == 10_000**2 > 3000**2

    @pytest.mark.parametrize("family", [BB84, SIX])
    @pytest.mark.parametrize("s", [1e-15, 1e-12, 1e-9, 3.0e-6, 4.3e-6])
    def test_alpha_near_one_passes(self, family, s):
        # Each order was refused (alpha - 1 below 3.0e-6 for BB84, 4.3e-6 for
        # six-state) rather than verified.
        report = grid_search_min(family, 1.0 + s, resolution=50)
        assert report.passed
        assert abs(report.worst_margin) <= 1e-13
        assert report.argmin == (1.0,) + (0.0,) * (family.bases_per_qubit - 1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.data(),
        st.sampled_from([BB84, SIX]),
        st.just(2.0) | st.floats(math.log10(4.3e-6), 0.0).map(lambda x: 1.0 + 10.0**x),
    )
    def test_verdict_matches_entropy_space_search(self, data, family, alpha):
        # Where the earlier -log2(P)/s search was accurate enough to give a
        # verdict, the verdicts and argmins agree and the margins differ by no
        # more than its rounding, (8B + 3) 2^-53 / (s ln 2).
        top = 400 if family is BB84 else 100
        resolution = data.draw(st.integers(min_value=50, max_value=top), label="resolution")
        report = grid_search_min(family, alpha, resolution)
        expected = entropy_space_grid_search_min(family, alpha, resolution)
        assert (report.passed, report.argmin) == (expected.passed, expected.argmin)
        rounding = (8 * family.bases_per_qubit + 3) * 2.0**-53 / ((alpha - 1.0) * math.log(2.0))
        assert abs(report.worst_margin - expected.worst_margin) <= rounding + 1e-15


class TestStationarySigns:
    def test_report_passes(self):
        report = stationary_signs()
        assert report.passed
        assert report.resolution == 1000
        assert report.worst_margin >= -1e-12

    def test_endpoint_values(self):
        assert endpoint_curvature(1.0) == 0.0
        assert endpoint_curvature(0.5) == pytest.approx(-0.10983495705504469, abs=1e-14)
        assert abs(midpoint_curvature(1.0)) <= 1e-15
        assert midpoint_curvature(0.5) == pytest.approx(0.05944225041791514, abs=1e-14)

    def test_midpoint_curvature_is_scaled_gap(self):
        # the midpoint curvature is the gap at a = 1/sqrt(2), scaled
        for s in np.linspace(0.05, 1.0, 30):
            expected = (1 + s) / 2 ** (2 + s) * curvature_gap(1 / math.sqrt(2), s)
            assert midpoint_curvature(s) == pytest.approx(expected, abs=1e-14)

    def test_rejects_bad_grid(self):
        for grid in ([0.0, 0.5], [0.5, 1.5], [math.nan], [0.5, math.nan], []):
            with pytest.raises(ValueError, match=r"^s grid must be nonempty and lie in \(0, 1\]$"):
                stationary_signs(grid)


class TestCurvatureGap:
    def test_vanishes_at_s_one(self):
        for a in np.linspace(0.0, 0.99, 50):
            assert abs(curvature_gap(float(a), 1.0)) <= 1e-12

    def test_point_value(self):
        assert curvature_gap(0.5, 0.5) == pytest.approx(0.08007889124032785, abs=1e-14)

    def test_small_a_limit(self):
        for s in np.linspace(0.05, 1.0, 20):
            assert abs(curvature_gap(1e-4, float(s))) <= 1e-7
        assert curvature_gap(0.0, 0.5) == 0.0

    def test_series_agrees_where_truncation_is_negligible(self):
        # 20-term truncation error decays like a^22, immaterial below a ~ 0.4
        for a in np.linspace(0.0, 0.35, 15):
            for s in np.linspace(0.05, 1.0, 15):
                assert curvature_gap(float(a), float(s)) == pytest.approx(
                    curvature_gap_series(float(a), float(s), 20), abs=1e-9
                )

    def test_series_truncation_from_below(self):
        # all series terms are nonnegative, so truncation underestimates, and
        # by no more than the remainder bound that sizes criterion 8b's order
        for a in (0.5, 0.7, 0.9):
            for s in (0.2, 0.5, 0.8):
                tail = curvature_gap(a, s) - curvature_gap_series(a, s, 20)
                assert -1e-15 <= tail <= series_remainder_bound(a, s, 20) + 1e-15

    def test_high_order_series_is_finite(self):
        # a factorial-form recursion overflows to nan from order 170 on
        for s in np.arange(1, 101) / 100.0:
            value = curvature_gap_series(0.9, float(s), 240)
            assert math.isfinite(value)
            assert value == pytest.approx(curvature_gap(0.9, float(s)), abs=1e-9)

    def test_longer_series_converges(self):
        assert curvature_gap_series(0.5, 0.5, 60) == pytest.approx(
            curvature_gap(0.5, 0.5), abs=1e-12
        )

    def test_sweep_passes(self):
        report = curvature_gap_sweep()
        assert report.passed
        assert report.worst_margin >= -1e-12
        assert report.resolution == 100 * 100

    @pytest.mark.parametrize(
        "a_grid, s_grid, message",
        [
            ([], None, r"^a grid must be nonempty and lie in \[0, 1\)$"),
            ([0.5, 1.0], None, r"^a grid"),
            ([0.5, math.nan], None, r"^a grid"),
            (None, [], r"^s grid must be nonempty and lie in \(0, 1\]$"),
            (None, [0.0, 0.5], r"^s grid"),
            (None, [math.nan], r"^s grid"),
        ],
    )
    def test_sweep_refuses_bad_grid(self, a_grid, s_grid, message):
        with pytest.raises(ValueError, match=message):
            curvature_gap_sweep(a_grid, s_grid)

    @pytest.mark.parametrize(
        "a_grid, s_grid",
        [([0.9, 0.0, 0.3], [0.7, 0.2, 0.45]), ([0.95, 0.4, 0.15, 0.6], [0.3, 0.8, 0.05])],
    )
    def test_sweep_matches_scalar_loop(self, a_grid, s_grid):
        # the first least cell in a-major order; a = 0 ties at exactly 0
        cells = [(curvature_gap(a, s), (a, s)) for a in a_grid for s in s_grid]
        worst, worst_at = min(cells, key=lambda cell: cell[0])
        report = curvature_gap_sweep(a_grid, s_grid)
        assert report.argmin == worst_at
        assert report.worst_margin == pytest.approx(worst, rel=1e-13, abs=1e-15)
        assert report.resolution == len(a_grid) * len(s_grid)

    def test_domain(self):
        for func in (curvature_gap, curvature_gap_series):
            for a in (1.0, 5.0, -0.1, math.nan):
                with pytest.raises(ValueError, match="^a must"):
                    func(a, 0.5)
            for s in (0.0, 1.5, math.nan):
                with pytest.raises(ValueError, match="^s must"):
                    func(0.5, s)


class TestTrials:
    def test_additivity_small_run(self):
        report = additivity_trial(2, 2.0, BB84, trials=60, seed=7)
        assert report.passed
        assert report.worst_margin >= -1e-9
        assert report.trials == 60

    def test_additivity_six_state(self):
        report = additivity_trial(2, 1.5, SIX, trials=40, seed=3)
        assert report.passed

    def test_additivity_deterministic(self):
        assert additivity_trial(2, 2.0, BB84, 25, 11) == additivity_trial(2, 2.0, BB84, 25, 11)

    def test_bell_state_no_violation(self):
        vec = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        bell = DensityOperator(np.outer(vec, vec.conj()))
        h2 = cond_renyi_entropy(outcome_table(bell, BB84), 2.0)
        assert h2 >= 2 * renyi_floor(2.0, BB84) - 1e-9

    def test_ensemble_small_run(self):
        report = ensemble_trial(2, 1.5, BB84, k_count=3, trials=30, seed=5)
        assert report.passed

    def test_ensemble_mix_of_conjugate_eigenstates(self):
        # equal mixture of a z eigenstate and an x eigenstate
        from entrobound import EnsembleMember, StateEnsemble, product_eigenstate

        ensemble = StateEnsemble(
            [
                EnsembleMember("z", 0.5, product_eigenstate(BB84, (0,), (0,))),
                EnsembleMember("x", 0.5, product_eigenstate(BB84, (1,), (0,))),
            ]
        )
        h2 = cond_renyi_entropy(outcome_table(ensemble, BB84), 2.0)
        assert h2 >= renyi_floor(2.0, BB84) - 1e-12

    def test_ensemble_of_identical_states_collapses(self):
        from entrobound import EnsembleMember, StateEnsemble, random_density

        state = random_density(1, 2, seed=17)
        single = cond_renyi_entropy(outcome_table(state, BB84), 2.0)
        ensemble = StateEnsemble(
            [EnsembleMember("a", 0.3, state), EnsembleMember("b", 0.7, state)]
        )
        mixed = cond_renyi_entropy(outcome_table(ensemble, BB84), 2.0)
        assert mixed == pytest.approx(single, abs=1e-12)

    @pytest.mark.parametrize("family", [BB84, SIX])
    @pytest.mark.parametrize("s", [1e-8, 1e-10, 1e-12])
    def test_trials_pass_near_alpha_one(self, family, s):
        # -log2(P)/s failed every additivity case (eigenstate deviations of
        # 1.6e-8 to 1.3e-4 against 1e-10) and the six-state ensemble at 1e-12.
        additivity = additivity_trial(2, 1.0 + s, family, trials=50, seed=0)
        assert additivity.passed
        ensemble = ensemble_trial(2, 1.0 + s, family, k_count=2, trials=200, seed=0)
        assert ensemble.passed

    def test_zero_weight_member_stays_out_of_the_minimum(self, monkeypatch):
        # Member 0 is a basis eigenstate, the least entropy any state has, but
        # has zero weight: the ensemble is member 1 alone, the maximally mixed
        # state, so the margin above the weakest member is 0, not 2 - 2 floor.
        mixed = np.eye(4, dtype=complex) / 4
        eigen = product_eigenstate(BB84, (0, 0), (0, 0)).matrix
        monkeypatch.setattr(
            verify, "random_densities", lambda n, ranks, seeds: np.array([eigen, mixed] * 3)
        )
        monkeypatch.setattr(verify, "checked_probabilities", lambda p: np.tile([0.0, 1.0], (3, 1)))
        report = ensemble_trial(2, 1.5, BB84, k_count=2, trials=3, seed=0)
        weakest = float(report.notes.split("weakest member=")[1].split()[0])
        assert report.passed and abs(weakest) <= 1e-15
        assert report.worst_margin == pytest.approx(2.0 - 2 * renyi_floor(1.5, BB84), abs=1e-12)

    def test_trial_validation(self):
        with pytest.raises(ValueError):
            additivity_trial(2, 2.0, BB84, trials=0, seed=1)
        with pytest.raises(ValueError):
            ensemble_trial(2, 2.0, BB84, k_count=1, trials=5, seed=1)
        with pytest.raises(ValueError, match="budget"):
            additivity_trial(5, 2.0, BB84, trials=1, seed=1)
        with pytest.raises(ValueError, match="budget"):
            ensemble_trial(4, 2.0, SIX, k_count=2, trials=1, seed=1)

    def test_over_budget_trials_refused_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("states were drawn for an over-budget trial")

        monkeypatch.setattr(verify, "random_densities", no_draw)
        budget = r"^{} qubits exceeds the {!r} table budget of {}; pass max_qubits to override$"
        with pytest.raises(ValueError, match=budget.format(7, "bb84", 4)):
            additivity_trial(7, 2.0, BB84, trials=8, seed=1)
        with pytest.raises(ValueError, match=budget.format(4, "six", 3)):
            ensemble_trial(4, 2.0, SIX, k_count=2, trials=8, seed=1)

    @pytest.mark.parametrize(
        "family,n,alpha,trials,seed",
        [
            (BB84, 1, 2.0, 12, 1),
            (BB84, 2, 1.5, 40, 2),
            (BB84, 4, 1.1, 6, 3),
            (SIX, 1, 1.9, 12, 4),
            (SIX, 3, 1.3, 8, 5),
        ],
    )
    def test_batched_additivity_matches_per_trial_loop(self, family, n, alpha, trials, seed):
        report = additivity_trial(n, alpha, family, trials, seed)
        passed, worst_index, worst = reference_additivity(n, alpha, family, trials, seed)
        assert report.passed == passed
        assert report.argmin == (float(worst_index),)
        assert abs(report.worst_margin - worst) <= 1e-12

    @pytest.mark.parametrize(
        "family,n,alpha,k_count,trials,seed",
        [
            (BB84, 1, 2.0, 2, 12, 6),
            (BB84, 2, 1.5, 3, 20, 7),
            (BB84, 4, 1.2, 2, 4, 8),
            (SIX, 2, 1.7, 4, 8, 9),
            (SIX, 3, 2.0, 2, 4, 10),
        ],
    )
    def test_batched_ensemble_matches_per_trial_loop(self, family, n, alpha, k_count, trials, seed):
        report = ensemble_trial(n, alpha, family, k_count, trials, seed)
        passed, worst_index, worst = reference_ensemble(n, alpha, family, k_count, trials, seed)
        assert report.passed == passed
        assert report.argmin == (float(worst_index),)
        assert abs(report.worst_margin - worst) <= 1e-12

    @pytest.mark.parametrize(
        "run,count",
        [
            (lambda: ensemble_trial(1, 2.0, BB84, k_count=3, trials=5, seed=3), 3),
            (lambda: additivity_trial(2, 1.5, SIX, trials=7, seed=4), 1),
        ],
        ids=["ensemble", "additivity"],
    )
    def test_witness_round_trips_through_json(self, run, count):
        report = run()
        assert report.witness.shape[0] == count
        assert not report.witness.flags.writeable
        assert "re/im" not in report.notes
        states = json.loads(json.dumps(report.to_json_dict()))["witness"]
        assert len(states) == count
        for pairs, expected in zip(states, report.witness):
            dim = expected.shape[0]
            matrix = np.array([re + 1j * im for re, im in pairs]).reshape(dim, dim)
            assert np.array_equal(DensityOperator(matrix).matrix, expected)

    def test_witness_is_the_worst_trial(self):
        report = additivity_trial(2, 2.0, BB84, trials=9, seed=21)
        worst = int(report.argmin[0])
        trial_seeds = np.random.SeedSequence(21).generate_state(9, dtype=np.uint64)
        state = random_density(2, 1 + worst % 4, int(trial_seeds[worst]))
        assert np.array_equal(report.witness, state.matrix[None])

    @pytest.mark.parametrize("family,n", [(BB84, 1), (BB84, 4), (SIX, 3)])
    def test_eigenstate_probes_are_one_cached_read_only_stack(self, family, n):
        stack = _probe_states(family, n)
        assert _probe_states(family, n) is stack
        assert not stack.flags.writeable
        expected = [product_eigenstate(family, t, x).matrix for t, x in _eigenstate_probes(family, n)]
        assert np.array_equal(stack, expected)

    def test_witness_is_left_out_of_equality(self):
        report = stationary_signs()
        assert report.witness.shape == (0, 0, 0)
        assert report.to_json_dict()["witness"] == []
        other = dataclasses.replace(report, witness=np.eye(2, dtype=complex)[None] / 2)
        assert other == report


class TestFigureRows:
    def test_rows_sorted_and_dominated(self):
        rows = figure_rows([0.47, 0.45], [0.1, 1e-6, 1e-3])
        keys = [(row.rate, row.epsilon) for row in rows]
        assert keys == sorted(keys)
        for row in rows:
            assert row.n_new <= row.n_legacy

    def test_reference_row(self):
        (row,) = figure_rows([0.4894], [0.1])
        assert row.n_legacy == legacy_min_n(0.0106, 0.1)
        assert 2.3e4 <= row.n_new <= 2.4e4

    def test_moderate_rate_row(self):
        (row,) = figure_rows([0.45], [0.1])
        assert row.n_legacy == 6_320_284
        assert 1.0e3 <= row.n_new <= 1.2e3

    def test_high_epsilon_row_still_finite(self):
        (row,) = figure_rows([0.49], [0.49])
        assert row.n_new is not None and row.n_legacy is not None
        assert row.n_new <= row.n_legacy

    def test_validation(self):
        with pytest.raises(ValueError):
            figure_rows([0.55], [0.1])
        with pytest.raises(ValueError):
            figure_rows([0.45], [1.5])
        with pytest.raises(ValueError):
            figure_rows([0.45], [0.1], SIX)


def test_report_json_schema():
    report = stationary_signs()
    doc = report.to_json_dict()
    assert list(doc) == [
        "suite",
        "pass",
        "worst_margin",
        "argmin",
        "resolution",
        "trials",
        "seed",
        "notes",
        "witness",
    ]
    json.dumps(doc)  # must be serialisable as-is
    assert doc["pass"] is True
    assert isinstance(doc["argmin"], list)
