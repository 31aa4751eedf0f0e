"""Verification suites: surfaces, grid searches, sign checks and trials."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
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
from entrobound.entropy import renyi_entropies
from entrobound.simulator import DensityOperator, product_eigenstate
from entrobound import bounds, verify
from entrobound.verify import _eigenstate_probes, _probe_states
from helpers import (
    entropy_space_grid_search_min,
    reference_additivity,
    reference_ensemble,
    series_remainder_bound,
    whole_grid_search_min,
)

BB84 = MeasurementFamily.BB84
SIX = MeasurementFamily.SIX_STATE
# The grid verdict's bound on |margin|: table entropies within 1e-13 bits,
# and a floor below 1 bit within 4e-16 relative.
T = 1e-13 + 4e-16


def planted_excess(entropy):
    """A stand-in for ``verify._bloch_excess`` whose grid points have the entropies ``entropy``.

    ``entropy(s, radius, direction, x)`` gives the bits of the points
    ``radius * direction``, whose Bloch components are stacked on the last
    axis of ``x``; the search then computes them to rounding, as
    :func:`planted_bits`.
    """

    def excess(s, radius, direction, work=None):
        x = np.stack(np.broadcast_arrays(*(radius * u for u in direction)), axis=-1)
        return np.expm1(-s * math.log(2.0) * entropy(s, radius, direction, x))

    return excess


def planted_bits(h, s):
    """The bits the grid search computes for a point planted at entropy ``h``."""
    return float(verify._excess_bits(np.expm1(-s * math.log(2.0) * h), s))


def excess_shapes(monkeypatch):
    """Record the broadcast shape of every ``verify._bloch_excess`` call the search makes."""
    shapes = []
    exact = verify._bloch_excess

    def spy(s, radius, direction, work=None):
        total = exact(s, radius, direction, work)
        shapes.append(total.shape)
        return total

    monkeypatch.setattr(verify, "_bloch_excess", spy)
    return shapes


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
        assert grid_search_min(BB84, 1.5, resolution=80).argmin == (1.0, 0.0)

    def test_reports_are_deterministic(self):
        a = grid_search_min(SIX, 1.8, resolution=50)
        b = grid_search_min(SIX, 1.8, resolution=50)
        assert a == b

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            grid_search_min(BB84, 2.0, resolution=10)

    @pytest.mark.parametrize(
        "at,depth,passed",
        [("eigenstate", T / 2, True), ("eigenstate", 1e-10, False), ("eigenstate", 1e-6, False),
         ("diagonal", T / 2, False), ("diagonal", 1e-10, False)],
        ids=["eigenstate-within-T", "eigenstate-1e-10", "eigenstate-1e-6", "diagonal-within-T",
             "diagonal-1e-10"],
    )
    def test_verdict_on_a_planted_minimum(self, monkeypatch, at, depth, passed):
        # A minimum planted `depth` below the floor at r = 1 and phi = 0 (the
        # eigenstate grid point) or phi = pi/4 (none, with every other point
        # lifted 1e-11 so that the r = 1 arc does not tie with it): the grid
        # may undershoot the floor by T, and only at the eigenstate.
        floor = renyi_floor(2.0, BB84)
        exact = verify._bloch_excess

        def entropy(s, radius, direction, x):
            h = verify._excess_bits(exact(s, radius, direction), s)
            if at == "eigenstate":
                spot = x[..., 1] == 1.0
            else:
                spot = (np.abs(x[..., 0] - x[..., 1]) < 1e-9) & (x[..., 0] > 0.7)
                h = h + 1e-11
            return np.where(spot, floor - depth, h)

        monkeypatch.setattr(verify, "_bloch_excess", planted_excess(entropy))
        report = grid_search_min(BB84, 2.0, resolution=51)
        phi = 0.0 if at == "eigenstate" else math.pi / 4
        assert report.argmin == pytest.approx((1.0, phi))
        assert report.worst_margin == pytest.approx(-depth, abs=1e-15)
        assert f"argmin at eigenstate (1.0, 0.0): {at == 'eigenstate'}" in report.notes
        assert report.passed == passed

    @pytest.mark.parametrize("family", [BB84, SIX])
    @pytest.mark.parametrize("offset,passed", [(-2e-15, True), (2e-15, False)])
    def test_verdict_on_a_minimum_planted_above_the_floor(
        self, monkeypatch, family, offset, passed
    ):
        # Every table entropy raised by just under or over T: the minimum
        # stays at the eigenstate grid point, so the verdict turns on T alone.
        # The 2e-15 covers the unlifted margin and the planting's rounding
        # (each at most a few 1e-16).
        exact = verify._bloch_excess
        lift = T + offset

        def lifted(s, radius, direction, x):
            return verify._excess_bits(exact(s, radius, direction), s) + lift

        monkeypatch.setattr(verify, "_bloch_excess", planted_excess(lifted))
        report = grid_search_min(family, 2.0, resolution=50)
        eigenstate = (1.0,) + (0.0,) * (family.bases_per_qubit - 1)
        assert report.argmin == eigenstate
        assert report.worst_margin == pytest.approx(lift, abs=1e-15)
        assert f"needs |margin| <= {T!r}" in report.notes
        assert f"argmin at eigenstate {eigenstate}: True" in report.notes
        assert report.passed == passed

    @pytest.mark.parametrize("family", [BB84, SIX])
    @pytest.mark.parametrize("alpha", [1.0 + 1e-12, 1.3, 2.0])
    @pytest.mark.parametrize("shift", [-1e-10, 1e-10])
    def test_a_floor_off_by_1e_10_fails(self, monkeypatch, family, alpha, shift):
        # The relation is tight and its attaining state is a grid point, so a
        # floor lowered (too conservative) or raised by 1e-10 bits is caught.
        exact = verify.renyi_floor
        monkeypatch.setattr(verify, "renyi_floor", lambda a, f: exact(a, f) + shift)
        report = grid_search_min(family, alpha, resolution=50)
        assert report.argmin == (1.0,) + (0.0,) * (family.bases_per_qubit - 1)
        assert report.passed is False

    @pytest.mark.parametrize(
        "excess,argmin", [(0.9e-12, (0.0, 0.0)), (1.1e-12, (1.0, 0.0))], ids=["tie", "no tie"]
    )
    def test_ties_within_1e_12_go_to_the_first_point(self, monkeypatch, excess, argmin):
        # A planted surface: the eigenstate r = 1, phi = 0 at the floor, the
        # centre r = 0 (all of row 0) `excess` above it and every other point
        # 1 bit above. Row 0 lies within the bits cut W, so it is reduced; it
        # holds the argmin only when it ties within 1e-12.
        floor = renyi_floor(2.0, BB84)

        def entropy(s, radius, direction, x):
            h = np.full(x.shape[:-1], floor + 1.0)
            h[np.all(x == 0.0, axis=-1)] = floor + excess
            h[(x[..., 0] == 0.0) & (x[..., 1] == 1.0)] = floor
            return h

        monkeypatch.setattr(verify, "_bloch_excess", planted_excess(entropy))
        report = grid_search_min(BB84, 2.0, resolution=51)
        assert report.argmin == argmin
        assert report.worst_margin == planted_bits(floor, 1.0) - floor

    @pytest.mark.parametrize("family", [BB84, SIX])
    @pytest.mark.parametrize("resolution", [50, 51])
    def test_ranking_evaluates_half_the_first_angle(self, monkeypatch, family, resolution):
        # phi -> pi/2 - phi swaps two Bloch components, so the ranking pass
        # evaluates the excess on phi columns 0 .. ceil(resolution/2) - 1
        # only; the kept row and the argmin row are then evaluated whole.
        shapes = excess_shapes(monkeypatch)
        report = grid_search_min(family, 1.5, resolution)
        assert report.passed
        half = -(-resolution // 2)
        ranked = [shape for shape in shapes if shape[1] == half]
        whole = [shape for shape in shapes if shape[1] == resolution]
        assert len(ranked) + len(whole) == len(shapes)
        row_points = resolution ** (family.bases_per_qubit - 2)
        assert sum(math.prod(shape) for shape in ranked) == resolution * half * row_points
        assert sum(shape[0] for shape in whole) == 2  # one kept row, then the argmin row

    @pytest.mark.parametrize(
        "family,resolution", [(BB84, 1500), (SIX, 101)], ids=["bb84-1500", "six-101"]
    )
    @pytest.mark.parametrize("alpha", [1.3, 1.0 + 1e-15])
    def test_the_cut_keeps_one_row(self, monkeypatch, family, resolution, alpha):
        # The bits cut does not depend on s: near alpha = 1 it keeps the
        # r = 1 row alone, as it does at 1.3.
        shapes = excess_shapes(monkeypatch)
        report = grid_search_min(family, alpha, resolution)
        assert report.passed
        kept = sum(shape[0] for shape in shapes if shape[1] == resolution) - 1
        assert kept == 1

    @pytest.mark.parametrize("family", [BB84, SIX])
    def test_a_row_maximum_on_the_middle_column_is_ranked(self, monkeypatch, family):
        # A planted surface, symmetric under swapping x_0 and x_1: the centre
        # row r = 0 one bit above the floor, the diagonal x_0 = x_1 of the
        # r = 1 row (far from the x_0 = x_1 = 0 pole) half a bit below it, and
        # every other point two bits above it. At odd resolution the diagonal
        # is the middle phi column, the last one ranked: without it the r = 1
        # row would rank below the centre row.
        floor = renyi_floor(2.0, family)

        def entropy(s, radius, direction, x):
            h = np.full(x.shape[:-1], floor + 2.0)
            h[np.all(x == 0.0, axis=-1)] = floor + 1.0
            diagonal = np.abs(x[..., 0] - x[..., 1]) < 1e-9
            h[diagonal & (x[..., 0] + x[..., 1] > 1.4)] = floor - 0.5
            return h

        monkeypatch.setattr(verify, "_bloch_excess", planted_excess(entropy))
        report = grid_search_min(family, 2.0, resolution=51)
        assert report.argmin[:2] == (1.0, np.linspace(0.0, math.pi / 2.0, 51)[25])
        assert report.worst_margin == planted_bits(floor - 0.5, 1.0) - floor

    @pytest.mark.parametrize("family", [BB84, SIX])
    def test_a_row_inside_the_rounding_and_mirror_terms_of_the_cut_is_reduced(
        self, monkeypatch, family
    ):
        # A planted surface: the eigenstates (one component 1) at the floor,
        # every point 1 bit above it, save the radius row 10 of 50. Its ranked phi
        # columns lie 1.1e-12 above the floor, past the 1e-12 tie window but
        # within the cut W, and its unranked columns near phi = pi/2 (their
        # mirrors are ranked) hold a minimum 1e-3 below the floor. Without the
        # rounding and mirror terms of W the row is cut and the minimum missed.
        s = 0.5
        floor = renyi_floor(1.0 + s, family)
        row = np.linspace(0.0, 1.0, 50)[10]

        def entropy(s, radius, direction, x):
            h = np.full(x.shape[:-1], floor + 1.0)
            h[np.abs(x).max(axis=-1) > 1.0 - 1e-9] = floor
            in_row = np.abs(np.linalg.norm(x, axis=-1) - row) < 1e-12
            h[in_row] = floor + 1.1e-12
            h[in_row & (x[..., 0] > 0.99 * row)] = floor - 1e-3
            return h

        monkeypatch.setattr(verify, "_bloch_excess", planted_excess(entropy))
        report = grid_search_min(family, 1.0 + s, resolution=50)
        assert report.argmin[0] == row
        assert report.argmin[1] > math.pi / 4  # an unranked column
        assert report.worst_margin == pytest.approx(-1e-3, abs=1e-12)

    def test_six_state_searched_at_resolution_asked(self):
        report = grid_search_min(SIX, 2.0, resolution=101)
        assert report.resolution == 101
        assert report.passed and report.argmin == (1.0, 0.0, 0.0)

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

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=3).flatmap(
            lambda bases: st.lists(
                st.lists(
                    st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
                    min_size=bases,
                    max_size=bases,
                ),
                min_size=1,
                max_size=8,
            )
        ),
        st.floats(min_value=-15.0, max_value=0.0).map(lambda x: 1.0 + 10.0**x),
    )
    def test_point_excess_bits_equal_the_table_reduction(self, points, alpha):
        # The search's one per-point formula against the shared reduction of
        # the stacked tables ((1 + x_i)/2, (1 - x_i)/2), bit for bit.
        x = np.array(points)
        s = alpha - 1.0
        lean = verify._excess_bits(verify._bloch_excess(s, 1.0, list(x.T)), s)
        tables = np.stack([(1.0 + x) / 2.0, (1.0 - x) / 2.0], axis=-1)
        expected = renyi_entropies(1.0 / x.shape[1], tables, alpha)
        assert lean.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "family,alpha,resolution",
        [(BB84, 2.0, 1500), (BB84, 1.3, 1500), (SIX, 2.0, 100), (SIX, 1.0001, 100),
         (BB84, 1.3, 1501), (SIX, 1.3, 101), (BB84, 1.0 + 1e-12, 1501), (SIX, 1.0 + 1e-12, 101),
         (BB84, 1.0 + 3e-14, 1501), (SIX, 1.0 + 3e-14, 101)],
    )
    def test_command_line_grids_match_whole_grid(self, family, alpha, resolution):
        # Odd resolutions rank the middle phi column; near alpha = 1 the
        # excess keeps its relative accuracy, so the cut in bits still holds.
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
        "family,resolution",
        [(BB84, 10_001), (BB84, 100_000_000), (BB84, 10**400), (SIX, 465), (SIX, 10**400)],
        ids=["10001", "1e8", "1e400", "six-465", "six-1e400"],
    )
    def test_oversized_grid_is_refused_before_allocating(self, family, resolution):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"10\^8 points"):
                grid_search_min(family, 2.0, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_largest_grids_are_not_refused(self):
        # 10^4 squared and 464 cubed fit in 10^8 points; the first array built
        # after the size check stands in for the 0.5-1 s search
        class Allocated(Exception):
            pass

        for family, resolution in ((BB84, 10_000), (SIX, 464)):
            with mock.patch.object(verify.np, "linspace", side_effect=Allocated):
                with pytest.raises(Allocated):
                    grid_search_min(family, 2.0, resolution)

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
        # The argmins agree and the margins differ by no more than the earlier
        # -log2(P)/s search's rounding, (8B + 3) 2^-53 / (s ln 2); where that
        # leaves its margin within T, it passes as the streamed search does.
        top = 400 if family is BB84 else 100
        resolution = data.draw(st.integers(min_value=50, max_value=top), label="resolution")
        report = grid_search_min(family, alpha, resolution)
        expected = entropy_space_grid_search_min(family, alpha, resolution)
        assert report.passed and report.argmin == expected.argmin
        rounding = (8 * family.bases_per_qubit + 3) * 2.0**-53 / ((alpha - 1.0) * math.log(2.0))
        assert abs(report.worst_margin - expected.worst_margin) <= rounding + 1e-15
        if abs(report.worst_margin) + rounding + 1e-15 <= T:  # its margin within T too
            assert expected.passed


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

    @pytest.mark.parametrize("dip,passed", [(1e-13, True), (1e-6, False)])
    def test_verdict_at_its_tolerance(self, monkeypatch, dip, passed):
        # a midpoint curvature `dip` below zero, against a tolerance of 1e-12
        monkeypatch.setattr(verify, "midpoint_curvature", lambda s: np.full_like(s, -dip))
        report = stationary_signs([0.25, 0.5])
        assert report.worst_margin == -dip
        assert report.passed == passed

    def test_rejects_bad_grid(self):
        for grid in ([0.0, 0.5], [0.5, 1.5], [math.nan], [0.5, math.nan], []):
            with pytest.raises(ValueError, match=r"^s grid must be nonempty and lie in \(0, 1\]$"):
                stationary_signs(grid)
        with pytest.raises(ValueError, match=r"^s grid must be one-dimensional$"):
            stationary_signs([[0.5, 0.6]])


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

    @pytest.mark.parametrize("dip,passed", [(1e-13, True), (1e-6, False)])
    def test_sweep_verdict_at_its_tolerance(self, monkeypatch, dip, passed):
        # a gap `dip` below zero everywhere, against a tolerance of 1e-12
        monkeypatch.setattr(verify, "_gap", lambda a, s: np.full(np.broadcast(a, s).shape, -dip))
        report = curvature_gap_sweep([0.5, 0.9], [0.5, 1.0])
        assert report.worst_margin == -dip
        assert report.passed == passed

    def test_sweep_passes(self):
        report = curvature_gap_sweep()
        assert report.passed
        assert report.worst_margin >= -1e-12
        assert report.resolution == 100 * 100

    def test_default_grids(self):
        assert curvature_gap_sweep() == curvature_gap_sweep(
            np.arange(100) / 100, np.arange(1, 101) / 100
        )
        assert stationary_signs() == stationary_signs(np.linspace(0.001, 1.0, 1000))

    @pytest.mark.parametrize(
        "a_grid, s_grid, message",
        [
            ([], None, r"^a grid must be nonempty and lie in \[0, 1\)$"),
            ([0.5, 1.0], None, r"^a grid"),
            ([0.5, math.nan], None, r"^a grid"),
            (None, [], r"^s grid must be nonempty and lie in \(0, 1\]$"),
            (None, [0.0, 0.5], r"^s grid"),
            (None, [math.nan], r"^s grid"),
            ([[0.5]], [0.5], r"^a grid"),
            ([0.5], [[0.5]], r"^s grid"),
        ],
    )
    def test_sweep_refuses_bad_grid(self, a_grid, s_grid, message):
        with pytest.raises(ValueError, match=message):
            curvature_gap_sweep(a_grid, s_grid)

    def test_a_scalar_is_a_one_point_grid(self):
        sweep = curvature_gap_sweep(0.5, 0.25)
        assert sweep == curvature_gap_sweep([0.5], [0.25])
        assert sweep.argmin == (0.5, 0.25) and sweep.resolution == 1
        signs = stationary_signs(0.25)
        assert signs == stationary_signs([0.25])
        assert signs.argmin == (0.25,) and signs.resolution == 1

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

    @pytest.mark.parametrize("part", ["trials", "probes"])
    @pytest.mark.parametrize("lowered,passed", [(1e-11, True), (1e-6, False)])
    def test_additivity_verdict_at_its_tolerances(self, monkeypatch, part, lowered, passed):
        # Trial states that attain the floor, then the eigenstate probes, with
        # the entropies of one part lowered: a trial margin may go down to
        # -1e-9, and a probe may deviate from the floor by up to 1e-10.
        eigen = product_eigenstate(BB84, (0, 0), (0, 0)).matrix
        monkeypatch.setattr(
            verify, "random_densities", lambda n, ranks, seeds: np.array([eigen] * len(ranks))
        )
        exact = verify.renyi_entropies
        trials = 3

        def lowered_entropies(weights, rows, alpha):
            in_part = (np.arange(len(rows)) < trials) == (part == "trials")
            return exact(weights, rows, alpha) - lowered * in_part

        monkeypatch.setattr(verify, "renyi_entropies", lowered_entropies)
        report = additivity_trial(2, 1.5, BB84, trials=trials, seed=0)
        assert report.passed == passed
        worst = -lowered if part == "trials" else 0.0
        assert report.worst_margin == pytest.approx(worst, abs=1e-14)

    @pytest.mark.parametrize("members", ["mixed", "eigenstates"])
    @pytest.mark.parametrize("lowered,passed", [(1e-11, True), (1e-6, False)])
    def test_ensemble_verdict_at_its_tolerances(self, monkeypatch, members, lowered, passed):
        # Maximally mixed members, with the table entropies alone lowered,
        # move only the margin above the weakest member (allowed down to
        # -1e-10), as their 2 bits lie far above the floor. Members that
        # attain the floor, with every entropy lowered, move only the margin
        # above the floor (allowed down to -1e-9).
        if members == "mixed":
            state = np.eye(4, dtype=complex) / 4
        else:
            state = product_eigenstate(BB84, (0, 0), (0, 0)).matrix
        monkeypatch.setattr(
            verify, "random_densities", lambda n, ranks, seeds: np.array([state] * len(ranks))
        )
        exact = verify._excess_entropies

        def lowered_entropies(weights, excess, s):
            entropies = exact(weights, excess, s)
            members_own = entropies.ndim == 2  # the tables' are (trials,), the members' (trials, k)
            return entropies if members == "mixed" and members_own else entropies - lowered

        monkeypatch.setattr(verify, "_excess_entropies", lowered_entropies)
        report = ensemble_trial(2, 1.5, BB84, k_count=2, trials=3, seed=0)
        weakest = float(report.notes.split("weakest member=")[1].split()[0])
        assert report.passed == passed
        if members == "mixed":
            assert weakest == pytest.approx(-lowered, abs=1e-14)
            assert report.worst_margin == pytest.approx(2.0 - 2 * renyi_floor(1.5, BB84), abs=1e-6)
        else:
            assert weakest == pytest.approx(0.0, abs=1e-14)
            assert report.worst_margin == pytest.approx(-lowered, abs=1e-14)

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
        with pytest.raises(ValueError, match="trials must be >= 1"):
            ensemble_trial(2, 2.0, BB84, k_count=2, trials=0, seed=1)

    @pytest.mark.parametrize(
        "trial,family,n,trials,states",
        [
            ("additivity", BB84, 2, 524_286, 524_289),  # one state past 2^23 / 4^2
            ("additivity", SIX, 2, 233_014, 233_017),  # one state past 2^23 / 6^2
            ("ensemble", BB84, 2, 262_145, 524_290),  # one trial past 2^23 / (2 x 4^2)
            ("additivity", BB84, 2, 10**7, 10**7 + 3),
            ("ensemble", SIX, 2, 10**12, 2 * 10**12),
            ("additivity", SIX, 2, 10**400, 10**400 + 3),
            ("additivity", BB84, 12, 1, 4),  # one 12-qubit table alone is over the limit
            ("ensemble", SIX, 9, 1, 2),  # as is one 9-qubit six-state table
            ("ensemble", BB84, 10**9, 1, 2),  # no power of the qubit count is formed
        ],
        ids=["bb84-limit", "six-limit", "ensemble-limit", "1e7", "1e12", "1e400", "bb84-12",
             "six-9", "huge-n"],
    )
    def test_trials_beyond_the_entry_limit_refused_before_drawing(
        self, monkeypatch, trial, family, n, trials, states
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("a trial beyond the entry limit seeded or drew states")

        monkeypatch.setattr(verify, "random_densities", no_draw)
        monkeypatch.setattr(np.random, "SeedSequence", no_draw)
        per_state = 2 * family.bases_per_qubit
        message = (
            rf"^{states} {family.value} outcome tables of {n} qubits hold {states} x "
            rf"{per_state}\^{n} entries, more than the limit of 8388608$"
        )
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                if trial == "additivity":
                    additivity_trial(n, 2.0, family, trials, seed=1)
                else:
                    ensemble_trial(n, 2.0, family, 2, trials, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "trial,family,trials",
        [("additivity", BB84, 524_285), ("additivity", SIX, 233_013), ("ensemble", BB84, 262_144)],
    )
    def test_trials_at_the_entry_limit_are_accepted(self, trial, family, trials):
        # 524,288 BB84 and 233,016 six-state two-qubit tables fit in 2^23
        # entries; seeding, which follows the check, stands in for the run
        class Allocated(Exception):
            pass

        with mock.patch.object(np.random, "SeedSequence", side_effect=Allocated):
            with pytest.raises(Allocated):
                if trial == "additivity":
                    additivity_trial(2, 2.0, family, trials, seed=1)
                else:
                    ensemble_trial(2, 2.0, family, 2, trials, seed=1)

    @pytest.mark.parametrize("family,n", [(BB84, 5), (BB84, 6), (SIX, 4), (SIX, 5)])
    @pytest.mark.parametrize("alpha", [2.0, 1.3])
    def test_trials_pass_beyond_the_benchmark_sizes(self, family, n, alpha):
        assert additivity_trial(n, alpha, family, trials=8, seed=n).passed
        assert ensemble_trial(n, alpha, family, 2, trials=4, seed=n).passed

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

    def test_large_probe_stacks_are_not_held(self):
        # A 10-qubit probe stack is 48 MiB; only the stacks of up to 4 qubits,
        # which the trials reuse, stay cached.
        additivity_trial(2, 2.0, BB84, trials=1, seed=0)  # first-use caches stay out
        tracemalloc.start()
        try:
            additivity_trial(10, 2.0, BB84, trials=1, seed=0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 * 2**20

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

    def test_legacy_column_at_the_largest_rate_below_half(self):
        # delta = 2^-54 at eps = 5e-324 is the largest legacy block length a
        # figure can ask for, far below legacy_min_n's 2^1022 refusal
        (row,) = figure_rows([math.nextafter(0.5, 0.0)], [5e-324])
        assert row.n_new is None
        assert row.n_legacy == legacy_min_n(2.0**-54, 5e-324)
        assert 1.0e41 <= row.n_legacy < 1.01e41
        # a rate is checked as the float it is used as: a Fraction that
        # rounds to the same float gives the same row, one that rounds to
        # 1/2 is refused, as is an epsilon that rounds to 0
        assert figure_rows([Fraction(math.nextafter(0.5, 0.0))], [5e-324]) == [row]
        with pytest.raises(ValueError, match="rates must lie in"):
            figure_rows([Fraction(10**30 - 2, 2 * 10**30)], [0.1])
        with pytest.raises(ValueError, match="epsilon values must lie in"):
            figure_rows([0.45], [Fraction(1, 10**400)])

    def test_high_epsilon_row_still_finite(self):
        (row,) = figure_rows([0.49], [0.49])
        assert row.n_new is not None and row.n_legacy is not None
        assert row.n_new <= row.n_legacy

    @pytest.mark.parametrize("points,accepted", [(100_000, True), (100_001, False)])
    def test_row_limit_is_exact(self, monkeypatch, points, accepted):
        # The first inversion, the first work after the check, stands in for the rows.
        class Inverted(Exception):
            pass

        def inverted(*args, **kwargs):
            raise Inverted

        monkeypatch.setattr(bounds, "min_n_for_rate", inverted)
        with pytest.raises(Inverted if accepted else ValueError):
            figure_rows([0.45], np.geomspace(1e-6, 0.2, points))

    def test_validation(self):
        with pytest.raises(ValueError):
            figure_rows([0.55], [0.1])
        with pytest.raises(ValueError):
            figure_rows([0.45], [1.5])


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
