"""Closed-form bounds: reference values, inversions, monotonicity, ceilings."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entrobound import (
    InfeasibleRateError,
    MeasurementFamily,
    bounds,
    legacy_epsilon,
    legacy_min_n,
    min_n_for_rate,
    plain_minentropy_rate_bb84,
    renyi_to_smooth_min_entropy,
    rate_bb84,
    rate_six,
    renyi_floor,
)
from helpers import decimal_floor, full_golden_section, rate_log_scan, rate_scan

BB84 = MeasurementFamily.BB84
SIX = MeasurementFamily.SIX_STATE

LOG2_200 = math.log2(200.0)


class TestLegacyBound:
    def test_reference_operating_point(self):
        # delta = 0.0106 needs n of order 2.4e8 to reach a 10% error
        assert 0.095 <= legacy_epsilon(239_000_000, 0.0106) <= 0.105
        n = legacy_min_n(0.0106, 0.1)
        assert n == pytest.approx(2.3975e8, rel=0.01)

    def test_doubling_squares_the_error(self):
        for n, delta in [(10_000, 0.05), (123_457, 0.2), (2_000_000, 0.0106)]:
            assert legacy_epsilon(2 * n, delta) == pytest.approx(
                legacy_epsilon(n, delta) ** 2, rel=1e-12
            )

    def test_strictly_decreasing_in_n(self):
        values = [legacy_epsilon(n, 0.05) for n in (10**3, 10**4, 10**5, 10**6, 10**7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_min_n_round_trip(self):
        for delta in (0.01, 0.05, 0.1, 0.25, 0.5):
            for eps in (1e-10, 1e-6, 1e-3, 0.1, 0.5):
                n = legacy_min_n(delta, eps)
                assert legacy_epsilon(n, delta) <= eps
                if n > 1:
                    assert legacy_epsilon(n - 1, delta) > eps

    def test_moderate_delta_value(self):
        # closed form 128 (2 + log2(2/delta))^2 ln(1/eps) / delta^2, ceil'd
        n = legacy_min_n(0.05, 0.1)
        assert n == 6_320_284
        assert legacy_epsilon(n, 0.05) <= 0.1 < legacy_epsilon(n - 1, 0.05)

    def test_n_scales_with_log_inverse_eps(self):
        base = legacy_min_n(0.0106, 0.1)
        stricter = legacy_min_n(0.0106, 0.01)
        assert stricter / base == pytest.approx(math.log(100) / math.log(10), rel=1e-6)

    @pytest.mark.parametrize("delta", [0.5, 0.1, 0.0106])
    @pytest.mark.parametrize("eps", [1e-300, 1e-310, 5e-324])
    def test_min_n_at_subnormal_eps(self, delta, eps):
        # log(1/eps) overflowed at 5e-324; below ~1e-320 the error rounds to
        # eps over up to 5e7 consecutive n, which a step-by-step fix-up walks
        n = legacy_min_n(delta, eps)
        assert legacy_epsilon(n, delta) <= eps < legacy_epsilon(n - 1, delta)

    @pytest.mark.parametrize("delta", [0.0, -0.1, 0.51, 1.0])
    def test_delta_domain(self, delta):
        with pytest.raises(ValueError):
            legacy_epsilon(1000, delta)

    @pytest.mark.parametrize("n", [0, -5, 2.5])
    def test_block_length_domain(self, n):
        with pytest.raises(ValueError):
            legacy_epsilon(n, 0.1)

    @pytest.mark.parametrize("delta, eps", [(1e-162, 0.1), (1e-155, 1e-300), (1e-150, 0.1)])
    def test_min_n_refuses_block_lengths_beyond_floats(self, delta, eps):
        # delta**2 underflows at 1e-162, and the guess overflows at 1e-155
        with pytest.raises(ValueError, match=r"exceeds 2\^1022"):
            legacy_min_n(delta, eps)

    @pytest.mark.parametrize(
        "n", [2**1024, 2**1024 - 2**970, 10**400], ids=["2^1024", "2^1024-2^970", "10^400"]
    )
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda n: legacy_epsilon(n, 0.1),
            lambda n: rate_bb84(n, 0.1),
            lambda n: rate_bb84(n, 0.1, s=0.5),
            lambda n: rate_six(n, 0.1),
            lambda n: rate_six(n, 0.1, s=0.5),
        ],
        ids=["legacy", "bb84", "bb84-fixed-s", "six", "six-fixed-s"],
    )
    def test_block_length_beyond_floats_is_refused(self, evaluate, n):
        # 2^1024 - 2^970 is the least integer that rounds past the largest float
        with pytest.raises(ValueError, match=r"^block length \d+ exceeds the largest float"):
            evaluate(n)

    def test_largest_float_block_lengths_still_evaluate(self):
        assert legacy_epsilon(2**1024 - 2**970 - 1, 0.1) == 0.0
        assert legacy_epsilon(10**300, 0.1) == 0.0
        # an integer n and its float give the same rate, bit for bit
        for n in (2**1024 - 2**970 - 1, 10**300, 2**62 + 1):
            for rate in (rate_bb84, rate_six):
                assert rate(n, 0.1) == rate(float(n), 0.1)
                assert rate(n, 0.1, s=0.5) == rate(float(n), 0.1, s=0.5)

    def test_min_n_just_inside_the_float_limit(self):
        n = legacy_min_n(2e-150, 0.1)
        assert 2**1020 < n <= 2**1022
        assert legacy_epsilon(n, 2e-150) <= 0.1 < legacy_epsilon(n - 1, 2e-150)


class TestNewRates:
    def test_reference_operating_point(self):
        result = rate_bb84(23_600, 0.1)
        # independent dense-scan oracle
        assert result.rate == pytest.approx(rate_scan(23_600, 0.1, BB84), abs=1e-9)
        assert result.rate >= 0.4894
        assert result.rate == pytest.approx(0.48940546905, abs=1e-9)
        assert 0.04 <= result.s_opt <= 0.08

    def test_large_block_asymptote(self):
        assert 0.4999 <= rate_bb84(10**12, 0.1).rate <= 0.5
        assert 0.6665 <= rate_six(10**12, 0.1).rate <= 2.0 / 3.0

    def test_small_epsilon_point(self):
        result = rate_bb84(100_000, 1e-6)
        assert result.rate == pytest.approx(rate_scan(100_000, 1e-6, BB84), abs=1e-9)
        assert result.rate == pytest.approx(0.4880, abs=2e-4)

    def test_fixed_s_matches_closed_form(self):
        for s in (0.25, 0.5, 1.0):
            for family, fn in ((BB84, rate_bb84), (SIX, rate_six)):
                result = fn(23_600, 0.1, s)
                expected = renyi_floor(1.0 + s, family) - LOG2_200 / (s * 23_600)
                assert result.rate == expected
                assert result.s_opt == s

    def test_bool_block_length_rejected(self):
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError, match="integer"):
                rate_bb84(flag, 0.1)
        with pytest.raises(ValueError, match="integer"):
            legacy_epsilon(True, 0.1)

    def test_non_finite_target_rate_rejected(self):
        for target in (math.nan, math.inf, -math.inf):
            for method in ("new", "legacy"):
                with pytest.raises(ValueError, match="finite"):
                    min_n_for_rate(target, 0.1, BB84, method)

    def test_fixed_s_understates_maximum(self):
        # plugging in s = 0.1 lands visibly below the maximised value
        fixed = rate_bb84(23_600, 0.1, s=0.1).rate
        assert fixed == pytest.approx(0.488098, abs=1e-5)
        assert rate_bb84(23_600, 0.1).rate > fixed

    def test_six_single_point_arithmetic(self):
        # at s=1: log2(3/2) minus log2(8)/100
        result = rate_six(100, 0.5, s=1.0)
        assert result.rate == pytest.approx(math.log2(1.5) - 0.03, abs=1e-14)

    def test_six_dominates_bb84(self):
        for n, eps in [(100, 0.5), (23_600, 0.1), (10**9, 1e-8)]:
            assert rate_six(n, eps).rate > rate_bb84(n, eps).rate

    def test_monotone_in_n_and_eps(self):
        ns = np.unique(np.geomspace(10, 1e8, 20).astype(int))
        epsilons = np.geomspace(1e-10, 0.9, 20)
        for fn, ceiling in ((rate_bb84, 0.5), (rate_six, 2.0 / 3.0)):
            for eps in epsilons:
                rates = [fn(int(n), float(eps)).rate for n in ns]
                assert all(b - a >= -1e-11 for a, b in zip(rates, rates[1:]))
                assert all(r <= ceiling for r in rates)
            for n in ns:
                rates = [fn(int(n), float(eps)).rate for eps in epsilons]
                assert all(b - a >= -1e-11 for a, b in zip(rates, rates[1:]))

    def test_vacuous_bound_keeps_sign(self):
        # tiny blocks give a negative certified rate; callers need the sign
        assert rate_bb84(1, 0.1).rate < 0.0
        assert rate_six(2, 0.01).rate < 0.0

    def test_s_opt_attains_reported_rate(self):
        for n, eps in [(500, 0.3), (23_600, 0.1), (10**7, 1e-6)]:
            result = rate_bb84(n, eps)
            at_s_opt = rate_bb84(n, eps, s=result.s_opt).rate
            assert abs(at_s_opt - result.rate) <= 1e-10
            assert 0.0 < result.s_opt <= 1.0

    def test_huge_blocks_optimise_below_old_s_floor(self):
        # the optimum s sits near 6e-9 here, far below a scan that stops at 1e-6
        for fn in (rate_bb84, rate_six):
            result = fn(10**18, 0.5)
            assert result.s_opt < 1e-8
            assert result.rate >= fn(10**18, 0.5, s=1e-6).rate + 5e-8
        assert rate_bb84(10**18, 0.5).rate == pytest.approx(0.49999999898, abs=1e-11)

    def test_clamped_optimum_reports_s_one(self):
        for fn, n, eps in ((rate_bb84, 10, 0.1), (rate_six, 124, 6e-16), (rate_bb84, 1, 1e-30)):
            assert fn(n, eps).s_opt == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([rate_bb84, rate_six]),
        st.integers(min_value=1, max_value=2**62),
        st.floats(min_value=-30.0, max_value=math.log10(0.9)),
    )
    @example(rate_bb84, 1, -2.300149592506294)  # the two differ by one ulp, 3.6e-15
    def test_maximiser_against_log_scan(self, fn, n, log10_eps):
        eps = 10.0**log10_eps
        family = BB84 if fn is rate_bb84 else SIX
        result = fn(n, eps)
        # the scan computes log2(2/eps^2) with numpy, the package 1 - 2 log2(eps)
        # with math: the two agree to a few 1e-16 relative, not absolute
        scan = rate_log_scan(n, eps, family)
        assert result.rate >= scan - 1e-15 * max(1.0, abs(scan))
        assert result.rate == fn(n, eps, s=result.s_opt).rate
        assert 0.0 < result.s_opt <= 1.0
        assert fn(2 * n, eps).rate >= result.rate

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([rate_bb84, rate_six]),
        st.integers(min_value=1, max_value=2**62),
        st.floats(min_value=-30.0, max_value=math.log10(0.9)),
        st.floats(min_value=-30.0, max_value=math.log10(0.9)),
    )
    def test_monotone_in_eps(self, fn, n, log10_a, log10_b):
        smaller, larger = (fn(n, 10.0**x).rate for x in sorted((log10_a, log10_b)))
        # the golden-section search may break exact monotonicity by a few 1e-16 relative
        assert smaller <= larger + 1e-15 * max(abs(smaller), abs(larger))

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([BB84, SIX]),
        st.integers(min_value=1, max_value=2**62),
        st.floats(min_value=-300.0, max_value=math.log10(0.9)),
        st.one_of(
            st.sampled_from([-1, 0, 1]).map(lambda step: ("ulp", step)),
            st.floats(min_value=-1e-6, max_value=1e-6).map(lambda gap: ("gap", gap)),
            st.floats(min_value=-2.0, max_value=0.7).map(lambda value: ("value", value)),
        ),
    )
    def test_candidates_reach_a_target_with_their_maximum(self, family, n, log10_eps, draw):
        eps_term = bounds._smoothing_term(10.0**log10_eps)
        ceiling = family.rate_ceiling
        candidates = list(bounds._candidates(n, eps_term, ceiling))
        best_rate, _ = best = max(candidates)
        assert best == full_golden_section(n, eps_term, ceiling)
        kind, value = draw
        if kind == "ulp":  # the maximum itself and its neighbours: the ties
            target = best_rate if value == 0 else math.nextafter(best_rate, value * math.inf)
        else:
            target = best_rate + value if kind == "gap" else value
        reached = [(rate, s) for rate, s in candidates if rate >= target]
        assert bool(reached) == (best_rate >= target)
        if reached:  # the first candidate that reaches it is the fixed-s rate there
            rate, s = reached[0]
            assert rate == bounds._rate_at(s, n, eps_term, ceiling)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ValueError):
            rate_bb84(1000, eps)

    @pytest.mark.parametrize("s", [0.0, -0.1, 1.1])
    def test_fixed_s_domain(self, s):
        with pytest.raises(ValueError):
            rate_six(1000, 0.1, s)


class TestRenyiFloor:
    def test_frozen_values(self):
        assert renyi_floor(2.0, BB84) == pytest.approx(2.0 - math.log2(3.0), abs=1e-15)
        assert renyi_floor(2.0, SIX) == pytest.approx(math.log2(3.0) - 1.0, abs=1e-15)
        assert renyi_floor(1.5, BB84) == pytest.approx(0.45689339367277615, abs=1e-14)

    def test_shannon_limit(self):
        assert renyi_floor(1.0 + 1e-6, BB84) == pytest.approx(0.5, abs=1e-5)
        assert renyi_floor(1.0 + 1e-6, SIX) == pytest.approx(2.0 / 3.0, abs=1e-5)

    def test_nonincreasing_in_alpha(self):
        alphas = np.linspace(1.0 + 1e-9, 2.0, 100)
        for family in (BB84, SIX):
            floors = [renyi_floor(a, family) for a in alphas]
            assert all(b - a <= 1e-12 for a, b in zip(floors, floors[1:]))
            assert all(0.0 < f < 1.0 for f in floors)

    def test_matches_rate_without_correction_term(self):
        # the floor is the n -> infinity rate at fixed s = alpha - 1
        for s in (0.25, 0.5, 1.0):
            big = rate_bb84(2**60, 0.5, s=s).rate
            assert big == pytest.approx(renyi_floor(1.0 + s, BB84), abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.1, 0.9])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            renyi_floor(alpha, BB84)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-52.0, max_value=0.0), st.sampled_from([BB84, SIX]))
    def test_matches_decimal_oracle_down_to_tiny_s(self, log2_s, family):
        # log-uniform s in [2^-52, 1]; the naive form loses about 1e-16/s
        alpha = 1.0 + 2.0**log2_s
        expected = decimal_floor(alpha - 1.0, family.bases_per_qubit)
        floor = renyi_floor(alpha, family)
        assert abs(floor - float(expected)) <= 1e-15 * float(expected)
        assert floor <= family.rate_ceiling


class TestChainStep:
    def test_worked_value(self):
        assert renyi_to_smooth_min_entropy(0.83008, 2.0, 0.1) == pytest.approx(-6.813776189774725, abs=1e-12)

    def test_unit_epsilon(self):
        # eps = 1 lies outside the (0, 1) that every other function requires
        message = r"^smoothing error epsilon must lie in \(0, 1\), got 1\.0$"
        with pytest.raises(ValueError, match=message):
            renyi_to_smooth_min_entropy(5.0, 2.0, 1.0)

    def test_coefficient_at_alpha_three_halves(self):
        h = 0.3125
        assert renyi_to_smooth_min_entropy(h, 1.5, 0.1) == pytest.approx(h - 2.0 * LOG2_200, abs=1e-12)

    def test_tiny_epsilon_stays_finite(self):
        # eps^2 underflows to 0 at 1e-170 and log2(2/eps^2) divided by it
        expected = 1.0 - (1.0 + 340.0 * math.log2(10.0))
        assert renyi_to_smooth_min_entropy(1.0, 2.0, 1e-170) == pytest.approx(expected, rel=1e-14)

    def test_strictly_below_input(self):
        for eps in (0.01, 0.5, 0.99):
            assert renyi_to_smooth_min_entropy(1.0, 2.0, eps) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            renyi_to_smooth_min_entropy(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            renyi_to_smooth_min_entropy(1.0, 2.0, 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_entropy(self, h):
        with pytest.raises(ValueError, match="^Renyi entropy h_alpha must be finite"):
            renyi_to_smooth_min_entropy(h, 1.5, 0.1)


def test_plain_minentropy_constant():
    value = plain_minentropy_rate_bb84()
    assert value == pytest.approx(-math.log2(0.5 + 0.5 / math.sqrt(2.0)), abs=1e-15)
    assert value == pytest.approx(0.228446696836, abs=1e-10)
    assert value < renyi_floor(2.0, BB84)
    assert value < 0.5


class TestMinBlockLength:
    def test_new_bound_reference_point(self):
        n = min_n_for_rate(0.4894, 0.1, BB84, "new")
        assert 2.3e4 <= n <= 2.4e4
        assert rate_bb84(n, 0.1).rate >= 0.4894 > rate_bb84(n - 1, 0.1).rate

    def test_legacy_reference_point(self):
        n = min_n_for_rate(0.4894, 0.1, BB84, "legacy")
        assert n == legacy_min_n(0.0106, 0.1)
        assert n == pytest.approx(2.39e8, rel=0.01)

    def test_moderate_rate_against_exhaustive_scan(self):
        target = 0.45
        # independent oracle: first block length in [1, 1e4] that reaches target
        scan_n = next(
            n for n in range(1, 10_001) if rate_bb84(n, 0.1).rate >= target
        )
        assert 1.0e3 <= scan_n <= 1.2e3
        assert min_n_for_rate(target, 0.1, BB84, "new") == scan_n

    @pytest.mark.parametrize("eps, n", [(1e-160, 9250), (1e-200, 11560), (1e-300, 17335)])
    def test_tiny_eps_matches_closed_form(self, eps, n):
        # ceil(c / max_s s (floor(s) - r)) with c = 1 - 2 log2(eps): eps^2
        # underflowed, so 1e-160 was reported infeasible and the others divided by 0
        assert min_n_for_rate(0.3, eps, BB84, "new") == n

    def test_six_state_inversion(self):
        n = min_n_for_rate(0.6, 0.1, SIX, "new")
        assert rate_six(n, 0.1).rate >= 0.6 > rate_six(n - 1, 0.1).rate

    def test_new_dominates_legacy_in_figure_region(self):
        for rate in (0.45, 0.47, 0.49):
            for eps in (1e-10, 1e-4, 0.2):
                new = min_n_for_rate(rate, eps, BB84, "new")
                legacy = min_n_for_rate(rate, eps, BB84, "legacy")
                assert new <= legacy

    def test_infeasible_targets(self):
        with pytest.raises(InfeasibleRateError):
            min_n_for_rate(0.5, 0.1, BB84, "new")
        with pytest.raises(InfeasibleRateError):
            min_n_for_rate(0.7, 0.1, SIX, "new")
        with pytest.raises(InfeasibleRateError):
            min_n_for_rate(0.5, 0.1, BB84, "legacy")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            min_n_for_rate(0.45, 0.1, SIX, "legacy")
        with pytest.raises(ValueError):
            min_n_for_rate(0.45, 0.1, BB84, "fast")
        with pytest.raises(ValueError):
            min_n_for_rate(-0.1, 0.1, BB84, "new")

    @pytest.mark.parametrize("method", ["new", "legacy"])
    def test_one_target_rate_check_for_both_methods(self, method):
        for target in (0.0, -0.1):
            with pytest.raises(ValueError, match="positive"):
                min_n_for_rate(target, 0.1, BB84, method)
        for target in (0.5, 0.7):
            with pytest.raises(InfeasibleRateError, match="ceiling 0.5"):
                min_n_for_rate(target, 0.1, BB84, method)

    @pytest.mark.parametrize("target", [0.4999999999, 0.4999999999999999])
    def test_legacy_block_length_above_2_62_is_minimal(self, target):
        n = min_n_for_rate(target, 0.5, BB84, "legacy")
        assert n > 2**62
        delta = 0.5 - target
        assert legacy_epsilon(n, delta) <= 0.5 < legacy_epsilon(n - 1, delta)

    @pytest.mark.parametrize("delta, eps", [(1e-5, 0.1), (1e-8, 0.1), (1e-6, 1e-10)])
    def test_legacy_closed_form_off_by_rounding_is_corrected(self, delta, eps):
        # the float closed form misses these minima by 1, 262145 and -128
        guess = math.ceil(128.0 * (2.0 + math.log2(2.0 / delta)) ** 2 * -math.log(eps) / delta**2)
        n = legacy_min_n(delta, eps)
        assert n != guess
        assert legacy_epsilon(n, delta) <= eps < legacy_epsilon(n - 1, delta)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([BB84, SIX]),
        st.floats(min_value=0.01, max_value=0.999),
        st.floats(min_value=-320.0, max_value=math.log10(0.9)),
    )
    def test_round_trip(self, family, fraction, log10_eps):
        eps = 10.0**log10_eps
        target = fraction * family.rate_ceiling
        fn = rate_bb84 if family is BB84 else rate_six
        n = min_n_for_rate(target, eps, family, "new")
        assert fn(n, eps).rate >= target
        assert n == 1 or fn(n - 1, eps).rate < target

    @pytest.mark.parametrize(
        "target, eps, family, n, other",
        [
            (0.6666606620719053, 8.197603340392385e-05, SIX, 240512641239, 240512641243),
            (0.49999997, 1.4664146380214673e-268, BB84, 685618394927733952, 685618393737978304),
        ],
        ids=["six-2.4e11", "bb84-6.9e17"],
    )
    def test_a_crossing_above_2e11_is_the_one_the_search_meets(
        self, target, eps, family, n, other
    ):
        # Above about 2e11 the computed rate is not monotone in n at rounding
        # level, so more than one n crosses the target: the search from n = 1
        # returns n, and a guess near `other` would return that instead (for
        # six-state the rate dips below the target again at n + 3).
        fn = rate_bb84 if family is BB84 else rate_six
        assert min_n_for_rate(target, eps, family, "new") == n
        for m in (n, other):
            assert fn(m, eps).rate >= target > fn(m - 1, eps).rate

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from([BB84, SIX]),
        st.one_of(
            st.integers(min_value=1, max_value=2**62),
            st.floats(min_value=0.0, max_value=62.0).map(lambda log2_n: round(2.0**log2_n)),
        ),
        st.floats(min_value=-300.0, max_value=math.log10(0.9)),
        st.one_of(
            st.sampled_from(["bound", "below", "above", "-margin", "+margin", "+floor error"]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    def test_a_probe_short_of_the_ceiling_bound_has_no_candidate_that_reaches(
        self, family, n, log10_eps, where
    ):
        eps_term = bounds._smoothing_term(10.0**log10_eps)
        ceiling = family.rate_ceiling
        bound = ceiling - eps_term / n
        margin = bounds._CEILING_MARGIN
        target = {
            "bound": bound,
            "below": math.nextafter(bound, -math.inf),
            "above": math.nextafter(bound, math.inf),
            "-margin": bound - margin,
            "+margin": bound + margin,
            "+floor error": bound + bounds._FLOOR_REL_ERR * ceiling,
        }[where] if isinstance(where, str) else where * ceiling
        assume(0.0 < target < ceiling)
        short = bounds._short_of_ceiling(n, eps_term, ceiling, target)
        if short:
            assert not any(rate >= target for rate, _ in bounds._candidates(n, eps_term, ceiling))
        # a candidate whose floor is the ceiling, rounded up by the floor's own
        # error, at the least correction c/n would reach these: none is short
        if target <= ceiling * (1.0 + bounds._FLOOR_REL_ERR) - eps_term / n:
            assert not short

    def test_six_ceiling_allows_rates_above_half(self):
        n = min_n_for_rate(0.55, 0.2, SIX, "new")
        assert rate_six(n, 0.2).rate >= 0.55


@pytest.fixture
def probes(monkeypatch):
    """Counts the probes of every ``bounds._least_n`` search that return a verdict, not a refusal.

    A probe is a call of the predicate that ``_least_n`` receives, however
    the predicate decides it.
    """
    count = [0]
    least_n = bounds._least_n

    def counted_least_n(reaches, guess):
        def counted(n):
            verdict = reaches(n)
            count[0] += 1
            return verdict

        return least_n(counted, guess)

    monkeypatch.setattr(bounds, "_least_n", counted_least_n)
    return count


@pytest.fixture
def rate_evaluations(monkeypatch):
    """Counts evaluations of the rate at one ``s``."""
    count = [0]
    rate_at = bounds._rate_at

    def counted(*args):
        count[0] += 1
        return rate_at(*args)

    monkeypatch.setattr(bounds, "_rate_at", counted)
    return count


class TestInversionCost:
    """Probes and rate evaluations per inversion, so that no search step is added unnoticed."""

    @pytest.mark.parametrize(
        "target, eps, family, method, n, cost",
        [
            (0.4894, 0.1, BB84, "new", 23576, 30),
            (0.66, 1e-10, SIX, "new", 468989, 38),
            (0.3, 1e-300, BB84, "new", 17335, 30),
            (0.4894, 0.1, BB84, "legacy", 239723609, 2),  # exact closed form
            (0.4999999999, 0.5, BB84, "legacy", 11638982206320208349495296, 85),
        ],
    )
    def test_search_costs(self, probes, target, eps, family, method, n, cost):
        assert min_n_for_rate(target, eps, family, method) == n
        assert probes[0] == cost

    @pytest.mark.parametrize(
        "target, eps, family, n, cost",
        [(0.4894, 0.1, BB84, 23576, 727), (0.66, 1e-10, SIX, 468989, 979), (0.3, 1e-300, BB84, 17335, 432)],
    )
    def test_rate_evaluations_per_inversion(self, rate_evaluations, target, eps, family, n, cost):
        # a probe short of the ceiling bound evaluates no rate, and one that
        # reaches the target stops at the first s that does: searching every
        # probe in full costs 1590, 2014 and 1590
        assert min_n_for_rate(target, eps, family, "new") == n
        assert rate_evaluations[0] == cost

    def test_refusal_above_2_62_and_its_cost(self, probes):
        # the rate at 2^62 falls short of 0.4999999999 at eps = 0.5: n = 1, 2,
        # 4, ..., 2^62 are probed, and 2^63 is refused before it is
        with pytest.raises(InfeasibleRateError, match=r"2\^62"):
            min_n_for_rate(0.4999999999, 0.5, BB84, "new")
        assert probes[0] == 63

    @pytest.mark.parametrize("delta, eps, cost", [(0.05, 0.1, 2), (1e-5, 0.1, 52), (1e-8, 0.1, 73)])
    def test_legacy_costs(self, probes, delta, eps, cost):
        # a guess that falls short doubles up from it and never tests it again
        legacy_min_n(delta, eps)
        assert probes[0] == cost
