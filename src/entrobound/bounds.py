"""Closed-form finite-size uncertainty bounds and their inversion.

Two routes to a certified min-entropy rate per qubit are implemented for
two-basis (BB84) measurements, plus the analogous new route for three-basis
(six-state) measurements:

* the legacy route fixes a rate of 1/2 - delta and pays an error
  ``exp(-delta^2 n / (128 (2 + log2(2/delta))^2))`` that shrinks only
  slowly with the block length ``n``;
* the new route maximises, over a Renyi parameter ``s`` in (0, 1], the
  state-independent per-qubit Renyi floor minus a smoothing correction
  ``log2(2/eps^2) / (s n)``.

Both families share one floor in the number of bases B,
``-log2((1 + (B-1) 2^-s) / B) / s``, evaluated with ``log1p``/``expm1`` so
that it keeps its relative accuracy as ``s -> 0``, where it meets ``(B-1)/B``;
``_rate_at`` alone evaluates it, less ``c/(s n)`` (``c = 0`` for the floor).

The maximum over s is one golden-section search over ``log s`` on
``[2^-40, 1]``, plus the endpoint ``s = 1``. It is exact up to rounding: as
``s floor(s)`` is concave, ``floor(s) - c/(s n)`` is a concave function over a
linear one, so it is quasi-concave in s and in ``log s``. The module is plain
``math``, so the scalar commands built on it never load numpy.

Both inversions to a least block length are one exact search of a predicate
in n, ``_least_n``, from a guess (the legacy closed form, or 1). It returns a
crossing, an n where the predicate holds and fails at n - 1; that is the least
n wherever the computed predicate is monotone, which the new route's rate is
not at rounding level above about 2e11. The maximiser is a stream of
candidates, ``_candidates``: the forward rate is its ``max``, and a new-route
probe holds at the first candidate that reaches the target, which one does
exactly when the maximum does. A probe fails without the stream when even the
ceiling bound ``C - c/n``, above every candidate's rate, falls short of the
target by more than a derived rounding margin (``_short_of_ceiling``); as
that decides only probes the stream would fail, the search walks the same path.

Note the legacy error formula mixes logarithm bases on purpose: the outer
exponential is natural while the inner log is base 2. The choice reproduces
the reference block lengths (n ~ 2.4e8 at delta = 0.0106, eps = 0.1).
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterator, NamedTuple, Sequence

from .families import MeasurementFamily

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)
# Golden-section bracket and tolerance for log s. For n <= 2^62 and any eps
# the optimum lies above 1.5e-9, well inside the bracket, and the floor keeps
# 4e-16 relative accuracy (_FLOOR_REL_ERR, against the floor of the exact
# ceiling (B-1)/B) down to 2^-52. A step of 1e-9 in log s moves the objective
# by far less than one ulp at the optimum.
_LOG_S_MIN = -40.0 * _LN2
_LOG_S_TOL = 1e-9
_FLOOR_REL_ERR = 4e-16
# The floor's error and four roundings of unit roundoff 2^-53 (see _short_of_ceiling).
_CEILING_MARGIN = _FLOOR_REL_ERR + 4.0 * 2.0**-53


class InfeasibleRateError(ValueError):
    """Requested rate is at or above the asymptotic ceiling of the bound."""


class RateResult(NamedTuple):
    """A certified rate in bits per qubit and the ``s`` that attained it."""

    rate: float
    s_opt: float


def _require_count(name: str, value, least: int, relation: str = ">=") -> int:
    """``value`` as an int, refused unless it is an integer ``relation least``.

    Integral floats count as integers; bools do not.
    """
    # operator.index refuses other floats and (numpy 2) numpy bools, not bools.
    try:
        if isinstance(value, bool):
            raise TypeError
        integral = isinstance(value, float) and value.is_integer()
        count = int(value) if integral else operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"{name} must be {relation} {least}, got {count!r}")
    return count


def _require_block_length(n) -> int:
    n = _require_count("block length", n, 1)
    try:
        float(n)  # the formulas convert n to a float
    except OverflowError:
        raise ValueError(f"block length {n!r} exceeds the largest float, about 1.8e308") from None
    return n


def _require_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"smoothing error epsilon must lie in (0, 1), got {epsilon!r}")
    return epsilon


def _require_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must lie in (0, 1/2], got {delta!r}")
    return delta


def _require_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"Renyi order alpha must lie in (1, 2], got {alpha!r}")
    return alpha


def _smoothing_term(epsilon: float) -> float:
    """``log2(2/eps^2)`` as ``1 - 2 log2(eps)``, finite even where eps^2 underflows."""
    return 1.0 - 2.0 * math.log2(epsilon)


def _rate_at(s: float, n: int, eps_term: float, ceiling: float) -> float:
    """Floor at ``s`` of the family with ceiling ``(B-1)/B``, less ``eps_term / (s n)``."""
    x = s * _LN2
    return -math.log1p(ceiling * math.expm1(-x)) / x - eps_term / (s * n)


def renyi_floor(alpha: float, family: MeasurementFamily) -> float:
    """State-independent minimum of the conditional Renyi entropy per qubit.

    With B bases per qubit this is ``-log2((1 + (B-1) 2^(1-alpha)) / B) / (alpha - 1)``,
    attained by basis eigenstates and decreasing in alpha from the ceiling
    ``(B-1)/B``. It is the rate objective at zero smoothing cost, so a
    fixed-s rate is exactly this floor minus its correction term.
    """
    return _rate_at(_require_alpha(alpha) - 1.0, 1, 0.0, family.rate_ceiling)


def _candidates(n: int, eps_term: float, ceiling: float) -> Iterator[tuple[float, float]]:
    """``(rate, s)`` at ``s = 1``, then at each point of a golden-section search over ``log s``.

    The stream's ``max`` is the maximised rate: each step drops the worse
    interior candidate, so the best one yielded is among those kept to the
    end. As candidates are ``(rate, s)`` pairs, a tie goes to the larger ``s``
    and a clamped optimum reports ``s_opt == 1.0``. Each rate is evaluated as
    the fixed-``s`` path evaluates it, so ``rate(n, eps, s=s_opt)`` reproduces
    it. Each candidate is yielded before the next is evaluated, so a consumer
    that stops early pays for no more.
    """

    yield _rate_at(1.0, n, eps_term, ceiling), 1.0
    lo, hi = _LOG_S_MIN, 0.0
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    s = math.exp(c)
    fc = _rate_at(s, n, eps_term, ceiling), s
    yield fc
    s = math.exp(d)
    fd = _rate_at(s, n, eps_term, ceiling), s
    yield fd
    while hi - lo > _LOG_S_TOL:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            s = math.exp(d)
            fd = _rate_at(s, n, eps_term, ceiling), s
            yield fd
        else:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            s = math.exp(c)
            fc = _rate_at(s, n, eps_term, ceiling), s
            yield fc


def _short_of_ceiling(n: int, eps_term: float, ceiling: float, target_rate: float) -> bool:
    """Whether ``ceiling - eps_term / n`` misses ``target_rate`` by more than ``_CEILING_MARGIN``.

    When it does, no candidate of ``_candidates(n, eps_term, ceiling)``
    reaches the target, for ``0 < target_rate < ceiling <= 2/3`` and
    ``n <= 2^62``. With ``u = 2^-53``, ``rho = _FLOOR_REL_ERR``, ``C`` the
    float ceiling and ``q = fl(eps_term / n)``:

    * A candidate at s in (0, 1] is ``fl(F - q_s)``, with ``F`` the computed
      floor and ``q_s = fl(eps_term / fl(s n))``. Python rounds ``n`` to a
      float alike in ``s * n`` and ``eps_term / n``, and ``fl(s n) <= fl(n)``
      as s <= 1, so ``q_s >= q`` by monotone rounding: the candidate is at
      most ``fl(F - q)``.
    * The floor is at most the exact ceiling ``(B-1)/B`` at every s (Jensen:
      ``(1 - C) + C 2^-s >= 2^(-C s)``), which is at most ``C (1 + u)``. So
      ``F <= (1 + rho)(1 + u) C``.
    * If a candidate reached ``r > 0``, then ``F - q >= r / (1 + u)``, so the
      exact ``a = C - q`` is at least ``r (1 - u) - (rho + u + rho u) C``,
      above ``-C``; and ``a <= C`` as ``q >= 0``, so ``|a| <= C``.
    * The test's two roundings give ``fl(a) >= a - u C`` and
      ``fl(r - m) <= r - m + u C``, with ``r, m < C``.

    Then ``fl(a) - fl(r - m) >= m - (rho + 4 u + rho u) C``, which is not
    negative for ``m = rho + 4 u`` and ``C <= 2/3``: the test is false. So it
    is true only where no candidate reaches the target. It is never true
    above 2^62, where ``eps_term / n < 2150 / 2^62 < 5e-16``, so the bound
    lies closer to the ceiling than ``m - 2 u C``.
    """
    return ceiling - eps_term / n < target_rate - _CEILING_MARGIN


def _rate(n, epsilon, s, family: MeasurementFamily) -> RateResult:
    n = _require_block_length(n)
    eps_term = _smoothing_term(_require_epsilon(epsilon))
    if s is not None:
        s = float(s)
        if not 0.0 < s <= 1.0:
            raise ValueError(f"Renyi parameter s must lie in (0, 1], got {s!r}")
        return RateResult(rate=_rate_at(s, n, eps_term, family.rate_ceiling), s_opt=s)
    return RateResult(*max(_candidates(n, eps_term, family.rate_ceiling)))


def rate_bb84(n, epsilon: float, s: float | None = None) -> RateResult:
    """Certified min-entropy rate per qubit for two-basis measurements.

    Maximises over the Renyi parameter unless ``s`` is fixed. The result can
    be negative for small ``n`` (a vacuous bound); it is reported as-is so
    feasibility checks can see the sign. Bounded above by 1/2.
    """
    return _rate(n, epsilon, s, MeasurementFamily.BB84)


def rate_six(n, epsilon: float, s: float | None = None) -> RateResult:
    """Certified min-entropy rate per qubit for three-basis measurements.

    Same contract as :func:`rate_bb84`, with asymptotic ceiling 2/3.
    """
    return _rate(n, epsilon, s, MeasurementFamily.SIX_STATE)


def legacy_epsilon(n, delta: float) -> float:
    """Smoothing error of the legacy two-basis bound at rate ``1/2 - delta``."""
    n = _require_block_length(n)
    delta = _require_delta(delta)
    return math.exp(-(delta**2) * n / (128.0 * (2.0 + math.log2(2.0 / delta)) ** 2))


def legacy_min_n(delta: float, epsilon: float) -> int:
    """Least block length for which the legacy error is at most ``epsilon``.

    The closed form is only the guess of :func:`_least_n`, which makes the
    answer exact: near eps = 5e-324 the error rounds to eps over ~1e7 n.
    Raises ``ValueError`` when the closed form exceeds 2^1022 (at eps = 0.1,
    a delta below about 1.5e-150), beyond which the search could not evaluate
    the error in floats.
    """
    delta = _require_delta(delta)
    epsilon = _require_epsilon(epsilon)
    scale = 128.0 * (2.0 + math.log2(2.0 / delta)) ** 2 * -math.log(epsilon)
    # The search may double the guess once, and legacy_epsilon needs n < 2^1024.
    if math.log2(scale) - 2.0 * math.log2(delta) > 1022.0:
        raise ValueError(
            f"the legacy block length at delta={delta!r}, epsilon={epsilon!r} exceeds "
            f"2^1022, the largest the float search of legacy_epsilon supports"
        )
    return _least_n(lambda n: legacy_epsilon(n, delta) <= epsilon, math.ceil(scale / delta**2))


def binary_entropy(p: float) -> float:
    """Shannon entropy in bits of a coin with probability ``p``.

    The error-correction cost per bit that a certified rate must exceed.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def renyi_to_smooth_min_entropy(h_alpha: float, alpha: float, epsilon: float) -> float:
    """Lower bound on smooth min-entropy from a Renyi entropy of order alpha.

    Returns ``h_alpha - log2(2/eps^2) / (alpha - 1)``; may be negative.
    Refuses a non-finite ``h_alpha``.
    """
    h_alpha = float(h_alpha)
    if not math.isfinite(h_alpha):
        raise ValueError(f"Renyi entropy h_alpha must be finite, got {h_alpha!r}")
    alpha = _require_alpha(alpha)
    epsilon = _require_epsilon(epsilon)
    return h_alpha - _smoothing_term(epsilon) / (alpha - 1.0)


def plain_minentropy_rate_bb84() -> float:
    """Non-smooth min-entropy rate per qubit for two-basis measurements.

    The constant ``-log2(1/2 + 1/(2 sqrt 2))``, about 0.2284; it is attained,
    so no smoothing-free improvement is possible.
    """
    return -math.log2(0.5 + 0.5 / math.sqrt(2.0))


def _least_n(reaches: Callable[[int], bool], guess: int) -> int:
    """A crossing of ``reaches``: ``n >= 1`` where it holds, with ``n = 1`` or ``not reaches(n - 1)``.

    From the guess, doubles up while ``reaches`` fails, or halves down while
    it holds, then bisects the bracket: an exact guess costs two evaluations.
    When ``reaches`` is monotone in n, the crossing is the least n at which it
    holds. Otherwise it is whichever crossing the path from the guess meets,
    so another guess may return another one. Any refusal, such as a largest
    block length, is raised by ``reaches``.
    """
    if reaches(guess):
        lo, hi = guess - 1, guess  # lo = 0 stands in for "fails"
        while lo > 0 and reaches(lo):
            lo, hi = lo // 2, lo
    else:
        lo, hi = guess, 2 * guess
        while not reaches(hi):
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    return hi


def min_n_for_rate(
    target_rate: float,
    epsilon: float,
    family: MeasurementFamily = MeasurementFamily.BB84,
    method: str = "new",
) -> int:
    """A block length at which the certified rate crosses ``target_rate``.

    ``method="new"`` searches the maximised Renyi-route rate from ``n = 1``
    and refuses block lengths above 2^62. Each probe holds at the first
    candidate of the search over ``s`` that reaches the target, and fails
    when none does. A probe whose ceiling bound ``ceiling - c/n`` falls
    short of the target by more than a derived margin fails without that
    search (:func:`_short_of_ceiling`): about three in four probes fail, and
    the test decides only probes the search would fail, so the answer does
    not move. ``method="legacy"`` (two-basis only) is
    :func:`legacy_min_n` at ``delta = 1/2 - rate``. Raises
    :class:`InfeasibleRateError` at or above the family's ceiling.

    The answer n always satisfies ``rate(n) >= target_rate > rate(n - 1)``
    (or ``n = 1``). It is the least such n while the computed rate is
    monotone in n. Above about 2e11 it is not, at rounding level: the
    six-state rate at eps 8.197603340392385e-05 reaches 0.6666606620719053
    at n = 240512641241 but not at 240512641242, and at rate 0.49999997, eps
    1.4664146380214673e-268 the two-basis search returns 685618394927733952
    although 685618393737978304 is also a crossing. There the answer is the
    crossing that the search from ``n = 1`` meets, and another guess would
    move it.
    """
    target_rate = float(target_rate)
    if not math.isfinite(target_rate):
        raise ValueError(f"target rate must be finite, got {target_rate!r}")
    epsilon = _require_epsilon(epsilon)
    if method not in ("new", "legacy"):
        raise ValueError(f"method must be 'new' or 'legacy', got {method!r}")
    if method == "legacy" and family is not MeasurementFamily.BB84:
        raise ValueError("the legacy bound is only available for the bb84 family")
    if target_rate <= 0.0:
        raise ValueError(f"target rate must be positive, got {target_rate!r}")
    ceiling = family.rate_ceiling
    if target_rate >= ceiling:
        raise InfeasibleRateError(
            f"target rate {target_rate!r} is not below the asymptotic ceiling {ceiling!r}"
        )
    if method == "legacy":
        return legacy_min_n(ceiling - target_rate, epsilon)
    eps_term = _smoothing_term(epsilon)

    def reaches(n: int) -> bool:
        """Whether the maximised rate at ``n`` reaches the target: some candidate does."""
        if n > 2**62:
            raise InfeasibleRateError(f"no block length up to 2^62 certifies rate {target_rate!r}")
        if _short_of_ceiling(n, eps_term, ceiling, target_rate):
            return False
        for rate, _ in _candidates(n, eps_term, ceiling):
            if rate >= target_rate:
                return True
        return False

    return _least_n(reaches, 1)


# Largest figure accepted, in rows: at 0.07-0.13 ms (rate 0.3, eps 0.5) to
# 1.6-2.4 ms (rate 0.49999997, eps 1e-270) a row on a 2-CPU host, 7 s to 4 minutes.
_MAX_FIGURE_ROWS = 10**5


def _require_figure_rows(rows: int) -> None:
    """Refuse a figure of more than ``_MAX_FIGURE_ROWS`` rows."""
    if rows > _MAX_FIGURE_ROWS:
        raise ValueError(f"a figure of {rows} rows is more than the limit of {_MAX_FIGURE_ROWS}")


class FigureRow(NamedTuple):
    rate: float
    epsilon: float
    n_legacy: int
    n_new: int | None


def figure_rows(rates: Sequence[float], eps_grid: Sequence[float]) -> list[FigureRow]:
    """Minimal two-basis block lengths for both bound routes on a (rate, epsilon) grid.

    Rows are sorted by (rate, epsilon). Rates must lie in (0, 1/2) since the
    legacy column only exists for the two-basis family; there it always holds
    a block length, and a rate infeasible for the new route is marked with
    ``None`` in its column. Over 10^5 rows are refused before any inversion.
    """
    # checked after the conversion, so a rate just below 1/2 that rounds to
    # 1/2 (a Fraction, say) is refused rather than reaching the bound routes
    rates = sorted(float(r) for r in rates)
    eps_grid = sorted(float(e) for e in eps_grid)
    for rate in rates:
        if not 0.0 < rate < 0.5:
            raise ValueError(f"rates must lie in (0, 1/2), got {rate!r}")
    for eps in eps_grid:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"epsilon values must lie in (0, 1), got {eps!r}")
    _require_figure_rows(len(rates) * len(eps_grid))

    rows = []
    for rate in rates:
        for eps in eps_grid:
            try:
                n_new = min_n_for_rate(rate, eps)
            except InfeasibleRateError:
                n_new = None
            n_legacy = min_n_for_rate(rate, eps, method="legacy")
            rows.append(FigureRow(rate=rate, epsilon=eps, n_legacy=n_legacy, n_new=n_new))
    return rows
