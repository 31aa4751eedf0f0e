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
that it keeps its relative accuracy as ``s -> 0``, where it meets ``(B-1)/B``.

The maximum over s is one golden-section search over ``log s`` on
``[2^-40, 1]``, plus the endpoint ``s = 1``. It is exact up to rounding: as
``s floor(s)`` is concave, ``floor(s) - c/(s n)`` is a concave function over a
linear one, so it is quasi-concave in s and in ``log s``. The module is plain
``math``, so the scalar commands built on it never load numpy.

Both inversions to a least block length are one exact search of a monotone
predicate in n, ``_least_n``, from a guess (the legacy closed form, or 1).

Note the legacy error formula mixes logarithm bases on purpose: the outer
exponential is natural while the inner log is base 2. The choice reproduces
the reference block lengths (n ~ 2.4e8 at delta = 0.0106, eps = 0.1).
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Sequence

from .families import MeasurementFamily

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)
# Golden-section bracket and tolerance for log s. For n <= 2^62 and any eps
# the optimum lies above 1.5e-9, well inside the bracket, and the floor keeps
# 4e-16 relative accuracy down to 2^-52. A step of 1e-9 in log s moves the
# objective by far less than one ulp at the optimum.
_LOG_S_MIN = -40.0 * _LN2
_LOG_S_TOL = 1e-9


class InfeasibleRateError(ValueError):
    """Requested rate is at or above the asymptotic ceiling of the bound."""


class RateResult(NamedTuple):
    """A certified rate in bits per qubit and the ``s`` that attained it."""

    rate: float
    s_opt: float


def _require_block_length(n) -> int:
    # operator.index refuses other floats and (numpy 2) numpy bools, not bools.
    try:
        if isinstance(n, bool):
            raise TypeError
        n = int(n) if isinstance(n, float) and n.is_integer() else operator.index(n)
    except TypeError:
        raise ValueError(f"block length must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n!r}")
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


def _floor(s: float, ceiling: float) -> float:
    """Floor at ``s`` of the family with ceiling ``(B-1)/B``."""
    x = s * _LN2
    return -math.log1p(ceiling * math.expm1(-x)) / x


def renyi_floor(alpha: float, family: MeasurementFamily) -> float:
    """State-independent minimum of the conditional Renyi entropy per qubit.

    With B bases per qubit this is ``-log2((1 + (B-1) 2^(1-alpha)) / B) / (alpha - 1)``,
    attained by basis eigenstates and decreasing in alpha from the ceiling
    ``(B-1)/B``. Shares its evaluation with the rate objectives so fixed-s
    rates decompose exactly into floor minus correction term.
    """
    alpha = _require_alpha(alpha)
    return _floor(alpha - 1.0, family.rate_ceiling)


def _maximize_rate(n: int, eps_term: float, ceiling: float) -> RateResult:
    """Golden-section search over ``log s``, then the endpoint ``s = 1``.

    Candidates are ``(rate, s)`` pairs, so a tie goes to the larger ``s`` and
    a clamped optimum reports ``s_opt == 1.0``. Each rate is evaluated as the
    fixed-``s`` path evaluates it, so ``rate(n, eps, s=s_opt)`` reproduces it.
    """

    def point(u: float) -> tuple[float, float]:
        s = math.exp(u)
        return _floor(s, ceiling) - eps_term / (s * n), s

    lo, hi = _LOG_S_MIN, 0.0
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = point(c), point(d)
    while hi - lo > _LOG_S_TOL:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = point(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = point(c)
    rate, s_opt = max(fc, fd, point(0.0))
    return RateResult(rate=rate, s_opt=s_opt)


def _rate(n, epsilon, s, family: MeasurementFamily) -> RateResult:
    n = _require_block_length(n)
    epsilon = _require_epsilon(epsilon)
    eps_term = _smoothing_term(epsilon)
    ceiling = family.rate_ceiling
    if s is not None:
        s = float(s)
        if not 0.0 < s <= 1.0:
            raise ValueError(f"Renyi parameter s must lie in (0, 1], got {s!r}")
        return RateResult(rate=_floor(s, ceiling) - eps_term / (s * n), s_opt=s)
    return _maximize_rate(n, eps_term, ceiling)


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
    """Least ``n >= 1`` at which the monotone predicate ``reaches`` holds.

    From the guess, doubles up while ``reaches`` fails, or halves down while
    it holds, then bisects the bracket: an exact guess costs two evaluations.
    Any refusal, such as a largest block length, is raised by ``reaches``.
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
    """Least block length whose certified rate reaches ``target_rate``.

    ``method="new"`` searches the maximised Renyi-route rate from ``n = 1``
    and refuses block lengths above 2^62; ``method="legacy"`` (two-basis only)
    is :func:`legacy_min_n` at ``delta = 1/2 - rate``. Raises
    :class:`InfeasibleRateError` at or above the family's ceiling.
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
        if n > 2**62:
            raise InfeasibleRateError(f"no block length up to 2^62 certifies rate {target_rate!r}")
        return _maximize_rate(n, eps_term, ceiling).rate >= target_rate

    return _least_n(reaches, 1)


class FigureRow(NamedTuple):
    rate: float
    epsilon: float
    n_legacy: int | None
    n_new: int | None


def figure_rows(
    rates: Sequence[float],
    eps_grid: Sequence[float],
    family: MeasurementFamily = MeasurementFamily.BB84,
) -> list[FigureRow]:
    """Minimal block lengths for both bound routes on a (rate, epsilon) grid.

    Rows are sorted by (rate, epsilon). Rates must lie in (0, 1/2) since the
    legacy column only exists for the two-basis family; a rate that turns out
    infeasible for a column is marked with ``None`` there.
    """
    if family is not MeasurementFamily.BB84:
        raise ValueError("block-length tables with a legacy column require the bb84 family")
    for rate in rates:
        if not 0.0 < rate < 0.5:
            raise ValueError(f"rates must lie in (0, 1/2), got {rate!r}")
    for eps in eps_grid:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"epsilon values must lie in (0, 1), got {eps!r}")

    rows = []
    for rate in sorted(float(r) for r in rates):
        for eps in sorted(float(e) for e in eps_grid):
            try:
                n_new = min_n_for_rate(rate, eps, family, "new")
            except InfeasibleRateError:
                n_new = None
            try:
                n_legacy = min_n_for_rate(rate, eps, family, "legacy")
            except InfeasibleRateError:
                n_legacy = None
            rows.append(FigureRow(rate=rate, epsilon=eps, n_legacy=n_legacy, n_new=n_new))
    return rows
