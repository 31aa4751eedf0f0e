"""Brute-force numerical verification of the tight entropy relations.

Each suite rechecks, by exhaustive grid search or seeded random trials, a
fact the closed-form bounds rely on:

* ``grid_search_min`` minimises the single-qubit conditional Renyi entropy
  over the Bloch sphere's first quadrant/octant and compares with the
  closed-form floor. Both families share one per-point formula, the table
  excess of ``_bloch_excess`` over the Bloch components along their B
  measured axes, and one grid: the unit direction of B - 1 angles, evaluated
  in one call. The minimum over the whole ball lies on the sphere because
  each axis's excess does not decrease with the size of its component; the
  search checks that, on the code's own per-axis term along the radius,
  rather than trusting it. The basis eigenstates are grid points, so the
  verdict is at rounding level: the minimum within ``1e-13 + 4e-16`` bits of
  the floor, at the eigenstate grid point;
* ``stationary_signs`` and ``curvature_gap_sweep`` check, by one verdict,
  the signs of the second derivatives that make the basis eigenstates the
  only maximisers and of the auxiliary function behind the midpoint sign;
* ``additivity_trial`` and ``ensemble_trial`` check that entanglement and
  classical side information cannot beat ``n`` times the one-qubit floor;
* ``figure_rows``, which tabulates minimal block lengths for both bound
  routes, lives in :mod:`entrobound.bounds` and is re-exported here.

Reports are deterministic given (seed, resolution, trials); grid reductions
are index-ordered so results do not depend on execution order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .bounds import FigureRow, figure_rows, renyi_floor  # re-exports the figure pair
from .bounds import _require_count
from .entropy import _excess_bits, _excess_entropies, _row_excess, _term, renyi_entropies
from .families import MeasurementFamily
from .simulator import (
    _require_table_entries,
    checked_probabilities,
    product_eigenstate,
    random_densities,
    stack_outcome_arrays,
)

_SQRT2 = math.sqrt(2.0)

# Recorded in reports so random trials are reproducible elsewhere.
PRNG_DESCRIPTION = "numpy PCG64 via SeedSequence; complex gaussians by Box-Muller"


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one brute-force suite, serialisable to JSON.

    ``witness`` is the read-only ``(states, 2^n, 2^n)`` stack of the worst
    trial's states (one for the additivity suite, every member for the
    ensemble suite) and empty for the other suites; it takes no part in
    ``==``.
    """

    suite: str
    passed: bool
    worst_margin: float
    argmin: tuple[float, ...]
    resolution: int
    trials: int
    seed: int
    notes: str
    witness: np.ndarray = field(
        default_factory=lambda: _read_only(np.empty((0, 0, 0), dtype=complex)), compare=False
    )

    def to_json_dict(self) -> dict:
        """JSON-ready fields; each witness state is a list of row-major [re, im] pairs."""
        return {
            "suite": self.suite,
            "pass": self.passed,
            "worst_margin": self.worst_margin,
            "argmin": [float(v) for v in self.argmin],
            "resolution": self.resolution,
            "trials": self.trials,
            "seed": self.seed,
            "notes": self.notes,
            "witness": [
                np.stack([state.real, state.imag], axis=-1).reshape(-1, 2).tolist()
                for state in self.witness
            ],
        }


def _bloch_excess(s, components):
    """Table excess ``E = sum_i [t((1 + x_i)/2) + t((1 - x_i)/2)] / B``, ``t = entropy._term``.

    ``x_i = components[i]`` is the Bloch component along measured axis i of
    B, broadcast against the others. Each axis's two terms are added,
    weighted ``1/B`` and accumulated in axis order, as
    :func:`entrobound.entropy.renyi_entropies` sums the point's table, rows
    ``((1 + x_i)/2, (1 - x_i)/2)``, so the bits of E equal that reduction's,
    bit for bit. Scalar components give a numpy scalar.
    """
    weight = 1.0 / len(components)
    total = None
    for x in components:
        half = 0.5 * x  # (1 +- x)/2 = 0.5 +- x/2, exactly as rounded
        pair = (_term(0.5 + half, s) + _term(0.5 - half, s)) * weight
        total = pair if total is None else total + pair
    return total


def bloch_power_sum(s, components):
    """Order-(1+s) power sum ``sum_i [(1+x_i)^(1+s) + (1-x_i)^(1+s)] / (B 2^(1+s))``, as ``1 + E``.

    ``x_i`` is the Bloch component along measured axis i of B; E is
    :func:`_bloch_excess`.
    """
    return 1.0 + _bloch_excess(s, components)


def _bloch_direction(angles):
    """Unit vector of ``angles``, one component per Bloch axis."""
    # (sin phi, cos phi); a further angle theta gives (sin phi sin theta, ..., cos theta)
    components = [1.0]
    for angle in angles:
        sin = np.sin(angle)
        components = [x * sin for x in components] + [np.cos(angle)]
    return components


def _bloch_components(r, angles):
    """``r`` times the unit vector of ``angles``, one component per Bloch axis."""
    return [r * x for x in _bloch_direction(angles)]


def bb84_surface(s, r, phi):
    """Two-basis power sum at Bloch vector (r sin phi, 0, r cos phi)."""
    return bloch_power_sum(s, _bloch_components(r, (phi,)))


def six_state_surface(s, r, phi, theta):
    """Three-basis power sum over the Bloch octant in spherical coordinates."""
    return bloch_power_sum(s, _bloch_components(r, (phi, theta)))


def surface_entropy(power_sum, s):
    """Renyi entropy ``-log2(P)/s`` of order 1+s from a power-sum value, to ``1/s`` accuracy."""
    return -np.log2(power_sum) / s


# Largest grid the search accepts, counted as the box of the radius and the
# angles: resolution 10^4 for BB84 and 464 for six-state (464^3 <= 10^8). The
# search evaluates the r = 1 sphere of that box, resolution^(B-1) points: at
# most 10.4 ms of work, for six-state at 464 (2-CPU host, one BLAS thread).
_MAX_GRID_POINTS = 10**8


def _require_resolution(family: MeasurementFamily, resolution) -> int:
    """``resolution`` as an int, refused unless an integer of at least 50 within the grid limit."""
    resolution = _require_count("resolution", resolution, 50, "at least")
    _require_grid_size(family, resolution)
    return resolution


def _require_grid_size(family: MeasurementFamily, resolution: int) -> None:
    """Refuse a resolution whose box of radius and angles holds more than 10^8 points."""
    if resolution**family.bases_per_qubit > _MAX_GRID_POINTS:
        raise ValueError(
            f"resolution {resolution!r} gives a {family.value} grid of more than "
            f"10^8 points, the limit of the single-qubit search"
        )


def _single_qubit_report(
    family: MeasurementFamily, alpha: float, resolution: int, floor: float, grid_min: float, argmin
) -> VerificationReport:
    """Report of a grid minimum, judged at rounding level as ``grid_search_min`` states."""
    margin = grid_min - floor
    eigenstate = (1.0,) + (0.0,) * (family.bases_per_qubit - 1)
    tolerance = 1e-13 + 4e-16
    notes = (
        f"family={family.value}; alpha={alpha!r}; closed-form floor={floor!r}; grid min="
        f"{grid_min!r}; needs |margin| <= {tolerance!r}; argmin at eigenstate {eigenstate}: "
        f"{argmin == eigenstate}; first quadrant/octant searched by symmetry of the power sums"
    )
    return VerificationReport(
        suite="single-qubit", passed=abs(margin) <= tolerance and argmin == eigenstate,
        worst_margin=margin, argmin=argmin, resolution=resolution, trials=0, seed=0, notes=notes,
    )


def grid_search_min(
    family: MeasurementFamily, alpha: float, resolution: int = 200
) -> VerificationReport:
    """Grid-minimise the single-qubit Renyi entropy on the Bloch sphere and compare to the floor.

    Searches the sphere r = 1 on ``resolution`` points per angle, one angle
    per further Bloch axis, restricted by the reflection symmetry of the
    power sum to the first quadrant (octant for three bases). Passes when the
    grid minimum matches the closed-form floor to rounding,
    ``|grid min - floor| <= T = 1e-13 + 4e-16``, the argmin is the eigenstate
    grid point ``(1, 0)`` (``(1, 0, 0)`` for six-state), and the radial check
    below holds.

    A point's entropy is that of its table, rows ``((1 + x_i)/2, (1 - x_i)/2)``
    weighted 1/B, under :func:`entrobound.entropy.renyi_entropies`: the bits
    ``-log1p(E)/(s ln 2)`` of its excess E, which :func:`_bloch_excess`
    computes bit for bit as that reduction does. Its terms share one sign,
    so E keeps its relative accuracy at any s. The ``resolution^(B-1)``
    points of the sphere are evaluated in one call, each axis's terms on
    that axis's own broadcast shape (215k points and a traced peak of 13 MiB
    for six-state at 464), and the argmin is the first of them,
    in flat index order, within 1e-12 bits of the minimum: the whole arc ties
    at alpha = 2, where the power sum depends on the radius alone.

    **The reduction to the sphere.** E is the mean over the axes of the
    per-axis excess ``g(x) = t((1 + x)/2) + t((1 - x)/2)``,
    ``t(p) = p^(1+s) - p``, at ``x_i = r d_i`` for a unit direction d. g is
    even, and nondecreasing in |x| because ``p^(1+s)`` is convex. So along
    every direction E does not decrease and the bits do not increase with r,
    and each direction's minimum over the ball lies at r = 1. The search
    checks this instead of trusting it: it evaluates the code's own per-axis
    term, ``_bloch_excess`` on one axis, at ``r = linspace(0, 1, resolution)``
    for the search's s, and unless those values are nondecreasing the report
    fails, with one clause in its notes saying so. The check covers the
    computed term at those radii; between them, and at the components
    ``r d_i`` of other directions, the reduction rests on the convexity
    above. Rounding is monotone, so the weighted sum of nondecreasing terms
    does not decrease either.

    ``T`` follows from two bounds. A computed table entropy is within
    ``1e-13`` bits of the exact one whatever s is, the bits step included
    (moving an entry p by a rounding e moves it by about ``(1 + |ln p|) e``
    bits). linspace gives the angle 0 exactly, so the eigenstate grid point's
    components are exactly 0 and 1 and its exact entropy is the floor, which
    no point's undercuts when the relation holds: the grid minimum is within
    1e-13 bits of it. ``renyi_floor`` is within 4e-16 of a floor below 1 bit
    (its relative accuracy, :mod:`entrobound.bounds`), and the margin is
    exact (Sterbenz). So ``|margin| <= T``, and a floor off by more than 2T
    fails.

    Every family is searched at the resolution asked, which must be an
    integer of at least 50. Raises ``ValueError`` before building any array
    when the box of the radius and the angles would hold more than 10^8
    points (``_MAX_GRID_POINTS``): BB84 resolutions above 10^4 and six-state
    ones above 464.
    """
    resolution = _require_count("resolution", resolution, 50, "at least")
    floor = renyi_floor(alpha, family)
    _require_grid_size(family, resolution)
    s = alpha - 1.0
    bases = family.bases_per_qubit
    r = np.linspace(0.0, 1.0, resolution)
    ang = np.linspace(0.0, math.pi / 2.0, resolution)
    angles = np.meshgrid(*[ang] * (bases - 1), indexing="ij", sparse=True)
    bits = _excess_bits(_bloch_excess(s, _bloch_direction(angles)), s)
    grid_min = float(bits.min())
    index = np.unravel_index(int(np.argmax(bits <= grid_min + 1e-12)), bits.shape)
    argmin = (1.0, *(float(ang[i]) for i in index))
    report = _single_qubit_report(family, alpha, resolution, floor, grid_min, argmin)
    if np.all(np.diff(_bloch_excess(s, [r])) >= 0.0):
        return report
    notes = f"{report.notes}; radial check failed: the per-axis excess decreases in r"
    return replace(report, passed=False, notes=notes)


def endpoint_curvature(s):
    """Second angular derivative of the two-basis power sum at the endpoints."""
    return (1.0 + s) / 2.0 ** (1.0 + s) * (s - 2.0 ** (s - 1.0))


def _gap(a, s):
    """``s[(1+a)^(s-1) + (1-a)^(s-1)] - [(1+a)^s - (1-a)^s]/a`` on floats or arrays, for a != 0."""
    up, down = 1.0 + a, 1.0 - a
    return s * (up ** (s - 1.0) + down ** (s - 1.0)) - (up**s - down**s) / a


def midpoint_curvature(s):
    """Second angular derivative of the two-basis power sum at the midpoint."""
    return (1.0 + s) / 2.0 ** (2.0 + s) * _gap(1.0 / _SQRT2, s)


def _checked_grid(name: str, values, excluded: float) -> np.ndarray:
    """``values`` as a float grid, a scalar as one point.

    Refused unless one-dimensional, nonempty and in [0, 1] less ``excluded`` (or NaN).
    """
    grid = np.array(values, dtype=float, ndmin=1)
    if grid.ndim != 1:
        raise ValueError(f"{name} grid must be one-dimensional")
    inside = (grid >= 0.0) & (grid <= 1.0) & (grid != excluded)
    if grid.size == 0 or not np.all(inside):
        domain = "(0, 1]" if excluded == 0.0 else "[0, 1)"
        raise ValueError(f"{name} grid must be nonempty and lie in {domain}")
    return grid


def _sign_report(suite: str, margins: np.ndarray, axes: tuple, notes: str) -> VerificationReport:
    """Sign-suite report, passed when no margin is below -1e-12.

    Its worst cell is the first least one in index order, located on ``axes``.
    """
    index = np.unravel_index(np.argmin(margins), margins.shape)
    worst = float(margins[index])
    return VerificationReport(
        suite=suite,
        passed=worst >= -1e-12,
        worst_margin=worst,
        argmin=tuple(float(axis[i]) for axis, i in zip(axes, index)),
        resolution=int(margins.size),
        trials=0,
        seed=0,
        notes=notes,
    )


def stationary_signs(s_grid: Sequence[float] | None = None) -> VerificationReport:
    """Check the curvature signs at the angular stationary points.

    A nonpositive endpoint curvature makes the angular endpoints local maxima
    of the power sum, and a nonnegative midpoint curvature makes the midpoint
    a local minimum, leaving the eigenstates as the only candidates for the
    entropy minimiser. Passes when both hold within 1e-12 at every grid point.
    """
    grid = _checked_grid("s", np.linspace(0.001, 1.0, 1000) if s_grid is None else s_grid, 0.0)
    at_endpoint = endpoint_curvature(grid)
    at_midpoint = midpoint_curvature(grid)
    notes = (
        f"max endpoint curvature={float(at_endpoint.max())!r} (needs <= 1e-12); "
        f"min midpoint curvature={float(at_midpoint.min())!r} (needs >= -1e-12); "
        f"grid size {grid.size}"
    )
    return _sign_report("stationary", np.minimum(-at_endpoint, at_midpoint), (grid,), notes)


def _require_gap_domain(a: float, s: float) -> tuple[float, float]:
    a = float(a)
    s = float(s)
    if not 0.0 <= a < 1.0:
        raise ValueError(f"a must lie in [0, 1), got {a!r}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s!r}")
    return a, s


def curvature_gap(a: float, s: float) -> float:
    """Auxiliary function whose nonnegativity pins down the midpoint sign.

    Evaluates ``s[(1+a)^(s-1) + (1-a)^(s-1)] - [(1+a)^s - (1-a)^s]/a`` on
    a in [0, 1), s in (0, 1]; the removable singularity at a=0 is defined by
    continuity as 0. At ``a = 1/sqrt(2)`` this is the midpoint curvature up
    to a positive prefactor.
    """
    a, s = _require_gap_domain(a, s)
    return _gap(a, s) if a else 0.0


def curvature_gap_series(a: float, s: float, max_power: int = 20) -> float:
    """Truncated power series of ``curvature_gap`` in ``a``.

    Sums ``c_n a^n`` over even n up to ``max_power``, where
    ``c_n = 2s (s-1)(s-2)...(s-n) n / (n+1)! = 2s P_n(s) n/(n+1)`` and
    ``P_n(s) = prod_{k<=n} (1 - s/k)``. The domain is that of
    ``curvature_gap``: a in [0, 1), s in (0, 1]; a ``ValueError`` names the
    argument outside it (the series diverges for |a| >= 1).

    All terms are nonnegative for s in (0, 1], so the truncation approaches
    the direct value from below. Since ``c_n <= 2s P_m(s)`` for n >= m, the
    truncation error is at most ``2s P_m(s) a^m / (1 - a^2)`` with
    ``m`` the first omitted even power. This is slow for a near 1: at
    a = 0.9, bringing it under 1e-10 for every s on a 0.01 grid takes
    ``max_power = 214``.

    Carrying ``P_n(s)`` and ``a^n`` keeps every intermediate in [0, 1]; the
    falling factorial and ``(n+1)!`` would each overflow from
    ``max_power = 170`` on.
    """
    a, s = _require_gap_domain(a, s)
    if a == 0.0:
        return 0.0
    a2 = a * a
    total = 0.0
    coeff = 1.0  # running P_n(s)
    power = 1.0  # running a^n
    for n in range(2, max_power + 1, 2):
        coeff *= (1.0 - s / (n - 1)) * (1.0 - s / n)
        power *= a2
        total += coeff * n / (n + 1) * power
    return 2.0 * s * total


def curvature_gap_sweep(
    a_grid: Sequence[float] | None = None, s_grid: Sequence[float] | None = None
) -> VerificationReport:
    """Check ``curvature_gap >= 0`` on a grid of (a, s) pairs, evaluated as one array.

    The worst cell is the first least one in a-major order.
    """
    a_values = _checked_grid("a", np.arange(0, 100) / 100.0 if a_grid is None else a_grid, 1.0)
    s_values = _checked_grid("s", np.arange(1, 101) / 100.0 if s_grid is None else s_grid, 0.0)
    a = a_values[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # a = 0 is 0 by continuity
        gaps = np.where(a == 0.0, 0.0, _gap(a, s_values))
    notes = (
        f"grid {a_values.size}x{s_values.size} over a in [{a_values.min()}, {a_values.max()}], "
        f"s in [{s_values.min()}, {s_values.max()}]; a=0 handled by continuity as 0"
    )
    return _sign_report("lemma", gaps, (a_values, s_values), notes)


def _eigenstate_probes(family: MeasurementFamily, n_qubits: int):
    bases = family.bases_per_qubit
    return [
        ((0,) * n_qubits, (0,) * n_qubits),
        ((bases - 1,) * n_qubits, tuple(i % 2 for i in range(n_qubits))),
        (tuple(i % bases for i in range(n_qubits)), (1,) * n_qubits),
    ]


def _build_probe_states(family: MeasurementFamily, n_qubits: int) -> np.ndarray:
    probes = _eigenstate_probes(family, n_qubits)
    return _read_only(np.array([product_eigenstate(family, t, x).matrix for t, x in probes]))


_cached_probe_states = functools.lru_cache(maxsize=None)(_build_probe_states)


def _probe_states(family: MeasurementFamily, n_qubits: int) -> np.ndarray:
    """Read-only stack of the eigenstate probes of :func:`_eigenstate_probes`.

    Cached up to 4 qubits (at most 12 KiB a stack), where a rebuild would
    cost about as much as a whole trial; built per call above, where one
    stack is ``48 * 4^n`` bytes (48 MiB at 10 qubits).
    """
    if n_qubits <= 4:
        return _cached_probe_states(family, n_qubits)
    return _build_probe_states(family, n_qubits)


def additivity_trial(
    n_qubits: int,
    alpha: float,
    family: MeasurementFamily,
    trials: int,
    seed: int,
) -> VerificationReport:
    """Random-state check that the entropy floor scales linearly with n.

    Draws seeded random states of cycling rank (pure, generically entangled,
    through full rank), computes the exact conditional Renyi entropy of their
    outcome tables and verifies it never falls below ``n`` times the one-qubit
    floor. Product eigenstates must attain the floor to within 1e-10. The
    trial states are drawn as one stack, and they and the eigenstate probes
    are tabulated in one batch and their entropies reduced along the trial
    axis. The worst state is the report's witness. ``trials + 3`` tables past
    the simulator's entry limit (states and probes) are refused before seeding.
    """
    n_qubits = _require_count("n_qubits", n_qubits, 1)
    trials = _require_count("trials", trials, 1)
    floor_total = n_qubits * renyi_floor(alpha, family)
    _require_table_entries(family, n_qubits, trials + 3)
    dim = 2**n_qubits
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)

    states = random_densities(n_qubits, 1 + np.arange(trials) % dim, trial_seeds)
    matrices = np.concatenate([states, _probe_states(family, n_qubits)])[:, None]
    weights, rows = stack_outcome_arrays(matrices, np.ones((len(matrices), 1)), family)
    margins = renyi_entropies(weights, rows, alpha) - floor_total
    worst_index = int(np.argmin(margins[:trials]))
    worst = float(margins[worst_index])
    eigen_dev = float(np.max(np.abs(margins[trials:])))

    passed = worst >= -1e-9 and eigen_dev <= 1e-10
    notes = (
        f"family={family.value}; alpha={alpha!r}; n={n_qubits}; floor={floor_total!r}; "
        f"ranks cycled 1..{dim}; eigenstate deviation={eigen_dev!r} (needs <= 1e-10); "
        f"{PRNG_DESCRIPTION}"
    )
    return VerificationReport(
        suite="additivity",
        passed=passed,
        worst_margin=worst,
        argmin=(float(worst_index),),
        resolution=0,
        trials=trials,
        seed=seed,
        notes=notes,
        witness=_read_only(states[worst_index : worst_index + 1].copy()),
    )


def ensemble_trial(
    n_qubits: int,
    alpha: float,
    family: MeasurementFamily,
    k_count: int,
    trials: int,
    seed: int,
) -> VerificationReport:
    """Random-ensemble check that classical labels cannot beat the floor.

    Each trial draws a labelled mixture of random states with random mixing
    probabilities. The table conditioned on both basis and label must stay
    above ``n`` times the floor (within 1e-9) and above the worst member's
    own entropy (within 1e-10). The members of all trials are drawn as one
    stack and tabulated once, in one batch, and each row's excess is reduced
    once: the ensemble entropies and the member entropies are two weighted
    sums of it. The members of the worst ensemble are the report's witness.
    Raises ``ValueError`` before seeding when the ``trials * k_count`` member
    tables exceed the simulator's entry limit. That bounds memory, not time:
    100,000 BB84 two-qubit, two-member trials take 11 s, so the largest such
    run accepted (262,144 trials) would take about 30 s (estimated, not run).
    """
    n_qubits = _require_count("n_qubits", n_qubits, 1)
    k_count = _require_count("k_count", k_count, 2)
    trials = _require_count("trials", trials, 1)
    floor_total = n_qubits * renyi_floor(alpha, family)
    _require_table_entries(family, n_qubits, trials * k_count)
    dim = 2**n_qubits

    probabilities = np.empty((trials, k_count))
    ranks = np.empty((trials, k_count), dtype=np.int64)
    state_seeds = np.empty((trials, k_count), dtype=np.int64)
    concentration = np.ones(k_count)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.Generator(np.random.PCG64(child))
        probabilities[t] = rng.dirichlet(concentration)
        ranks[t] = rng.integers(1, dim + 1, size=k_count)
        state_seeds[t] = rng.integers(0, 2**63, size=k_count)
    states = random_densities(n_qubits, ranks.ravel(), state_seeds.ravel())
    matrices = states.reshape(trials, k_count, dim, dim)

    s = alpha - 1.0
    probabilities = checked_probabilities(probabilities)
    weights, rows = stack_outcome_arrays(matrices, probabilities, family)
    excess = _row_excess(rows, s)
    table_entropies = _excess_entropies(weights, excess, s)
    # Member j's own table is its block, each basis string weighing 1/bases^n as
    # in subtables_by_k; a member of zero weight has none and stays out of the min.
    blocks = excess.reshape(trials, k_count, -1)
    member_entropies = _excess_entropies(1.0 / blocks.shape[-1], blocks, s)
    weakest = member_entropies.min(axis=1, where=probabilities > 0.0, initial=np.inf)
    floor_margins = table_entropies - floor_total
    member_margins = table_entropies - weakest
    worst_index = int(np.argmin(np.minimum(floor_margins, member_margins)))
    worst_floor = float(floor_margins.min())
    worst_member = float(member_margins.min())

    passed = worst_floor >= -1e-9 and worst_member >= -1e-10
    notes = (
        f"family={family.value}; alpha={alpha!r}; n={n_qubits}; k={k_count}; "
        f"floor={floor_total!r}; worst margin above weakest member={worst_member!r} "
        f"(needs >= -1e-10); {PRNG_DESCRIPTION}"
    )
    return VerificationReport(
        suite="ensemble",
        passed=passed,
        worst_margin=worst_floor,
        argmin=(float(worst_index),),
        resolution=0,
        trials=trials,
        seed=seed,
        notes=notes,
        witness=_read_only(matrices[worst_index].copy()),
    )
