"""Brute-force numerical verification of the tight entropy relations.

Each suite rechecks, by exhaustive grid search or seeded random trials, a
fact the closed-form bounds rely on:

* ``grid_search_min`` minimises the single-qubit conditional Renyi entropy
  over the full Bloch quadrant/octant and compares with the closed-form
  floor, without trusting the analytic reduction to the sphere surface.
  Both families share one power sum, ``bloch_power_sum``, over the Bloch
  components along their B measured axes, and one grid: the radius times
  the direction of B - 1 angles. The grid is ranked by the power sum in
  streamed chunks of radius rows, and the points that can hold the minimum
  are reduced as tables by the Renyi reduction that every suite shares;
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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import _LN2, FigureRow, figure_rows, renyi_floor  # re-exports the figure pair
from .entropy import _excess_entropies, _row_excess, renyi_entropies
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


def bloch_power_sum(s, components):
    """Order-(1+s) power sum ``sum_i [(1+x_i)^e + (1-x_i)^e] / (B 2^e)``, ``e = 1+s``.

    ``x_i`` is the Bloch component along measured axis i of B. The first
    component carries the full broadcast shape: the sum is accumulated in
    place, because a named running sum keeps numpy from reusing temporaries.
    """
    e = 1.0 + s
    first, *rest = components
    total = (1 + first) ** e + (1 - first) ** e
    for x in rest:
        total += (1 + x) ** e
        total += (1 - x) ** e
    return total / (len(components) * 2.0**e)


def _bloch_components(r, angles):
    """``r`` times the unit vector of ``angles``, one component per Bloch axis."""
    # (r sin phi, r cos phi); a further angle theta gives (r sin phi sin theta, ..., r cos theta)
    components = [r]
    for angle in angles:
        sin = np.sin(angle)
        components = [x * sin for x in components] + [r * np.cos(angle)]
    return components


def bb84_surface(s, r, phi):
    """Two-basis power sum at Bloch vector (r sin phi, 0, r cos phi)."""
    return bloch_power_sum(s, _bloch_components(r, (phi,)))


def six_state_surface(s, r, phi, theta):
    """Three-basis power sum over the Bloch octant in spherical coordinates."""
    return bloch_power_sum(s, _bloch_components(r, (phi, theta)))


def surface_entropy(power_sum, s):
    """Renyi entropy ``-log2(P)/s`` of order 1+s from a power-sum value, to ``1/s`` accuracy."""
    return -np.log2(power_sum) / s


# Largest grid the search accepts, about 3 s at ~30 ns per point away from
# alpha = 1: resolution 10^4 for BB84 and 464 for six-state (464^3 <= 10^8).
_MAX_GRID_POINTS = 10**8
# Grid points per radius chunk: the search's working set is a few arrays of
# this many doubles, plus two values per radius row. A chunk is at least one
# row: above resolution 256 a six-state chunk is one row of resolution^2 points.
_CHUNK_POINTS = 2**16


def _near_eigenstate(point, step_r: float, step_ang: float) -> bool:
    """Whether grid point ``(r, *angles)`` lies within one step of a basis eigenstate."""
    # r within a step of 1, and every Bloch component but one within sin(step) of zero
    tiny = 1e-12
    components = sorted(abs(float(x)) for x in _bloch_components(point[0], point[1:]))
    return point[0] >= 1.0 - step_r - tiny and components[-2] <= math.sin(step_ang) + tiny


def grid_search_min(
    family: MeasurementFamily, alpha: float, resolution: int = 200
) -> VerificationReport:
    """Grid-minimise the single-qubit Renyi entropy and compare to the floor.

    Searches the full box of the radius and one angle per further Bloch axis
    rather than only the sphere surface, exploiting the reflection symmetry
    of the power sum to restrict to the first quadrant (octant for three
    bases). Passes when the grid minimum matches the closed-form floor within
    a curvature-aware tolerance, never undershoots it beyond 1e-9, and the
    argmin sits within one grid step of a basis eigenstate.

    A point's entropy is that of its table, rows ``((1 + x_i)/2, (1 - x_i)/2)``
    weighted 1/B, under :func:`entrobound.entropy.renyi_entropies`; it falls
    as the power sum P rises. A pass over chunks of about ``_CHUNK_POINTS``
    points keeps each radius row's largest P. Every point of the rows whose
    largest P reaches the cut ``(1 - 2 (8B + 3)u - 2e-12 s ln 2)`` times the
    largest of all (u = 2^-53) is reduced as a table, keeping each row's
    least entropy, and the first row within 1e-12 of the minimum is reduced
    again for the argmin, its first point within 1e-12. Memory is
    O(resolution) for BB84 and one chunk for six-state (above resolution
    256, one radius row of resolution^2 points), and the report is that of
    reducing every point: with pow, sin and cos within 2u, a
    computed P is within (8B + 1)u of exact (6(B-1)u from the components, as
    ``|dP/dx_i| <= e/(2B)`` and ``P >= 1/2``; 4u from the powers, (2B - 1)u
    from their sum, 4u from the divisor), and a table entropy within 1e-13
    bits whatever s is (its terms ``p expm1(s ln p)`` share one sign, and
    moving an entry p by d moves it by about ``(1 + |ln p|) d`` bits). So a
    point within 1e-12 of the minimum is within 2e-12 bits, exactly, of the
    largest-P point, and as ``P = 2^(-s H)`` its computed P reaches the cut,
    which keeps 2u spare for its own rounding; a point below the cut moves
    neither the minimum nor the argmin. Near alpha = 1 the cut keeps almost
    every row.

    Every family is searched at the resolution asked. Raises ``ValueError``
    before building any array when the grid would hold more than 10^8 points
    (``_MAX_GRID_POINTS``, about 3 s of work away from alpha = 1): BB84
    resolutions above 10^4 and six-state ones above 464. The limit bounds
    memory but not time, which grows near alpha = 1 as the cut keeps more rows.
    """
    if resolution < 50:
        raise ValueError(f"resolution must be at least 50, got {resolution!r}")
    floor = renyi_floor(alpha, family)
    s = alpha - 1.0
    bases = family.bases_per_qubit
    if int(resolution) ** bases > _MAX_GRID_POINTS:
        raise ValueError(
            f"resolution {resolution!r} gives a {family.value} grid of more than "
            f"10^8 points, the limit of the single-qubit search"
        )
    r = np.linspace(0.0, 1.0, resolution)
    ang = np.linspace(0.0, math.pi / 2.0, resolution)
    axes = [r] + [ang] * (bases - 1)
    radius, *angles = np.meshgrid(*axes, indexing="ij", sparse=True)
    height = max(1, _CHUNK_POINTS // resolution ** len(angles))

    def table_entropies(rows: np.ndarray) -> np.ndarray:
        """Table entropies of every point of the radius rows ``rows``, one row each."""
        x = np.stack(np.broadcast_arrays(*_bloch_components(radius[rows], angles)), axis=-1)
        probs = np.stack([1.0 + x, 1.0 - x], -1) / 2.0
        return renyi_entropies(1.0 / bases, probs, alpha).reshape(len(rows), -1)

    row_max = np.empty(resolution)
    for rows in np.array_split(np.arange(resolution), -(-resolution // height)):
        power_sum = bloch_power_sum(s, _bloch_components(radius[rows], angles))
        row_max[rows] = power_sum.reshape(len(rows), -1).max(axis=1)
    cut = float(row_max.max()) * (1.0 - 2 * (8 * bases + 3) * 2.0**-53 - 2e-12 * s * _LN2)
    candidates = np.flatnonzero(row_max >= cut)
    row_min = np.full(resolution, np.inf)
    for rows in np.array_split(candidates, -(-len(candidates) // height)):
        row_min[rows] = table_entropies(rows).min(axis=1)

    grid_min = float(row_min.min())
    # Ties (the whole r = 1 arc at alpha = 2, where P depends on the radius
    # alone) go to the smallest flat index, whatever the execution order.
    row = int(np.argmax(row_min <= grid_min + 1e-12))
    column = int(np.argmax(table_entropies(np.array([row]))[0] <= grid_min + 1e-12))
    index = (row, *np.unravel_index(column, (resolution,) * len(angles)))
    argmin = tuple(float(axis[i]) for axis, i in zip(axes, index))
    margin = grid_min - floor
    step_r = 1.0 / (resolution - 1)
    step_ang = (math.pi / 2.0) / (resolution - 1)
    # Second derivatives of the entropy surfaces are bounded by ~1/(2 s ln 2)
    # near the eigenstates, so the grid can miss the true minimum by at most
    # about step^2 / (s ln 2) across all axes.
    tolerance = max(1e-3, max(step_r, step_ang) ** 2 / (s * _LN2))
    argmin_ok = _near_eigenstate(argmin, step_r, step_ang)

    passed = (margin >= -1e-9) and (abs(margin) <= tolerance) and argmin_ok
    notes = (
        f"family={family.value}; alpha={alpha!r}; closed-form floor={floor!r}; "
        f"grid min={grid_min!r}; tolerance={tolerance!r} (curvature-aware); "
        f"argmin near eigenstate: {argmin_ok}; first quadrant/octant searched "
        f"by symmetry of the power sums in |x_i|"
    )
    return VerificationReport(
        suite="single-qubit",
        passed=passed,
        worst_margin=margin,
        argmin=argmin,
        resolution=resolution,
        trials=0,
        seed=0,
        notes=notes,
    )


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
    """``values`` as floats, refused unless nonempty and in [0, 1] less ``excluded`` (or NaN)."""
    grid = np.array(values, dtype=float, ndmin=1)  # a scalar is a one-point grid
    if grid.size == 0 or not np.all((grid >= 0.0) & (grid <= 1.0) & (grid != excluded)):
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


@functools.lru_cache(maxsize=None)
def _probe_states(family: MeasurementFamily, n_qubits: int) -> np.ndarray:
    """Read-only stack of the eigenstate probes of :func:`_eigenstate_probes`."""
    probes = _eigenstate_probes(family, n_qubits)
    return _read_only(np.array([product_eigenstate(family, t, x).matrix for t, x in probes]))


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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
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
    if k_count < 2:
        raise ValueError(f"k_count must be >= 2, got {k_count!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    floor_total = n_qubits * renyi_floor(alpha, family)
    _require_table_entries(family, n_qubits, trials * k_count)
    dim = 2**n_qubits

    probabilities = np.empty((trials, k_count))
    ranks = np.empty((trials, k_count), dtype=np.int64)
    state_seeds = np.empty((trials, k_count), dtype=np.int64)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.Generator(np.random.PCG64(child))
        probabilities[t] = rng.dirichlet(np.ones(k_count))
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
