"""Run tier-1 against hand-written source mutants and report the survivors.

Each mutant replaces one exact text, which must occur exactly once, in one
file of a fresh copy of the working tree, and runs tier-1 there with ``-x``.
A mutant is killed when tier-1 fails and survives when it passes: then no
test reaches the code it changed. An unmutated copy must pass first, or
every mutant would look killed. The list covers the verdicts of the
verifier, one loosened tolerance per constant of ``verify.py``,
``tables.py`` and ``simulator.py``, the validators' whole-stack verdicts
(the Cholesky shift of the state check moved to ``tau + delta`` and to
``tau``, its dimension limit and its trace test dropped, and the row
verdict's least-entry test made strict), the grid search's floor shifted either
way by 1e-10, its tie window, its radial check (dropped), the per-axis
excess it checks (decreasing near x = 1) and the per-point excess's weight
``1/B``, the default lemma grid, the grid, table and figure size limits and
the checks that apply them, the ``verify`` command's checks of ``--alpha``,
``--resolution``, ``--trials`` (at least 1, and within the table-entry
limit of both the additivity and the ensemble suite) and ``--seed``, the
weight sum's overflow warning (not silenced), the cached probe stacks'
qubit limit, the float-fit refusal of block lengths, the smoothing term,
both search brackets and the probability check of ``bounds.py``, a
block-length probe's test of a candidate (loosened by 1e-9), the candidate
stream's endpoint ``s = 1`` (dropped), the ceiling test that fails a probe
without the stream (flipped, its margin dropped and its margin's sign
flipped), the exact block lengths of the figure CSV, and the CLI's process policy: the stdout
flush in ``run``, which a command's output and the ``--help`` text share,
and the collector calls of ``main`` (``gc.disable()`` moved into ``run``,
by adding it there, which behaves the same as moving it, and
``gc.freeze()`` dropped).

Stdlib only; pytest does not collect this file, so it is not part of tier-1,
but ``tests/test_mutant_list.py`` runs its check that the list is current.
From the repository root::

    python tests/mutants.py

Prints one line per mutant and exits 1 when a mutant survives. The mutants
of ``EQUIVALENT`` change no behaviour, each for the reason given with it;
they run last and are reported apart, as equivalent or, when killed, as
not equivalent, and never count as survivors.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The list's own check reads the mutated copy, so it stays out of the runs.
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
    "--ignore", "tests/test_mutant_list.py",
]
TIMEOUT_S = 900

VERIFY = "src/entrobound/verify.py"
TABLES = "src/entrobound/tables.py"
SIMULATOR = "src/entrobound/simulator.py"
BOUNDS = "src/entrobound/bounds.py"
CLI = "src/entrobound/cli.py"

_REFUSAL = (
    "        if n > 2**62:\n"
    "            raise InfeasibleRateError(f\"no block length up to 2^62 certifies rate {target_rate!r}\")\n"
)
_SHORTCUT = "        if _short_of_ceiling(n, eps_term, ceiling, target_rate):\n            return False\n"

# (file, exact old text, new text)
MUTANTS = [
    # verdicts
    (
        VERIFY,
        "passed = worst >= -1e-9 and eigen_dev <= 1e-10",
        "passed = worst >= -1e-3 and eigen_dev <= 1e-10",
    ),
    (
        VERIFY,
        "passed = worst >= -1e-9 and eigen_dev <= 1e-10",
        "passed = worst >= -1e-9 and eigen_dev <= 1e-3",
    ),
    (
        VERIFY,
        "passed = worst_floor >= -1e-9 and worst_member >= -1e-10",
        "passed = worst_floor >= -1e-9",
    ),
    (
        VERIFY,
        "passed = worst_floor >= -1e-9 and worst_member >= -1e-10",
        "passed = worst_floor >= -1e-3 and worst_member >= -1e-10",
    ),
    (
        VERIFY,
        "passed=abs(margin) <= tolerance and argmin == eigenstate,",
        "passed=abs(margin) <= tolerance,",
    ),
    (VERIFY, "tolerance = 1e-13 + 4e-16", "tolerance = 1e-9"),
    (VERIFY, "passed=worst >= -1e-12,", "passed=worst >= -1e-3,"),
    # the floor the grid search compares with
    (
        VERIFY,
        "floor = renyi_floor(alpha, family)",
        "floor = renyi_floor(alpha, family) - 1e-10",
    ),
    (
        VERIFY,
        "floor = renyi_floor(alpha, family)",
        "floor = renyi_floor(alpha, family) + 1e-10",
    ),
    # the rest of the grid search's tolerances
    (
        VERIFY,
        "index = np.unravel_index(int(np.argmax(bits <= grid_min + 1e-12)), bits.shape)",
        "index = np.unravel_index(int(np.argmax(bits <= grid_min + 1e-6)), bits.shape)",
    ),
    (VERIFY, "_MAX_GRID_POINTS = 10**8", "_MAX_GRID_POINTS = 10**9"),
    # the reduction to the sphere: its radial check dropped, and a per-axis
    # excess that decreases near x = 1 (on 0.9 < x < 1, below its value at 0.9)
    (VERIFY, "if np.all(np.diff(_bloch_excess(s, [r])) >= 0.0):", "if True:"),
    (
        VERIFY,
        "half = 0.5 * x  # (1 +- x)/2 = 0.5 +- x/2, exactly as rounded",
        "half = np.where((x > 0.9) & (x < 1.0), 0.4, 0.5) * x",
    ),
    # the per-point excess weighted 1/(B + 1) in place of 1/B
    (VERIFY, "weight = 1.0 / len(components)", "weight = 1.0 / (len(components) + 1)"),
    (VERIFY, "if n_qubits <= 4:", "if n_qubits <= 10:"),
    # the default lemma grid
    (VERIFY, "np.arange(1, 101) / 100.0", "np.arange(1, 101) / 100.000001"),
    # table and state checks
    (TABLES, "NORM_TOL = 1e-9", "NORM_TOL = 1e-3"),
    (TABLES, "ZERO_PROB = 1e-15", "ZERO_PROB = 1e-6"),
    (TABLES, "_ENTRY_TOL = 1e-12", "_ENTRY_TOL = 1e-3"),
    # a weight sum that overflows is refused without numpy's warning
    (
        TABLES,
        "    with np.errstate(over=\"ignore\"):  # an infinite total fails the verdict below\n"
        "        totals = cleaned.sum(axis=1)\n",
        "    totals = cleaned.sum(axis=1)\n",
    ),
    (SIMULATOR, "ATOL = 1e-12", "ATOL = 1e-3"),
    (SIMULATOR, "MIN_CONDITION_PROB = 1e-14", "MIN_CONDITION_PROB = 1e-3"),
    (SIMULATOR, "if norm_sq > 1.0 + 1e-12:", "if norm_sq > 1.0 + 1e-3:"),
    # the whole-stack verdicts: the Cholesky shift at tau + delta and at tau
    # (delta = 0), its dimension limit and the trace test dropped, and the
    # rows' least-entry test made strict
    (SIMULATOR, "((1.0 - margin) * tolerance)", "((1.0 + margin) * tolerance)"),
    (SIMULATOR, "((1.0 - margin) * tolerance)", "(1.0 * tolerance)"),
    (SIMULATOR, "        margin < 1.0\n        and all_finite\n", "        all_finite\n"),
    (SIMULATOR, "        and (deviation <= tolerance).all()\n", ""),
    (
        TABLES,
        "probs.min() >= -_ENTRY_TOL and probs.max()",
        "probs.min() > -_ENTRY_TOL and probs.max()",
    ),
    # size limits
    (SIMULATOR, "_MAX_TABLE_ENTRIES = 2**23", "_MAX_TABLE_ENTRIES = 2**24"),
    (VERIFY, "    _require_table_entries(family, n_qubits, trials + 3)\n", ""),
    (VERIFY, "    _require_table_entries(family, n_qubits, trials * k_count)\n", ""),
    (BOUNDS, "_MAX_FIGURE_ROWS = 10**5", "_MAX_FIGURE_ROWS = 10**6"),
    (CLI, "    bounds._require_figure_rows(len(args.rates) * args.points)\n", ""),
    # every verify option checked for every suite, those that do not read it included
    (CLI, "    bounds._require_alpha(args.alpha)\n", ""),
    (CLI, "    verify._require_resolution(args.family, args.resolution)\n", ""),
    (CLI, "    bounds._require_count(\"trials\", args.trials, 1)\n", ""),
    (CLI, "    simulator._require_table_entries(args.family, 2, args.trials + 3)\n", ""),
    (CLI, "    simulator._require_table_entries(args.family, 2, 2 * args.trials)\n", ""),
    (CLI, "    bounds._require_count(\"seed\", args.seed, 0)\n", ""),
    # the figure CSV
    (CLI, "{row.n_legacy},", "{row.n_legacy:.17g},"),
    # the CLI process: a failed stdout write is exit 2, a command's output
    # and the ``--help`` text alike, and the collector is off and everything
    # frozen in ``main`` alone
    (
        CLI,
        "            sys.stdout.flush()  # a buffered write that fails does so here, not at exit\n",
        "            pass\n",
    ),
    (CLI, "    parser = build_parser()\n", "    gc.disable()\n    parser = build_parser()\n"),
    (CLI, "    gc.freeze()\n", ""),
    # bound layer
    (
        BOUNDS,
        "    try:\n        float(n)  # the formulas convert n to a float\n    except OverflowError:\n"
        "        raise ValueError(f\"block length {n!r} exceeds the largest float, "
        "about 1.8e308\") from None\n",
        "",
    ),
    (BOUNDS, "return 1.0 - 2.0 * math.log2(epsilon)", "return -2.0 * math.log2(epsilon)"),
    (BOUNDS, "if not 0.0 <= p <= 1.0:", "if not 0.0 <= p <= 1.000001:"),
    (BOUNDS, "_LOG_S_MIN = -40.0 * _LN2", "_LOG_S_MIN = -20.0 * _LN2"),
    (BOUNDS, "lo, hi = hi, 2 * hi", "lo, hi = hi, 3 * hi"),
    # a probe's test of a candidate, and the stream's first candidate, the endpoint s = 1
    (BOUNDS, "if rate >= target_rate:", "if rate >= target_rate - 1e-9:"),
    (BOUNDS, "    yield _rate_at(1.0, n, eps_term, ceiling), 1.0\n", ""),
    # a probe failed by its ceiling bound: the comparison flipped, the margin
    # dropped and its sign flipped
    (
        BOUNDS,
        "return ceiling - eps_term / n < target_rate - _CEILING_MARGIN",
        "return ceiling - eps_term / n >= target_rate - _CEILING_MARGIN",
    ),
    (
        BOUNDS,
        "return ceiling - eps_term / n < target_rate - _CEILING_MARGIN",
        "return ceiling - eps_term / n < target_rate",
    ),
    (
        BOUNDS,
        "return ceiling - eps_term / n < target_rate - _CEILING_MARGIN",
        "return ceiling - eps_term / n < target_rate + _CEILING_MARGIN",
    ),
]

# Mutants that no test can kill, each with the reason it changes no behaviour.
# They are run too, and reported apart: one that is killed is not equivalent.
EQUIVALENT = [
    (
        BOUNDS,
        _REFUSAL + _SHORTCUT,
        _SHORTCUT + _REFUSAL,
        "the ceiling test cannot hold above 2^62, where eps_term / n < 2150 / 2^62 < "
        "_CEILING_MARGIN, so the refusal still comes first wherever it applies",
    ),
]


_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*")


def run_mutant(path: str, old: str, new: str) -> tuple[str, str, float]:
    """Tier-1 verdict on one mutant: ``(outcome, first failure line, seconds)``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        target = tree / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run(
                TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "SURVIVED", "", seconds
    failures = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", (failures or [f"exit code {done.returncode}"])[0], seconds


def stale_mutants() -> list[str]:
    """One line per mutant, of either list, whose old text does not occur exactly once in its file."""
    stale = []
    for i, (path, old, *_) in enumerate(MUTANTS + EQUIVALENT):
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            stale.append(f"mutant {i}: {path} holds the old text {count} times: {old!r}")
    return stale


def main() -> int:
    stale = stale_mutants()  # refuse a stale list before spending any run
    if stale:
        raise SystemExit("\n".join(stale))
    outcome, detail, _ = run_mutant(VERIFY, "", "")  # replacing "" by "" changes nothing
    if outcome != "SURVIVED":
        raise SystemExit(f"tier-1 fails on an unmutated copy: {detail}")
    survivors = 0
    for i, (path, old, new) in enumerate(MUTANTS):
        outcome, detail, seconds = run_mutant(path, old, new)
        survivors += outcome == "SURVIVED"
        change = f"{old.strip()!r} -> {new.strip()!r}"
        print(f"{i:2d} {outcome:8s} {seconds:6.1f} s  {path}: {change}  {detail}", flush=True)
    print(f"{survivors} of {len(MUTANTS)} mutants survived")
    for i, (path, old, new, reason) in enumerate(EQUIVALENT, start=len(MUTANTS)):
        outcome, detail, seconds = run_mutant(path, old, new)
        verdict = "equivalent" if outcome == "SURVIVED" else "killed, so not equivalent"
        print(f"{i:2d} {verdict} {seconds:6.1f} s  {path}: {reason}  {detail}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
