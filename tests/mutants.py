"""Run tier-1 against hand-written source mutants and report the survivors.

Each mutant replaces one exact text, which must occur exactly once, in one
file of a fresh copy of the working tree, and runs tier-1 there with ``-x``.
A mutant is killed when tier-1 fails and survives when it passes: then no
test reaches the code it changed. An unmutated copy must pass first, or
every mutant would look killed. The list covers the
verdicts of the verifier, one loosened tolerance per constant of
``verify.py``, ``tables.py`` and ``simulator.py``, the grid search's floor
shifted either way by 1e-10, the grid's ranked half and the tie window and
the rounding and mirror-asymmetry terms of its bits cut, the default lemma
grid, the grid, table and figure size limits and the checks that apply them,
the cached probe stacks' qubit limit, the float-fit
refusal of block lengths, the smoothing term, both search brackets and the
probability check of ``bounds.py``, and the exact block lengths of the
figure CSV.

Stdlib only; pytest does not collect this file, so it is not part of tier-1.
From the repository root::

    python tests/mutants.py

Prints one line per mutant and exits 1 when a mutant survives.
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
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
TIMEOUT_S = 900

VERIFY = "src/entrobound/verify.py"
TABLES = "src/entrobound/tables.py"
SIMULATOR = "src/entrobound/simulator.py"
BOUNDS = "src/entrobound/bounds.py"
CLI = "src/entrobound/cli.py"

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
        "row = int(np.argmax(row_min <= grid_min + 1e-12))",
        "row = int(np.argmax(row_min <= grid_min + 1e-6))",
    ),
    # the grid's ranked half and its bits cut: the tie window, then the
    # rounding and mirror-asymmetry terms
    (VERIFY, "half = (resolution + 1) // 2", "half = resolution // 2"),
    (
        VERIFY,
        "window = 1e-12 + 2e-13 + 5 * 2.0**-53 * 4",
        "window = 2e-13 + 5 * 2.0**-53 * 4",
    ),
    (VERIFY, "window = 1e-12 + 2e-13 + 5 * 2.0**-53 * 4", "window = 1e-12"),
    (VERIFY, "_MAX_GRID_POINTS = 10**8", "_MAX_GRID_POINTS = 10**9"),
    (VERIFY, "if n_qubits <= 4:", "if n_qubits <= 10:"),
    # the default lemma grid
    (VERIFY, "np.arange(1, 101) / 100.0", "np.arange(1, 101) / 100.000001"),
    # table and state checks
    (TABLES, "NORM_TOL = 1e-9", "NORM_TOL = 1e-3"),
    (TABLES, "ZERO_PROB = 1e-15", "ZERO_PROB = 1e-6"),
    (TABLES, "_ENTRY_TOL = 1e-12", "_ENTRY_TOL = 1e-3"),
    (SIMULATOR, "ATOL = 1e-12", "ATOL = 1e-3"),
    (SIMULATOR, "MIN_CONDITION_PROB = 1e-14", "MIN_CONDITION_PROB = 1e-3"),
    (SIMULATOR, "if norm_sq > 1.0 + 1e-12:", "if norm_sq > 1.0 + 1e-3:"),
    # size limits
    (SIMULATOR, "_MAX_TABLE_ENTRIES = 2**23", "_MAX_TABLE_ENTRIES = 2**24"),
    (VERIFY, "    _require_table_entries(family, n_qubits, trials + 3)\n", ""),
    (VERIFY, "    _require_table_entries(family, n_qubits, trials * k_count)\n", ""),
    (BOUNDS, "_MAX_FIGURE_ROWS = 10**5", "_MAX_FIGURE_ROWS = 10**6"),
    (CLI, "    bounds._require_figure_rows(len(args.rates) * args.points)\n", ""),
    # the figure CSV
    (CLI, "{row.n_legacy},", "{row.n_legacy:.17g},"),
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


def main() -> int:
    for i, (path, old, _) in enumerate(MUTANTS):  # refuse a stale list before spending any run
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            raise SystemExit(f"mutant {i}: {path} holds the old text {count} times: {old!r}")
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
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
