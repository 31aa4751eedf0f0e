"""Deterministic input generator for the benchmark workloads.

Everything here depends only on (workload, seed, block index) and uses the
standard library's Mersenne Twister seeded from a string, so the same seed
gives byte-identical inputs on every machine. Blocks are stratified: each
block of a workload has the same composition of operation kinds, and only the
numeric parameters change with the seed. That keeps the cost of a block, and
so the end-to-end figures, steady from seed to seed.

Workloads:

* ``blocklen-grid``: one op is one (family, rate, eps) cell inverted with the
  new route (plus the legacy route for bb84) and one forward rate at a
  log-spaced block length.
* ``sim-trials``: one op is one seeded additivity or ensemble trial call.
* ``cli-mix``: one op is one command line; every block is the same pass of
  argument vectors, and the pass's table files are written by
  :func:`write_cli_inputs`.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("blocklen-grid", "sim-trials", "cli-mix")
CEILINGS = {"bb84": 0.5, "six": 2.0 / 3.0}

# Reference operating points of the paper, placed at the head of block 0.
REFERENCE_CELLS = (
    {"family": "bb84", "rate": 0.4894, "eps": 0.1, "n_fwd": 23600,
     "expect": {"n_new": 23576, "n_legacy": 239723609, "rate_fwd": 0.48941}},
    {"family": "six", "rate": 0.66, "eps": 1e-10, "n_fwd": 468989,
     "expect": {"n_new": 468989}},
)

BLOCKLEN_CELLS_PER_FAMILY = 16
# Cells with eps below 1e-154 square to a subnormal or zero eps^2; one per
# block stays in the mix so that extreme-eps handling is exercised.
TINY_EPS_RANGE = (1e-300, 1e-155)
EPS_RANGE = (1e-30, 0.5)
N_FWD_RANGE = (1e1, 1e18)
RATE_FRACTION_RANGE = (0.05, 0.999)

# (kind, family, n_qubits, k_count): every family and block size the
# simulator supports up to its qubit budget, each as an additivity trial and
# as ensemble trials with 2, 3 and 4 members.
SIM_COMBOS = tuple(
    combo
    for family, n in (("bb84", 2), ("bb84", 3), ("bb84", 4), ("six", 2), ("six", 3))
    for combo in [("additivity", family, n, 0)] + [("ensemble", family, n, k) for k in (2, 3, 4)]
)
SIM_TRIALS = {"additivity": 4, "ensemble": 2}

CLI_SMALL_TABLE = (8, 4)  # contexts, outcomes
CLI_LARGE_TABLE = (1024, 8)
CLI_BB84_RESOLUTION = 1500
CLI_SIX_RESOLUTION = 100


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"entrobound-bench:{workload}:{seed}:{block}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, count: int, lo: float, hi: float, log: bool = False) -> list:
    """One draw in each of ``count`` equal strata of [lo, hi], shuffled."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [a + (b - a) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return [math.exp(v) for v in values] if log else values


def _alpha(rng: random.Random) -> float:
    # Renyi order in (1, 2]: 1 + (1 - u) with u in [0, 1).
    return 1.0 + (1.0 - rng.random())


def blocklen_block(seed: int, block: int) -> list[dict]:
    rng = _rng("blocklen-grid", seed, block)
    cells = []
    for family in ("bb84", "six"):
        count = BLOCKLEN_CELLS_PER_FAMILY
        fractions = _strata(rng, count, *RATE_FRACTION_RANGE)
        eps = _strata(rng, count, *EPS_RANGE, log=True)
        n_fwd = _strata(rng, count, *N_FWD_RANGE, log=True)
        for f, e, n in zip(fractions, eps, n_fwd):
            cells.append({"family": family, "rate": f * CEILINGS[family], "eps": e, "n_fwd": round(n)})
    tiny = cells[rng.randrange(len(cells))]
    tiny["eps"] = _log_uniform(rng, *TINY_EPS_RANGE)
    tiny["tiny_eps"] = True
    rng.shuffle(cells)
    if block == 0:
        cells = [dict(c) for c in REFERENCE_CELLS] + cells
    return cells


def sim_block(seed: int, block: int) -> list[dict]:
    rng = _rng("sim-trials", seed, block)
    ops = [
        {"kind": kind, "family": family, "n": n, "k": k, "alpha": _alpha(rng),
         "trials": SIM_TRIALS[kind], "seed": rng.randrange(2**32)}
        for kind, family, n, k in SIM_COMBOS
    ]
    rng.shuffle(ops)
    return ops


def _table_doc(rng: random.Random, contexts: int, outcomes: int) -> dict:
    labels = max(1, contexts // 4)
    raw_weights = [0.1 + rng.random() for _ in range(contexts)]
    total = sum(raw_weights)
    rows = []
    for i, w in enumerate(raw_weights):
        raw = [rng.random() ** 3 for _ in range(outcomes)]
        row_total = sum(raw)
        rows.append({"k": str(i % labels), "theta": format(i // labels, "b"),
                     "weight": w / total, "p_x": [p / row_total for p in raw]})
    return {"contexts": rows}


def cli_pass(seed: int, data_dir: str) -> tuple[list[list[str]], dict[str, dict]]:
    """The pass of argument vectors and the table documents it reads.

    Paths are relative to the checkout root, joined onto ``data_dir``.
    """
    rng = _rng("cli-mix", seed, 0)

    def g(value: float) -> str:
        return repr(float(value))  # the exact float, spelled for the command line

    def eps() -> str:
        return g(_log_uniform(rng, 1e-20, 0.5))

    def block_length() -> str:
        return str(round(_log_uniform(rng, 1e2, 1e12)))

    def target(family: str) -> str:
        return g(rng.uniform(0.3, 0.99) * CEILINGS[family])

    tables = {}
    for name, (contexts, outcomes) in (
        ("small-0", CLI_SMALL_TABLE), ("small-1", CLI_SMALL_TABLE),
        ("large-0", CLI_LARGE_TABLE), ("large-1", CLI_LARGE_TABLE),
    ):
        tables[os.path.join(data_dir, f"table-{name}.json")] = _table_doc(rng, contexts, outcomes)
    table_paths = list(tables)

    argv = [
        ["rate", "--family", "bb84", "--n", block_length(), "--eps", eps()],
        ["rate", "--family", "six", "--n", block_length(), "--eps", eps()],
        ["rate", "--family", "six", "--n", block_length(), "--eps", eps()],
        ["rate", "--family", "bb84", "--n", block_length(), "--eps", eps(), "--s", g(rng.uniform(0.05, 1.0))],
        ["blocklen", "--family", "bb84", "--rate", target("bb84"), "--eps", eps(), "--method", "new"],
        ["blocklen", "--family", "six", "--rate", target("six"), "--eps", eps(), "--method", "new"],
        ["blocklen", "--family", "bb84", "--rate", target("bb84"), "--eps", eps(), "--method", "legacy"],
        ["blocklen", "--family", "bb84", "--rate", target("bb84"), "--eps", eps(), "--method", "legacy"],
        ["legacy-eps", "--n", block_length(), "--delta", g(_log_uniform(rng, 1e-3, 0.5))],
        ["legacy-eps", "--n", block_length(), "--delta", g(_log_uniform(rng, 1e-3, 0.5))],
        ["feasible", "--rate", g(rng.uniform(0.05, 0.6)), "--perr", g(rng.uniform(0.0, 0.2))],
        ["feasible", "--rate", g(rng.uniform(0.05, 0.6)), "--perr", g(rng.uniform(0.0, 0.2))],
    ]
    argv += [["entropy", "--table", path, "--alpha", g(_alpha(rng))] for path in table_paths]
    for i in range(2):
        rates = sorted(rng.uniform(0.05, 0.49) for _ in range(2))
        lo = _log_uniform(rng, 1e-20, 1e-3)
        argv.append([
            "figure", "--rates", ",".join(g(r) for r in rates),
            "--eps-min", g(lo), "--eps-max", g(_log_uniform(rng, lo * 10, 0.5)),
            "--points", "8", "--out", os.path.join(data_dir, f"figure-{i}.csv"),
        ])
    # Three bb84 grid searches per pass: with one "all" above them, the p90
    # of four passes falls in the middle of the grid-search group rather
    # than on the edge between two op kinds.
    argv += [
        ["verify", "--suite", "single-qubit", "--family", "bb84",
         "--resolution", str(CLI_BB84_RESOLUTION), "--alpha", g(_alpha(rng))]
        for _ in range(3)
    ]
    argv += [
        ["verify", "--suite", "single-qubit", "--family", "six",
         "--resolution", str(CLI_SIX_RESOLUTION), "--alpha", g(_alpha(rng))],
        ["verify", "--suite", "lemma", "--seed", str(rng.randrange(2**31))],
        ["verify", "--suite", "stationary", "--seed", str(rng.randrange(2**31))],
        ["verify", "--suite", "all", "--seed", str(rng.randrange(2**31))],
    ]
    rng.shuffle(argv)
    return argv, tables


def cli_data_dir(seed: int) -> str:
    return os.path.join(".bench_out", "inputs", f"cli-mix-{seed}")


def write_cli_inputs(seed: int, root: str) -> None:
    """Write the table files of the ``cli-mix`` pass under ``root``."""
    _, tables = cli_pass(seed, cli_data_dir(seed))
    os.makedirs(os.path.join(root, cli_data_dir(seed)), exist_ok=True)
    for path, doc in tables.items():
        with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

