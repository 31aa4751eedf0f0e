"""Runs one workload's ops in a fresh interpreter and writes the raw results.

Started by ``run.py`` with the package's ``src`` directory on PYTHONPATH and
the BLAS thread count fixed. It prints ``ready`` once ``import entrobound``
and one untimed warm-up op have finished, so the parent can time set-up;
``--setup-only`` exits right there. Every op is a single closed-loop call
(concurrency 1); its output is checked after the timer stops.

Modes:

* ``measure`` runs whole blocks until ``--seconds`` have passed and at least
  ``MIN_OPS`` ops were timed.
* ``trace`` runs a fixed number of blocks untraced and then the same ops
  with every layer wrapped by :class:`spans.Tracer`; ``cli-mix`` first times
  the pass as subprocesses, then replays the same argv through ``cli.run``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import gen
import spans

import numpy as np

import entrobound
from entrobound import bounds, cli, verify
from entrobound.families import MeasurementFamily

FAMILIES = {"bb84": MeasurementFamily.BB84, "six": MeasurementFamily.SIX_STATE}
MIN_OPS = 100  # p90 then has at least ten samples beyond it
MAX_SECONDS_FACTOR = 3  # a run with slow ops stops at this multiple of --seconds
TRACE_BLOCKS = {"blocklen-grid": 8, "sim-trials": 2, "cli-mix": 1}
DEFAULT_SEED = 0
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_seed0.json")
# Same code and the same single-threaded BLAS on both sides of a comparison:
# values agree to the last bits, so 1e-12 only absorbs print/parse rounding.
TOL = 1e-12
MAX_FAILURE_MESSAGES = 10

OK, REFUSED, KNOWN_DEFECT, FAILED = "ok", "refused", "known_defect", "failed"


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


class Workload:
    """Defaults: no known defects, no checks that span the whole run."""

    def known_defect(self, op, error: Exception) -> bool:
        return False

    def global_failures(self) -> list[str]:
        return []


class BlocklenGrid(Workload):
    """Block-length inversion and forward rates, in process, ``bounds`` only."""

    def __init__(self, seed: int):
        self.seed = seed

    def block(self, index: int) -> list:
        return gen.blocklen_block(self.seed, index)

    def warm_up(self) -> None:
        self.run(gen.REFERENCE_CELLS[0])

    def run(self, cell: dict):
        family = FAMILIES[cell["family"]]
        n_new = bounds.min_n_for_rate(cell["rate"], cell["eps"], family, "new")
        n_legacy = None
        if family is MeasurementFamily.BB84:
            n_legacy = bounds.min_n_for_rate(cell["rate"], cell["eps"], family, "legacy")
        rate_fn = bounds.rate_bb84 if family is MeasurementFamily.BB84 else bounds.rate_six
        return n_new, n_legacy, rate_fn(cell["n_fwd"], cell["eps"])

    def known_defect(self, cell: dict, error: Exception) -> bool:
        # eps^2 underflows below eps ~ 1e-154: the smoothing term becomes inf
        # (no block length is found) or divides by zero. The cell is feasible,
        # so either outcome is wrong; it is tallied apart from refusals.
        return bool(cell.get("tiny_eps")) and isinstance(
            error, (ZeroDivisionError, bounds.InfeasibleRateError)
        )

    def check(self, cell: dict, result) -> None:
        n_new, n_legacy, forward = result
        family = FAMILIES[cell["family"]]
        target, eps = cell["rate"], cell["eps"]
        rate_fn = bounds.rate_bb84 if family is MeasurementFamily.BB84 else bounds.rate_six
        expect(isinstance(n_new, int) and n_new >= 1, f"n_new={n_new!r} is not a block length")
        expect(rate_fn(n_new, eps).rate >= target, f"rate({n_new}) < target {target!r}")
        expect(n_new == 1 or rate_fn(n_new - 1, eps).rate < target,
               f"rate({n_new - 1}) already reaches target {target!r}")
        if n_legacy is not None:
            delta = 0.5 - target
            expect(bounds.legacy_epsilon(n_legacy, delta) <= eps, f"legacy n={n_legacy} misses eps")
            expect(n_legacy == 1 or bounds.legacy_epsilon(n_legacy - 1, delta) > eps,
                   f"legacy n={n_legacy} is not minimal")
        n_fwd = cell["n_fwd"]
        expect(forward.rate < family.rate_ceiling, f"rate({n_fwd})={forward.rate!r} >= ceiling")
        expect(0.0 < forward.s_opt <= 1.0, f"s_opt={forward.s_opt!r} outside (0, 1]")
        expect(rate_fn(2 * n_fwd, eps).rate >= forward.rate, f"rate not monotone at n={n_fwd}")
        reference = cell.get("expect", {})
        for key, value in (("n_new", n_new), ("n_legacy", n_legacy)):
            if key in reference:
                expect(value == reference[key], f"{key}={value} != reference {reference[key]}")
        if "rate_fwd" in reference:
            expect(abs(forward.rate - reference["rate_fwd"]) < 5e-6,
                   f"rate({n_fwd})={forward.rate!r} != reference {reference['rate_fwd']}")


def _op_key(op: dict) -> str:
    return json.dumps(op, sort_keys=True)


class SimTrials(Workload):
    """Seeded additivity and ensemble trials, in process."""

    def __init__(self, seed: int):
        self.seed = seed
        self.golden = {}
        if seed == DEFAULT_SEED:
            with open(GOLDEN_PATH, encoding="utf-8") as fh:
                self.golden = {_op_key(e["op"]): e for e in json.load(fh)["ops"]}
        self.golden_seen: set = set()

    def block(self, index: int) -> list:
        return gen.sim_block(self.seed, index)

    def warm_up(self) -> None:
        verify.additivity_trial(2, 2.0, MeasurementFamily.BB84, 1, 0)

    def run(self, op: dict):
        family = FAMILIES[op["family"]]
        if op["kind"] == "additivity":
            return verify.additivity_trial(op["n"], op["alpha"], family, op["trials"], op["seed"])
        return verify.ensemble_trial(op["n"], op["alpha"], family, op["k"], op["trials"], op["seed"])

    def check(self, op: dict, report) -> None:
        expect(report.passed, f"{op['kind']} report did not pass: margin {report.worst_margin!r}")
        expect(math.isfinite(report.worst_margin), "worst margin is not finite")
        golden = self.golden.get(_op_key(op))
        if golden is not None:
            self.golden_seen.add(_op_key(op))
            expect(int(report.argmin[0]) == golden["worst_index"],
                   f"worst trial {report.argmin[0]!r} != seed-commit {golden['worst_index']}")
            expect(abs(report.worst_margin - golden["worst_margin"]) <= TOL,
                   f"worst margin {report.worst_margin!r} != seed-commit {golden['worst_margin']!r}")

    def global_failures(self) -> list[str]:
        missing = len(self.golden) - len(self.golden_seen)
        return [f"{missing} seed-commit reference trials were not run"] if missing else []


_SUITES = {
    "single-qubit": lambda a: verify.grid_search_min(a.family, a.alpha, a.resolution),
    "additivity": lambda a: verify.additivity_trial(2, a.alpha, a.family, a.trials, a.seed),
    "ensemble": lambda a: verify.ensemble_trial(2, a.alpha, a.family, 2, a.trials, a.seed),
    "lemma": lambda a: verify.curvature_gap_sweep(),
    "stationary": lambda a: verify.stationary_signs(),
}
_ALL_SUITES = ("single-qubit", "additivity", "ensemble", "lemma", "stationary")


def _same(actual, expected, where: str = "output") -> None:
    if isinstance(expected, dict):
        expect(isinstance(actual, dict) and set(actual) == set(expected),
               f"{where} keys {sorted(actual) if isinstance(actual, dict) else actual!r}")
        for key in expected:
            if key != "notes":  # prose; its numbers are compared field by field
                _same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, (list, tuple)):
        expect(isinstance(actual, list) and len(actual) == len(expected), f"{where} length")
        for i, (a, e) in enumerate(zip(actual, expected)):
            _same(a, e, f"{where}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, bool):
        expect(isinstance(actual, (int, float)) and close(actual, expected),
               f"{where}={actual!r}, in process {expected!r}")
    else:
        expect(actual == expected, f"{where}={actual!r}, in process {expected!r}")


class CliMix(Workload):
    """One ``python -m entrobound.cli`` process per op, or ``cli.run`` in process."""

    def __init__(self, seed: int, root: str):
        self.argv = gen.cli_pass(seed, gen.cli_data_dir(seed))[0]
        self.root = root
        self.in_process = False
        self._expected: dict = {}

    def block(self, index: int) -> list:
        return self.argv

    def warm_up(self) -> None:
        self.run(["rate", "--family", "bb84", "--n", "23600", "--eps", "0.1"])

    def run(self, argv: list):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "entrobound.cli", *argv],
            cwd=self.root, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def _compute_expected(self, argv: list):
        args = cli.build_parser().parse_args(argv)
        family = getattr(args, "family", None)
        if args.command == "rate":
            fn = bounds.rate_bb84 if family is MeasurementFamily.BB84 else bounds.rate_six
            result = fn(args.n, args.eps, args.s)
            return {"rate": result.rate, "s_opt": result.s_opt}
        if args.command == "blocklen":
            return {"n": bounds.min_n_for_rate(args.rate, args.eps, family, args.method)}
        if args.command == "legacy-eps":
            return {"epsilon": bounds.legacy_epsilon(args.n, args.delta)}
        if args.command == "feasible":
            margin = args.rate - entrobound.binary_entropy(args.perr)
            return {"feasible": margin > 0.0, "margin": margin}
        if args.command == "entropy":
            table = entrobound.load_table(os.path.join(self.root, args.table))
            return {
                "h_min": entrobound.cond_min_entropy(table),
                "h_alpha": entrobound.cond_renyi_entropy(table, args.alpha),
                "h_shannon": entrobound.cond_shannon_entropy(table),
            }
        if args.command == "figure":
            eps_grid = np.geomspace(args.eps_min, args.eps_max, args.points)
            rows = verify.figure_rows(args.rates, eps_grid)
            return {"rows": len(rows), "out": args.out}, rows
        names = _ALL_SUITES if args.suite == "all" else (args.suite,)
        return [_SUITES[name](args).to_json_dict() for name in names]

    def check(self, argv: list, result) -> None:
        code, stdout = result
        key = tuple(argv)
        if key not in self._expected:
            self._expected[key] = self._compute_expected(argv)
        expected = self._expected[key]
        expect(code == 0, f"exit code {code}")
        lines = stdout.strip().splitlines()
        expect(bool(lines), "no output")
        try:
            payload = json.loads(lines[-1])
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"stdout is not JSON: {exc}") from None
        if argv[0] == "figure":
            expected, rows = expected
            self._check_csv(os.path.join(self.root, expected["out"]), rows)
        if argv[0] == "verify":
            expect(all(report["pass"] for report in payload), "a suite did not pass")
        _same(payload, expected)

    @staticmethod
    def _check_csv(path: str, rows: list) -> None:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        expect(lines[0] == "rate,epsilon,n_legacy,n_new", "CSV header")
        expect(len(lines) == len(rows) + 1, "CSV row count")
        for line, row in zip(lines[1:], rows):
            rate, eps, n_legacy, n_new = (float(v) for v in line.split(","))
            expect(close(rate, row.rate) and close(eps, row.epsilon), f"CSV row {line!r}")
            for got, want in ((n_legacy, row.n_legacy), (n_new, row.n_new)):
                expect(got == (math.inf if want is None else want), f"CSV row {line!r}")


class Record:
    """Per-op latencies and outcome counts of one pass over ops."""

    def __init__(self):
        self.durations: list[float] = []
        self.block_ops_per_s: list[float] = []
        self.counts = {OK: 0, REFUSED: 0, KNOWN_DEFECT: 0, FAILED: 0}
        self.failures: list[str] = []

    def add(self, duration: float, status: str, detail: str | None) -> None:
        self.durations.append(duration)
        self.counts[status] += 1
        if detail is not None and len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(detail)

    def ops_per_s(self) -> float:
        return len(self.durations) / sum(self.durations)

    def to_json_dict(self) -> dict:
        return {"durations_s": self.durations, "block_ops_per_s": self.block_ops_per_s,
                "counts": self.counts, "failures": self.failures}


def classify(workload, op, result, error) -> tuple[str, str | None]:
    """Outcome of one op, decided after its timer stopped."""
    if error is not None:
        if workload.known_defect(op, error):
            return KNOWN_DEFECT, None
        if isinstance(error, ValueError):
            return REFUSED, None
        return FAILED, f"{op!r}: {type(error).__name__}: {error}"
    try:
        workload.check(op, result)
    except CheckFailed as exc:
        return FAILED, f"{op!r}: {exc}"
    except Exception as exc:  # a check that cannot be evaluated is a failed check
        return FAILED, f"{op!r}: check raised {type(exc).__name__}: {exc}"
    return OK, None


def run_op(workload, op, op_id: int, record: Record, tracer: spans.Tracer | None = None) -> None:
    scope = tracer.op(op_id) if tracer is not None else contextlib.nullcontext()
    with scope:
        start = time.perf_counter()
        try:
            result, error = workload.run(op), None
        except Exception as exc:  # classified below, outside the timed region
            result, error = None, exc
        duration = time.perf_counter() - start
    record.add(duration, *classify(workload, op, result, error))


def measure(workload, seconds: float) -> Record:
    record = Record()
    start = time.perf_counter()
    index = 0
    while True:
        first = len(record.durations)
        for op in workload.block(index):
            run_op(workload, op, len(record.durations), record)
        block = record.durations[first:]
        record.block_ops_per_s.append(len(block) / sum(block))
        index += 1
        wall = time.perf_counter() - start
        if wall >= seconds and len(record.durations) >= MIN_OPS:
            break
        if wall >= MAX_SECONDS_FACTOR * seconds:
            break
    return record


def trace(workload, ops: list, spans_path: str | None) -> dict:
    """Time each op untraced and traced; return the records and layer metrics.

    The two runs of an op are back to back, and which goes first alternates,
    so drift in host speed does not show up as tracing overhead. The wrappers
    are installed only around the traced run.
    """
    records = []
    process_overhead_s = 0.0
    if isinstance(workload, CliMix):
        subprocesses = Record()
        for i, op in enumerate(ops):
            run_op(workload, op, i, subprocesses)
        records.append(subprocesses)
        workload.in_process = True
        workload.warm_up()
    untraced, traced = Record(), Record()
    tracer = spans.Tracer()

    def run_traced(i: int, op) -> None:
        tracer.install()
        try:
            run_op(workload, op, i, traced, tracer)
        finally:
            tracer.uninstall()

    for i, op in enumerate(ops):
        if i % 2:
            run_traced(i, op)
        run_op(workload, op, i, untraced)
        if not i % 2:
            run_traced(i, op)
    if isinstance(workload, CliMix):
        process_overhead_s = (statistics.median(records[0].durations)
                              - statistics.median(untraced.durations))
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return {
        "records": [r.to_json_dict() for r in records + [untraced, traced]],
        "metrics": layer_metrics(spans.summarize(tracer.spans), untraced, traced, process_overhead_s),
    }


def layer_metrics(summary: dict, untraced: Record, traced: Record, process_overhead_s: float) -> dict:
    names = summary["names"]

    def get(span: str, field: str):
        return names.get(span, {}).get(field, 0)

    metrics = {}
    for span in ("bounds.min_n_for_rate", "bounds.rate", "simulator.random_density",
                 "simulator.outcome_table", "tables.ConditionalTable",
                 "entropy.cond_renyi_entropy", "entropy.cond_min_entropy",
                 "entropy.cond_shannon_entropy"):
        metrics[f"{span}.calls"] = get(span, "calls")
        metrics[f"{span}.time_s"] = get(span, "time_s")
    for span in ("verify.additivity_trial", "verify.ensemble_trial", "verify.figure_rows", "cli.run"):
        metrics[f"{span}.time_s"] = get(span, "time_s")
        metrics[f"{span}.self_s"] = get(span, "self_s")
    metrics.update({
        "bounds.legacy_min_n.time_s": get("bounds.legacy_min_n", "time_s"),
        "bounds.renyi_floor.calls": get("bounds.renyi_floor", "calls"),
        "simulator.outcome_table.self_s": get("simulator.outcome_table", "self_s"),
        "simulator.outcome_table.rows": summary["outcome_rows"],
        "simulator.outcome_table.unitaries_built": summary["unitaries_built"],
        "simulator.outcome_table.unique_row_ratio": summary["unique_row_ratio"],
        "tables.load_table.time_s": get("tables.load_table", "time_s"),
        "tables.load_table.bytes": summary["load_bytes"],
        "verify.grid_search_min.time_s": get("verify.grid_search_min", "time_s"),
        "verify.grid_search_min.points": summary["grid_points"],
        # Computed, not measured: one float64 array over the search grid.
        "verify.grid_search_min.computed_bytes": 8 * summary["grid_points"],
        "verify.curvature_gap_sweep.time_s": get("verify.curvature_gap_sweep", "time_s"),
        "verify.curvature_gap.calls": get("verify.curvature_gap", "calls"),
        "cli.process_overhead_s": process_overhead_s,
        "trace.ops": len(traced.durations),
        "trace.untraced_ops_per_s": untraced.ops_per_s(),
        "trace.traced_ops_per_s": traced.ops_per_s(),
        "trace.overhead_ops_per_s": untraced.ops_per_s() - traced.ops_per_s(),
        "trace.self_time_share": summary["self_sum_s"] / summary["op_wall_s"],
        "trace.harness_self_share": summary["op_self_s"] / summary["op_wall_s"],
    })
    return metrics


def host_record() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds without the dict form
        pass
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "entrobound": entrobound.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True, help="checkout root; inputs live below it")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--mode", choices=("measure", "trace"), default="measure")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", help="raw result JSON path")
    parser.add_argument("--spans", help="span dump path (trace mode)")
    args = parser.parse_args(argv)

    if args.workload == "blocklen-grid":
        workload = BlocklenGrid(args.seed)
    elif args.workload == "sim-trials":
        workload = SimTrials(args.seed)
    else:
        workload = CliMix(args.seed, args.root)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"host": host_record(), "workload": args.workload, "seed": args.seed}
    if args.mode == "measure":
        record = measure(workload, args.seconds)
        usage = resource.RUSAGE_CHILDREN if isinstance(workload, CliMix) else resource.RUSAGE_SELF
        result["measure"] = record.to_json_dict()
        result["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
    else:
        ops = [op for b in range(TRACE_BLOCKS[args.workload]) for op in workload.block(b)]
        result["trace"] = trace(workload, ops, args.spans)
    result["global_failures"] = workload.global_failures()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
