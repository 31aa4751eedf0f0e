"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload blocklen-grid --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing. The run
compiles ``src`` and ``bench`` to bytecode, writes the workload's generated
inputs below ``.bench_out/`` and starts one worker that runs the workload
(see ``worker.py``). Set-up time is the median over fresh worker
interpreters, the measured one among them, each timed from launch until
``import entrobound`` plus one warm-up op are done.

With ``--trace 0`` the last stdout line carries every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it carries every per-layer metric, from a
traced replay of a fixed set of ops. Earlier lines give the same figures for
people, with the sample count, the outcome tally (``failed_ratio``) and the
host record. Raw results and spans are written below ``.bench_out/``.
Exit status is 0 when a result line was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import gen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
# Set-up is sampled by launches before and after the measured worker (plus
# that worker's own launch), so a burst of host noise hits few samples.
SETUP_LAUNCHES_EACH_SIDE = 3
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
# One BLAS thread: the sim-trials mix gives steadier figures with one thread
# than with the default pool on a shared two-CPU host.
BLAS_THREADS = "1"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def launch(worker_args: list[str], remaining_s: float) -> float:
    """Start a worker, wait for it to end; return seconds until it printed ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--root", ROOT, *worker_args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        proc.communicate(timeout=max(1.0, remaining_s))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish before the run deadline") from None
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return ready_s


def source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def p90(durations: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(durations)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(record: dict, setup_samples: list[float], peak_rss_kb: int) -> dict:
    durations = record["durations_s"]
    return {
        # Blocks have the same mix of ops, so the median block is robust to a
        # burst of host noise that a mean over the whole run would absorb.
        "ops_per_s": statistics.median(record["block_ops_per_s"]),
        "op_p50_ms": 1000.0 * statistics.median(durations),
        "op_p90_ms": 1000.0 * p90(durations),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def outcome_line(counts: dict) -> str:
    attempted = sum(counts.values())
    return (f"failed_ratio = {counts['failed'] / attempted:.6g} ({counts['failed']} failed of "
            f"{attempted} attempted; {counts['refused']} refused with ValueError; "
            f"{counts['known_defect']} known-defect tiny-eps cells)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entrobound benchmark: one run of one workload")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    if not os.path.isfile(os.path.join(SRC, "entrobound", "__init__.py")):
        raise BenchError(f"no package source under {SRC}; run from a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "cli-mix":
        gen.write_cli_inputs(args.seed, ROOT)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_LAUNCHES_EACH_SIDE
    setup_samples = [launch(common + ["--setup-only"], remaining()) for _ in range(probes)]
    raw_path = os.path.join(OUT_DIR, f"raw-{tag}.json")
    worker_args = common + ["--seconds", str(args.seconds), "--out", raw_path]
    if args.trace:
        worker_args += ["--mode", "trace", "--spans", os.path.join(OUT_DIR, f"spans-{tag}.jsonl")]
    setup_samples.append(launch(worker_args, remaining()))
    setup_samples += [launch(common + ["--setup-only"], remaining()) for _ in range(probes)]
    with open(raw_path, encoding="utf-8") as fh:
        raw = json.load(fh)

    if args.trace:
        records = raw["trace"]["records"]
        values = raw["trace"]["metrics"]
    else:
        records = [raw["measure"]]
        values = end_to_end(raw["measure"], setup_samples, raw["peak_rss_kb"])
    counts = {key: sum(r["counts"][key] for r in records) for key in records[0]["counts"]}
    failures = [m for r in records for m in r["failures"]] + raw["global_failures"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")

    host = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **raw["host"],
        "commit": commit(),
        "src_sha256": source_digest(),
    }
    timed = records[-1]["durations_s"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(timed)} ops timed, closed loop, concurrency 1")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    for metric in wanted:
        note = ""
        if metric["name"] in ("op_p50_ms", "op_p90_ms"):
            note = f" (n={len(timed)} samples)"
        elif metric["name"] == "setup_s":
            note = f" (median of {len(setup_samples)} launches)"
        elif metric["name"] == "ops_per_s":
            note = f" (median of {len(records[-1]['block_ops_per_s'])} blocks)"
        print(f"{metric['name']} = {values[metric['name']]:.6g} {metric['unit']}{note}")
    print(outcome_line(counts))
    for message in failures:
        print(f"FAILED: {message}")

    correct = not failures and counts["failed"] == 0
    summary = {
        "correct": correct,
        "attempted": sum(counts.values()),
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**summary, "host": host, "counts": counts, "failures": failures,
                   "setup_samples_s": setup_samples}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        sys.exit(2)
