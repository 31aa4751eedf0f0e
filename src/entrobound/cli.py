"""Command line interface.

Subcommands (all numeric output is single-line JSON on stdout, except
``figure`` which writes a CSV file):

* ``rate`` evaluates the certified min-entropy rate for a block length;
* ``blocklen`` inverts a bound to the minimal block length for a rate;
* ``legacy-eps`` evaluates the legacy error for a block length and delta;
* ``entropy`` computes min/Renyi/Shannon entropies of a table file;
* ``verify`` runs the brute-force verification suites;
* ``figure`` emits a CSV of minimal block lengths over a rate/epsilon grid;
* ``feasible`` checks a rate against the binary-entropy error cost.

Exit codes: 0 on success, 1 when a verification suite fails, and 2, with
one ``error:`` line on stderr, on usage errors including malformed table
files, out-of-range block lengths and trial counts, a ``verify`` option
out of its range (a Renyi order outside (1, 2], a trial count below 1, a
negative seed or a grid resolution the single-qubit search refuses) for any
suite, those that do not read it included, non-finite results, arithmetic errors,
running out of memory, and a stdout that is closed or cannot be written
(stdout is always valid JSON). A closed stderr loses the
``error:`` line but not the exit code. ``--help`` whose text cannot be
written exits 2 too, unless stdout is unbuffered: argparse then drops the
failed write itself and exits 0.

``rate``, ``blocklen``, ``legacy-eps`` and ``feasible`` run on the bound
layer alone and never import numpy; the other commands import what they
use when they run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import bounds
from .families import MeasurementFamily

if TYPE_CHECKING:
    from . import verify

_SUITES = ("single-qubit", "additivity", "ensemble", "lemma", "stationary")


def _family(value: str) -> MeasurementFamily:
    try:
        return MeasurementFamily(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown family {value!r} (choose bb84 or six)")


def _rate_list(value: str) -> list[float]:
    try:
        rates = [float(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse rate list {value!r}")
    if not rates:
        raise argparse.ArgumentTypeError("rate list is empty")
    return rates


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrobound",
        description="Finite-size min-entropy uncertainty bounds and their verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="certified rate for a block length")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--n", type=int, required=True, help="block length in qubits")
    p.add_argument("--eps", type=float, required=True, help="smoothing error in (0, 1)")
    p.add_argument("--s", type=float, default=None, help="fix the Renyi parameter in (0, 1]")

    p = sub.add_parser("blocklen", help="minimal block length for a target rate")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--rate", type=float, required=True, help="target rate in bits per qubit")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--method", choices=("new", "legacy"), required=True)

    p = sub.add_parser("legacy-eps", help="legacy error for a block length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True, help="rate deficit in (0, 1/2]")

    p = sub.add_parser("entropy", help="entropies of a JSON table file")
    p.add_argument("--table", required=True, help="path to the table JSON document")
    p.add_argument("--alpha", type=float, required=True, help="Renyi order in (1, 2]")

    p = sub.add_parser("verify", help="run brute-force verification suites")
    p.add_argument("--suite", choices=_SUITES + ("all",), required=True)
    p.add_argument("--family", type=_family, default=MeasurementFamily.BB84)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("figure", help="CSV of minimal block lengths over a grid")
    p.add_argument("--rates", type=_rate_list, required=True, help="comma-separated rates")
    p.add_argument("--eps-min", type=float, required=True)
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True, help="log-spaced epsilon count")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("feasible", help="rate margin over the error-correction cost")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--perr", type=float, required=True, help="bit error probability")

    return parser


def _emit(payload: object) -> None:
    """Print one JSON line; a non-finite number is refused rather than printed."""
    try:
        line = json.dumps(payload, allow_nan=False)
    except ValueError:
        raise ValueError(f"result is not finite, refusing to print it: {payload!r}") from None
    sys.stdout.write(line + "\n")


def _cmd_rate(args) -> int:
    fn = bounds.rate_bb84 if args.family is MeasurementFamily.BB84 else bounds.rate_six
    result = fn(args.n, args.eps, args.s)
    _emit({"rate": result.rate, "s_opt": result.s_opt})
    return 0


def _cmd_blocklen(args) -> int:
    n = bounds.min_n_for_rate(args.rate, args.eps, args.family, args.method)
    _emit({"n": n})
    return 0


def _cmd_legacy_eps(args) -> int:
    _emit({"epsilon": bounds.legacy_epsilon(args.n, args.delta)})
    return 0


def _cmd_entropy(args) -> int:
    from .entropy import cond_min_entropy, cond_renyi_entropy, cond_shannon_entropy
    from .tables import load_table

    table = load_table(args.table)
    _emit(
        {
            "h_min": cond_min_entropy(table),
            "h_alpha": cond_renyi_entropy(table, args.alpha),
            "h_shannon": cond_shannon_entropy(table),
        }
    )
    return 0


def _run_suite(name: str, args) -> verify.VerificationReport:
    from . import verify

    if name == "single-qubit":
        return verify.grid_search_min(args.family, args.alpha, args.resolution)
    if name == "additivity":
        return verify.additivity_trial(2, args.alpha, args.family, args.trials, args.seed)
    if name == "ensemble":
        return verify.ensemble_trial(2, args.alpha, args.family, 2, args.trials, args.seed)
    if name == "lemma":
        return verify.curvature_gap_sweep()
    return verify.stationary_signs()


def _cmd_verify(args) -> int:
    from . import simulator, verify

    # Every option is checked for every suite, before any runs: a suite that
    # does not read an option would otherwise answer a bad value in silence.
    # A trial count is held to the limits of both trial suites: trials + 3
    # two-qubit tables for the additivity suite, 2 * trials for the ensemble one.
    bounds._require_alpha(args.alpha)
    verify._require_resolution(args.family, args.resolution)
    bounds._require_count("trials", args.trials, 1)
    simulator._require_table_entries(args.family, 2, args.trials + 3)
    simulator._require_table_entries(args.family, 2, 2 * args.trials)
    bounds._require_count("seed", args.seed, 0)
    names = _SUITES if args.suite == "all" else (args.suite,)
    reports = [_run_suite(name, args) for name in names]
    _emit([report.to_json_dict() for report in reports])
    return 0 if all(report.passed for report in reports) else 1


def _cmd_figure(args) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points!r}")
    if not 0.0 < args.eps_min < args.eps_max < 1.0:
        raise ValueError("epsilon range must satisfy 0 < eps-min < eps-max < 1")
    bounds._require_figure_rows(len(args.rates) * args.points)
    import numpy as np

    eps_grid = np.geomspace(args.eps_min, args.eps_max, args.points)
    rows = bounds.figure_rows(args.rates, eps_grid)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("rate,epsilon,n_legacy,n_new\n")
        for row in rows:
            n_new = "inf" if row.n_new is None else row.n_new
            fh.write(f"{row.rate:.17g},{row.epsilon:.17g},{row.n_legacy},{n_new}\n")
    _emit({"rows": len(rows), "out": args.out})
    return 0


def _cmd_feasible(args) -> int:
    margin = args.rate - bounds.binary_entropy(args.perr)
    _emit({"feasible": margin > 0.0, "margin": margin})
    return 0


_DISPATCH = {
    "rate": _cmd_rate,
    "blocklen": _cmd_blocklen,
    "legacy-eps": _cmd_legacy_eps,
    "entropy": _cmd_entropy,
    "verify": _cmd_verify,
    "figure": _cmd_figure,
    "feasible": _cmd_feasible,
}


def run(argv: Sequence[str]) -> int:
    """Parse and execute one command; returns the process exit code."""
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
            code = int(exc.code or 0)
        else:
            if sys.stdout is None:  # stdout closed: refused before a command writes a file
                raise OSError("stdout is closed, nothing can be printed")
            code = _DISPATCH[args.command](args)
        if sys.stdout is not None:  # with stdout closed, --help prints to stderr
            sys.stdout.flush()  # a buffered write that fails does so here, not at exit
        return code
    except (ValueError, OSError) as exc:
        return _error(str(exc))
    except (ArithmeticError, MemoryError) as exc:  # a safety net, e.g. a host out of memory
        return _error(f"{type(exc).__name__}: {exc}")


def _error(message: str) -> int:
    """Write one ``error:`` line where stderr allows it; returns exit code 2."""
    try:
        sys.stderr.write(f"error: {message}\n")
    except (AttributeError, OSError):  # stderr closed or unwritable: the exit code still tells
        pass
    return 2


def __getattr__(name: str):
    # ``cli.verify`` stays reachable for callers that patch a suite.
    if name == "verify":
        from . import verify

        return verify
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _flush_or_discard(stream) -> None:
    """Flush a standard stream; if it cannot be written, point it at the null
    device, so the flush at interpreter exit succeeds instead of exiting 120."""
    if stream is None:
        return
    try:
        stream.flush()
    except OSError:  # ``run`` has answered the failed write with exit 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main() -> None:
    # A command makes no garbage cycles that outlive it beyond the parser's
    # (the same count for any size of work), so the collector stays off while
    # it runs, and freezing every object spares the interpreter's teardown its
    # full sweeps over numpy's. ``run`` itself leaves the collector alone.
    gc.disable()
    code = run(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        _flush_or_discard(stream)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
