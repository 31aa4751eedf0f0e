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

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage
errors including malformed table files, results that are not finite and
arithmetic errors such as a division by an underflowed eps**2 (stdout is
always valid JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import bounds, verify
from .entropy import binary_entropy, cond_min_entropy, cond_renyi_entropy, cond_shannon_entropy
from .families import MeasurementFamily
from .tables import load_table

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
    names = _SUITES if args.suite == "all" else (args.suite,)
    reports = [_run_suite(name, args) for name in names]
    _emit([report.to_json_dict() for report in reports])
    return 0 if all(report.passed for report in reports) else 1


def _cmd_figure(args) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points!r}")
    if not 0.0 < args.eps_min < args.eps_max < 1.0:
        raise ValueError("epsilon range must satisfy 0 < eps-min < eps-max < 1")
    eps_grid = np.geomspace(args.eps_min, args.eps_max, args.points)
    rows = verify.figure_rows(args.rates, eps_grid)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("rate,epsilon,n_legacy,n_new\n")
        for row in rows:
            n_legacy = float("inf") if row.n_legacy is None else row.n_legacy
            n_new = float("inf") if row.n_new is None else row.n_new
            fh.write(f"{row.rate:.17g},{row.epsilon:.17g},{n_legacy:.17g},{n_new:.17g}\n")
    _emit({"rows": len(rows), "out": args.out})
    return 0


def _cmd_feasible(args) -> int:
    margin = args.rate - binary_entropy(args.perr)
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
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ArithmeticError as exc:  # e.g. an eps so small that eps**2 underflows to 0
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
