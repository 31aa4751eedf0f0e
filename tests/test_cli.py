"""Black-box command line checks: outputs, exit codes, determinism, lazy imports."""

import contextlib
import errno
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entrobound
import entrobound.cli as cli
from entrobound import VerificationReport, binary_entropy, bounds, families, legacy_min_n, verify


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_eigenstate_table(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(
        json.dumps(
            {
                "contexts": [
                    {"k": "k", "theta": "0", "weight": 0.5, "p_x": [1.0, 0.0]},
                    {"k": "k", "theta": "1", "weight": 0.5, "p_x": [0.5, 0.5]},
                ]
            }
        )
    )
    return str(path)


class TestRateCommand:
    def test_bb84_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--family", "bb84", "--n", "23600", "--eps", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"rate", "s_opt"}
        assert doc["rate"] == pytest.approx(0.4894, abs=1e-4)
        assert doc["s_opt"] == pytest.approx(0.06, abs=0.02)

    def test_fixed_s(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--family", "six", "--n", "100", "--eps", "0.5", "--s", "1.0"
        )
        assert code == 0
        assert json.loads(out)["rate"] == pytest.approx(math.log2(1.5) - 0.03, abs=1e-12)

    def test_invalid_epsilon_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--family", "bb84", "--n", "100", "--eps", "1.5")
        assert code == 2
        assert "epsilon" in err

    def test_infinite_rate_is_refused(self, capsys):
        # s * n is subnormal here, so the correction term and the rate are infinite
        code, out, err = run_cli(
            capsys, "rate", "--family", "bb84", "--n", "1000", "--eps", "0.5", "--s", "5e-324"
        )
        assert code == 2
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("eps, n", [("1e-160", 9250), ("1e-300", 17335)])
    def test_tiny_eps_rate_first_reaches_the_target_at_the_minimal_n(self, capsys, eps, n):
        # eps^2 underflows: 1e-160 printed an infinite rate, 1e-300 divided by zero
        rates = []
        for block in (n - 1, n):
            code, out, _ = run_cli(capsys, "rate", "--family", "bb84", "--n", str(block), "--eps", eps)
            assert code == 0
            rates.append(json.loads(out)["rate"])
        assert rates[0] < 0.3 <= rates[1]

    @pytest.mark.parametrize(
        "family, s, ceiling",
        [("bb84", "2.220446049250313e-16", 0.5), ("six", "1e-12", 2.0 / 3.0)],
    )
    def test_tiny_fixed_s_stays_below_the_ceiling(self, capsys, family, s, ceiling):
        code, out, _ = run_cli(
            capsys, "rate", "--family", family, "--n", "1000000000000000000", "--eps", "0.5",
            "--s", s,
        )
        assert code == 0
        assert json.loads(out)["rate"] < ceiling

    def test_scientific_notation_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--family", "bb84", "--n", "23600", "--eps", "1e-1")
        assert code == 0


class TestBlocklenCommand:
    def test_legacy(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "blocklen", "--family", "bb84", "--rate", "0.4894", "--eps", "0.1",
            "--method", "legacy",
        )
        assert code == 0
        assert json.loads(out) == {"n": legacy_min_n(0.0106, 0.1)}

    def test_new(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "blocklen", "--family", "bb84", "--rate", "0.4894", "--eps", "0.1",
            "--method", "new",
        )
        assert code == 0
        assert 2.3e4 <= json.loads(out)["n"] <= 2.4e4

    def test_legacy_rejected_for_six(self, capsys):
        code, _, err = run_cli(
            capsys,
            "blocklen", "--family", "six", "--rate", "0.6", "--eps", "0.1",
            "--method", "legacy",
        )
        assert code == 2
        assert "legacy" in err

    def test_nan_rate_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys,
            "blocklen", "--family", "bb84", "--rate", "nan", "--eps", "0.1",
            "--method", "new",
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("eps", ["1e-160", "1e-170", "1e-300"])
    def test_tiny_eps_block_length_is_minimal(self, capsys, eps):
        code, out, _ = run_cli(
            capsys,
            "blocklen", "--family", "bb84", "--rate", "0.4", "--eps", eps, "--method", "new",
        )
        assert code == 0
        n = json.loads(out)["n"]
        assert bounds.rate_bb84(n, float(eps)).rate >= 0.4 > bounds.rate_bb84(n - 1, float(eps)).rate

    @pytest.mark.parametrize(
        "family, rate, eps, n",
        [
            ("six", "0.6666606620719053", "8.197603340392385e-05", 240512641239),
            ("bb84", "0.49999997", "1.4664146380214673e-268", 685618394927733952),
        ],
    )
    def test_block_length_where_the_rate_is_not_monotone(self, capsys, family, rate, eps, n):
        # More than one n crosses these targets (see
        # test_bounds::test_a_crossing_above_2e11_is_the_one_the_search_meets):
        # the printed one is the crossing the search from n = 1 meets.
        code, out, _ = run_cli(
            capsys,
            "blocklen", "--family", family, "--rate", rate, "--eps", eps, "--method", "new",
        )
        assert code == 0
        assert json.loads(out) == {"n": n}
        fn = bounds.rate_bb84 if family == "bb84" else bounds.rate_six
        assert fn(n, float(eps)).rate >= float(rate) > fn(n - 1, float(eps)).rate

    def test_block_length_above_2_62_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys,
            "blocklen", "--family", "bb84", "--rate", "0.4999999999", "--eps", "0.5",
            "--method", "new",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "2^62" in err

    def test_infeasible_rate(self, capsys):
        code, _, err = run_cli(
            capsys,
            "blocklen", "--family", "bb84", "--rate", "0.5", "--eps", "0.1",
            "--method", "new",
        )
        assert code == 2
        assert "ceiling" in err


def test_legacy_eps_command(capsys):
    code, out, _ = run_cli(capsys, "legacy-eps", "--n", "239000000", "--delta", "0.0106")
    assert code == 0
    assert json.loads(out)["epsilon"] == pytest.approx(0.1007, abs=5e-4)


@pytest.mark.parametrize(
    "command",
    [
        ["legacy-eps", "--delta", "0.1"],
        ["rate", "--family", "bb84", "--eps", "0.1"],
        ["rate", "--family", "six", "--eps", "0.1", "--s", "0.5"],
    ],
    ids=["legacy-eps", "rate", "rate-fixed-s"],
)
def test_block_lengths_beyond_floats_are_refused(capsys, command):
    for n in (2**1024, 10**400):
        code, out, err = run_cli(capsys, *command, "--n", str(n))
        assert code == 2
        assert out == ""
        assert err == f"error: block length {n} exceeds the largest float, about 1.8e308\n"
    code, out, _ = run_cli(capsys, *command, "--n", str(10**300))
    assert code == 0
    assert out.count("\n") == 1 and math.isfinite(next(iter(json.loads(out).values())))
    if command[0] == "legacy-eps":
        assert out == '{"epsilon": 0.0}\n'


class TestEntropyCommand:
    def test_values(self, capsys, tmp_path):
        path = write_eigenstate_table(tmp_path)
        code, out, _ = run_cli(capsys, "entropy", "--table", path, "--alpha", "2.0")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"h_min", "h_alpha", "h_shannon"}
        assert doc["h_min"] == pytest.approx(math.log2(4 / 3), abs=1e-12)
        assert doc["h_alpha"] == pytest.approx(math.log2(4 / 3), abs=1e-12)
        assert doc["h_shannon"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("family", ["bb84", "six"])
    def test_alpha_near_one_meets_shannon(self, capsys, tmp_path, family):
        # A BB84 n = 3 table printed h_alpha 2.3e-5 below h_shannon at this order.
        family = families.MeasurementFamily(family)
        n = 3 if family is families.MeasurementFamily.BB84 else 2
        table = entrobound.outcome_table(entrobound.random_density(n, 2**n, seed=4), family)
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_json_dict()))
        code, out, _ = run_cli(capsys, "entropy", "--table", str(path), "--alpha", "1.000000000001")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["h_alpha"] - doc["h_shannon"]) <= 1e-10

    def test_malformed_table_names_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"contexts": [{"k": "k", "theta": "0", "weight": "heavy", "p_x": [1.0, 0.0]}]}
            )
        )
        code, _, err = run_cli(capsys, "entropy", "--table", str(path), "--alpha", "2.0")
        assert code == 2
        assert "contexts[0].weight" in err

    @pytest.mark.parametrize(
        "weight, p_x, field",
        [(10**400, [0.5, 0.5], "contexts[1].weight"), (0.5, [0.5, 10**400], "contexts[1].p_x[1]")],
        ids=["weight", "p_x"],
    )
    def test_integer_too_large_for_a_float_names_field(self, capsys, tmp_path, weight, p_x, field):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps(
                {
                    "contexts": [
                        {"k": "k", "theta": "0", "weight": 0.5, "p_x": [1.0, 0.0]},
                        {"k": "k", "theta": "1", "weight": weight, "p_x": p_x},
                    ]
                }
            )
        )
        code, out, err = run_cli(capsys, "entropy", "--table", str(path), "--alpha", "2.0")
        assert code == 2
        assert out == ""
        assert err == f"error: {field} is too large for a float\n"

    def test_invalid_value_is_printed_as_a_python_float(self, capsys, tmp_path):
        path = tmp_path / "negative.json"
        path.write_text(
            json.dumps(
                {
                    "contexts": [
                        {"k": "k", "theta": "0", "weight": 1.5, "p_x": [1.0, 0.0]},
                        {"k": "k", "theta": "1", "weight": -0.5, "p_x": [0.5, 0.5]},
                    ]
                }
            )
        )
        code, out, err = run_cli(capsys, "entropy", "--table", str(path), "--alpha", "2.0")
        assert code == 2
        assert out == ""
        assert err == "error: contexts[1].weight = -0.5 is negative\n"

    def test_weights_whose_sum_overflows_print_one_error_line(self, tmp_path):
        # in a process of its own, so that numpy's overflow warning would reach stderr
        path = tmp_path / "overflow.json"
        context = {"k": "k", "theta": "0", "weight": 1e308, "p_x": [0.5, 0.5]}
        path.write_text(json.dumps({"contexts": [context, dict(context, theta="1")]}))
        code, err = run_process("entropy", "--table", str(path), "--alpha", "2.0")
        assert (code, err) == (2, "error: context weights sum to inf, expected 1 within 1e-09\n")

    def test_deeply_nested_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "entropy", "--table", str(path), "--alpha", "1.5")
        assert code == 2
        assert out == ""
        assert err == f"error: table file {str(path)!r} is nested too deeply to parse\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "entropy", "--table", str(tmp_path / "nope.json"), "--alpha", "2.0"
        )
        assert code == 2

    def test_alpha_out_of_range(self, capsys, tmp_path):
        path = write_eigenstate_table(tmp_path)
        code, _, err = run_cli(capsys, "entropy", "--table", path, "--alpha", "3.0")
        assert code == 2
        assert "alpha" in err


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "stationary")
        assert code == 0
        (report,) = json.loads(out)
        assert report["suite"] == "stationary"
        assert report["pass"] is True

    def test_all_suites(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "all", "--seed", "7", "--trials", "30",
            "--resolution", "60",
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["suite"] for r in reports] == [
            "single-qubit", "additivity", "ensemble", "lemma", "stationary",
        ]
        assert all(r["pass"] for r in reports)

    def test_failed_suite_exits_one(self, capsys, monkeypatch):
        failed = VerificationReport(
            suite="stationary", passed=False, worst_margin=-1.0, argmin=(0.5,),
            resolution=10, trials=0, seed=0, notes="forced failure for exit-code test",
        )
        monkeypatch.setattr(cli.verify, "stationary_signs", lambda *a, **k: failed)
        code, out, _ = run_cli(capsys, "verify", "--suite", "stationary")
        assert code == 1
        assert json.loads(out)[0]["pass"] is False

    @pytest.mark.parametrize(
        "family,alpha", [("six", "1.0000000001"), ("bb84", "1.00000000000001")]
    )
    def test_alpha_close_to_one_verifies(self, capsys, family, alpha):
        # Both were refused: the rounding of -log2(P)/s grows like 1/s.
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "single-qubit", "--family", family,
            "--alpha", alpha, "--resolution", "50",
        )
        assert code == 0
        (report,) = json.loads(out)
        assert report["pass"] is True and abs(report["worst_margin"]) <= 1e-13

    @pytest.mark.parametrize("suite", ["additivity", "single-qubit", "lemma", "all"])
    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--trials", "0", "trials must be >= 1, got 0"),
            ("--seed", "-5", "seed must be >= 0, got -5"),
            ("--resolution", "-1", "resolution must be at least 50, got -1"),
            (
                "--trials",
                "1000000000000",
                "1000000000003 bb84 outcome tables of 2 qubits hold 1000000000003 x 4^2 entries, "
                "more than the limit of 8388608",
            ),
        ],
    )
    def test_every_suite_names_a_bad_option(self, capsys, suite, option, value, message):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, option, value)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_out_of_memory_is_a_usage_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12, 4, 4)")

        monkeypatch.setattr(cli.verify, "additivity_trial", exhausted)
        code, out, err = run_cli(capsys, "verify", "--suite", "additivity")
        assert code == 2
        assert out == ""
        assert err == "error: MemoryError: Unable to allocate 7.28 TiB for an array with shape (10**12, 4, 4)\n"

    @pytest.mark.parametrize("suite", ["additivity", "ensemble"])
    @pytest.mark.parametrize("family", ["bb84", "six"])
    def test_trials_beyond_the_entry_limit_are_refused(self, capsys, monkeypatch, suite, family):
        def no_draw(*args, **kwargs):
            raise AssertionError("a trial beyond the entry limit seeded or drew states")

        monkeypatch.setattr(cli.verify, "random_densities", no_draw)
        monkeypatch.setattr(cli.verify.np.random, "SeedSequence", no_draw)
        for trials in (10**7, 10**12, 10**400):
            code, out, err = run_cli(
                capsys, "verify", "--suite", suite, "--family", family, "--trials", str(trials)
            )
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("error:")
            assert " entries, more than the limit of 8388608" in err

    def test_all_suites_refuse_the_ensemble_suites_tables_before_any_runs(self, capsys, monkeypatch):
        # 40 trials are 43 additivity tables but 80 ensemble tables; with the
        # limit at 2^10 entries (64 two-qubit bb84 tables) only the second is over
        ran = []

        def spy(name):
            def suite(*args, **kwargs):
                ran.append(name)
                raise AssertionError(f"{name} ran before the refusal")

            return suite

        monkeypatch.setattr(entrobound.simulator, "_MAX_TABLE_ENTRIES", 2**10)
        for name in ("grid_search_min", "additivity_trial", "ensemble_trial"):
            monkeypatch.setattr(verify, name, spy(name))
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--trials", "40")
        assert (code, out, ran) == (2, "", [])
        assert err == (
            "error: 80 bb84 outcome tables of 2 qubits hold 80 x 4^2 entries, more than the limit of 1024\n"
        )

    def test_oversized_grid_is_refused(self, capsys):
        # BB84 10^8 is 10^16 points, 763 MiB per radius row; 465^3 just exceeds 10^8
        for family, resolution in (("bb84", "100000000"), ("six", "465"), ("six", "1" + "0" * 400)):
            code, out, err = run_cli(
                capsys, "verify", "--suite", "single-qubit", "--family", family,
                "--resolution", resolution,
            )
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("error:") and "10^8 points" in err

    @pytest.mark.parametrize("family", ["six", "bb84"])
    def test_alpha_near_one_still_verifies(self, capsys, family):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "single-qubit", "--family", family,
            "--alpha", "1.0001", "--resolution", "50",
        )
        assert code == 0
        assert json.loads(out)[0]["pass"] is True

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "additivity", "--seed", "3", "--trials", "20")
        _, second, _ = run_cli(capsys, "verify", "--suite", "additivity", "--seed", "3", "--trials", "20")
        assert first == second


class TestFigureCommand:
    def test_csv_schema_and_order(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys,
            "figure", "--rates", "0.47,0.45", "--eps-min", "1e-6", "--eps-max", "0.2",
            "--points", "4", "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out) == {"rows": 8, "out": str(out_path)}
        lines = out_path.read_text().splitlines()
        assert lines[0] == "rate,epsilon,n_legacy,n_new"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 8
        keys = [(float(r), float(e)) for r, e, *_ in rows]
        assert keys == sorted(keys)
        for _, _, n_legacy, n_new in rows:
            assert float(n_new) <= float(n_legacy)
        # 17 significant digits requested for float columns
        assert rows[0][1] == f"{keys[0][1]:.17g}"

    def test_identical_invocations_byte_identical(self, capsys, tmp_path):
        args = [
            "figure", "--rates", "0.45", "--eps-min", "0.01", "--eps-max", "0.2",
            "--points", "3",
        ]
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *args, "--out", str(path_a))
        run_cli(capsys, *args, "--out", str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_block_lengths_are_the_exact_integers(self, capsys, tmp_path):
        # Above 2^53 a float format would change them: 15321551291192883 prints
        # as 15321551291192884 under :.17g, and 3099725092117285121 in exponent form.
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys,
            "figure", "--rates", "0.499988,0.499999", "--eps-min", "1e-20", "--eps-max", "1e-3",
            "--points", "2", "--out", str(out_path),
        )
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == [
            "15321551291192883", "2298232693678933", "3099725092117285121", "464958763817592800",
        ]
        for rate, eps, n_legacy, n_new in rows:
            for method, n in (("legacy", n_legacy), ("new", n_new)):
                _, out, _ = run_cli(
                    capsys, "blocklen", "--family", "bb84", "--rate", rate, "--eps", eps,
                    "--method", method,
                )
                assert out == f'{{"n": {n}}}\n'

    def test_infeasible_new_route_is_inf(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        rate = repr(math.nextafter(0.5, 0.0))
        code, _, _ = run_cli(
            capsys,
            "figure", "--rates", rate, "--eps-min", "1e-3", "--eps-max", "0.1",
            "--points", "2", "--out", str(out_path),
        )
        assert code == 0
        assert [line.split(",")[3] for line in out_path.read_text().splitlines()[1:]] == [
            "inf", "inf",
        ]

    @pytest.mark.parametrize("points", [str(10**12), "1" + "0" * 400])
    def test_oversized_figure_is_refused_before_allocating(
        self, capsys, monkeypatch, tmp_path, points
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("an oversized figure built its eps grid or inverted a rate")

        monkeypatch.setattr(np, "geomspace", no_work)
        monkeypatch.setattr(bounds, "min_n_for_rate", no_work)
        out_path = tmp_path / "rows.csv"
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys,
                "figure", "--rates", "0.45,0.46", "--eps-min", "1e-6", "--eps-max", "0.2",
                "--points", points, "--out", str(out_path),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == f"error: a figure of {2 * int(points)} rows is more than the limit of 100000\n"
        assert not out_path.exists()
        assert peak < 2**20

    @pytest.mark.parametrize("points,accepted", [(50_000, True), (50_001, False)])
    def test_row_limit_is_exact(self, capsys, monkeypatch, tmp_path, points, accepted):
        # Two rates at 50,000 points are exactly the limit; the eps grid, the
        # first work after the check, stands in for the figure.
        class Gridded(Exception):
            pass

        def gridded(*args, **kwargs):
            raise Gridded

        monkeypatch.setattr(np, "geomspace", gridded)
        argv = ["figure", "--rates", "0.45,0.46", "--eps-min", "1e-6", "--eps-max", "0.2",
                "--points", str(points), "--out", str(tmp_path / "rows.csv")]
        if accepted:
            with pytest.raises(Gridded):
                cli.run(argv)
        else:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "error: a figure of 100002 rows is more than the limit of 100000\n"

    def test_bad_eps_range(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "figure", "--rates", "0.45", "--eps-min", "0.2", "--eps-max", "0.1",
            "--points", "3", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestFeasibleCommand:
    def test_feasible(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--rate", "0.4894", "--perr", "0.01")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["margin"] == pytest.approx(0.4894 - binary_entropy(0.01), abs=1e-12)

    def test_infeasible(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--rate", "0.4894", "--perr", "0.11")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["margin"] < 0.0


    def test_nan_margin_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "feasible", "--rate", "nan", "--perr", "0.01")
        assert code == 2
        assert out == ""
        assert "not finite" in err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "rate", "--family", "bb84", "--n", "10", "--eps", "0.1", "--bogus", "1")
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, _ = run_cli(capsys, "rate", "--family", "b92", "--n", "10", "--eps", "0.1")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


# Runs a command as ``python -m entrobound.cli`` does, then prints its exit
# code, the modules it loaded and the collector's state as the last stdout line.
_RUN_AND_LIST_MODULES = """
import gc, json, runpy, sys
sys.argv = ["entrobound", *sys.argv[1:]]
try:
    runpy.run_module("entrobound.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules),
                  "collector": [gc.isenabled(), gc.get_freeze_count()]}))
"""


def run_fresh(*argv):
    """Run one command in a fresh interpreter.

    Returns (exit code, stdout lines, modules, (collector enabled, frozen count)).
    """
    src = os.path.dirname(os.path.dirname(entrobound.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    *lines, last = proc.stdout.splitlines()
    report = json.loads(last)
    return report["code"], lines, set(report["modules"]), tuple(report["collector"])


class TestLazyImports:
    @pytest.mark.parametrize(
        "argv",
        [
            ("rate", "--family", "bb84", "--n", "23600", "--eps", "0.1"),
            ("blocklen", "--family", "six", "--rate", "0.66", "--eps", "1e-10", "--method", "new"),
            ("blocklen", "--family", "bb84", "--rate", "0.4894", "--eps", "0.1", "--method", "legacy"),
            ("legacy-eps", "--n", "1000", "--delta", "0.1"),
            ("feasible", "--rate", "0.4", "--perr", "0.01"),
        ],
        ids=["rate", "blocklen-new", "blocklen-legacy", "legacy-eps", "feasible"],
    )
    def test_scalar_commands_never_import_numpy(self, capsys, argv):
        code, lines, modules, _ = run_fresh(*argv)
        assert code == 0
        assert "numpy" not in modules
        # the same line as a run in this process, where numpy is loaded
        assert lines == run_cli(capsys, *argv)[1].splitlines()

    def test_figure_loads_no_simulator_layer(self, tmp_path):
        code, _, modules, _ = run_fresh(
            "figure", "--rates", "0.45", "--eps-min", "1e-6", "--eps-max", "0.2",
            "--points", "3", "--out", str(tmp_path / "rows.csv"),
        )
        assert code == 0
        for name in ("verify", "simulator", "tables", "entropy"):
            assert f"entrobound.{name}" not in modules

    def test_every_export_resolves_and_is_listed(self):
        listed = dir(entrobound)
        for name in entrobound.__all__:
            assert getattr(entrobound, name) is not None
            assert name in listed
        with pytest.raises(AttributeError):
            entrobound.no_such_name

    def test_lazy_module_attributes(self):
        assert verify.figure_rows is bounds.figure_rows
        assert verify.FigureRow is bounds.FigureRow
        assert cli.verify is verify
        assert families.HADAMARD.shape == families.BASIS_CYCLE.shape == (2, 2)
        for name in ("IDENTITY", "__path__"):
            with pytest.raises(AttributeError):
                getattr(families, name)
        for module in (bounds, families, cli):
            assert not hasattr(module, "np") and not hasattr(module, "numpy")


_RATE = ("rate", "--family", "bb84", "--n", "23600", "--eps", "0.1")
_OUT = object()  # stands for an ``--out`` path made per test
_FIGURE = ("figure", "--rates", "0.45", "--eps-min", "1e-6", "--eps-max", "0.2", "--points", "3",
           "--out", _OUT)
_USAGE_ERRORS = [("rate", "--family", "bb84", "--n", "100", "--eps", "1.5"), ("frobnicate",)]


def run_process(*argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, close_fd=None,
                unbuffered=False):
    """Run ``python -m entrobound.cli`` with its output sent to ``stdout`` and
    ``stderr`` and, if given, fd ``close_fd`` closed before the interpreter
    starts: (exit code, captured stderr or "")."""
    src = os.path.dirname(os.path.dirname(entrobound.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "entrobound.cli", *argv],
        stdout=stdout, stderr=stderr, text=True, env=env, timeout=120,
        preexec_fn=None if close_fd is None else (lambda: os.close(close_fd)),
    )
    err = proc.stderr or ""
    assert "Traceback" not in err and "Exception ignored" not in err
    return proc.returncode, err


class TestUnwritableStreams:
    # Exit 2 with one error line, never a traceback, exit 1 (a failed suite)
    # or the interpreter's exit 120 for a stream it could not flush.
    @pytest.mark.parametrize(
        "argv",
        [_RATE, ("verify", "--suite", "lemma"), _FIGURE],
        ids=["rate", "lemma", "figure"],
    )
    def test_closed_stdout_is_a_usage_error(self, tmp_path, argv):
        # refused before the command runs, so ``figure`` leaves no CSV behind
        out = tmp_path / "figure.csv"
        argv = [str(out) if arg is _OUT else arg for arg in argv]
        code, err = run_process(*argv, stdout=None, close_fd=1)
        assert code == 2
        assert err == "error: stdout is closed, nothing can be printed\n"
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv,unbuffered",
        [(_RATE, False), (_RATE, True), (("--help",), False)],
        ids=["buffered", "unbuffered", "help-buffered"],
    )
    def test_full_stdout_is_a_usage_error(self, argv, unbuffered):
        # argparse writes the help text to the buffer, so ``run``'s flush fails
        with open("/dev/full", "wb") as full:
            code, err = run_process(*argv, stdout=full, unbuffered=unbuffered)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=["invalid-value", "unknown-command"])
    def test_usage_error_with_closed_stderr_exits_two(self, argv):
        assert run_process(*argv, close_fd=2) == (2, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=["invalid-value", "unknown-command"])
    def test_usage_error_with_full_stderr_exits_two(self, argv):
        with open("/dev/full", "w") as full:
            assert run_process(*argv, stderr=full) == (2, "")

    def test_failed_flush_is_a_usage_error_in_process(self):
        class Full(io.StringIO):
            def flush(self):
                raise OSError(errno.ENOSPC, "No space left on device")

        err = io.StringIO()
        with contextlib.redirect_stdout(Full()), contextlib.redirect_stderr(err):
            assert cli.run(list(_RATE)) == 2
        assert err.getvalue() == "error: [Errno 28] No space left on device\n"


class TestCollectorPolicy:
    @pytest.mark.parametrize(
        "argv",
        [_RATE, *_USAGE_ERRORS, ("--help",)],
        ids=["success", "usage-error", "argparse-error", "help"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_run_leaves_the_collector_as_it_found_it(self, capsys, argv, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            run_cli(capsys, *argv)
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("argv", [_RATE, ("frobnicate",)], ids=["success", "usage-error"])
    def test_a_cli_process_runs_and_exits_without_the_collector(self, argv):
        code, _, _, (enabled, frozen) = run_fresh(*argv)
        assert code == (0 if argv == _RATE else 2)
        assert not enabled
        assert frozen > 0


def _table_file(path, contexts):
    context = {"k": "k", "weight": 1.0 / contexts, "p_x": [0.25, 0.75]}
    path.write_text(json.dumps({"contexts": [dict(context, theta=str(i)) for i in range(contexts)]}))
    return str(path)


class TestCollectorOffCannotGrowMemory:
    # ``main`` runs a command with the collector off. That is safe only if the
    # garbage cycles a command leaves do not grow with its work: the unreachable
    # count after a small and after a large instance must be the same.
    @staticmethod
    def unreachable_after(capsys, argv):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            code = cli.run(argv)
            unreachable = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        capsys.readouterr()
        assert code == 0
        return unreachable

    @pytest.mark.parametrize("command", ["verify", "figure", "entropy"])
    def test_small_and_large_leave_the_same_garbage(self, capsys, tmp_path, command):
        if command == "verify":
            small, large = (["verify", "--suite", "all", "--trials", str(trials)] for trials in (20, 2000))
        elif command == "figure":
            small, large = (
                ["figure", "--rates", "0.45", "--eps-min", "1e-6", "--eps-max", "0.2",
                 "--points", str(points), "--out", str(tmp_path / "rows.csv")]
                for points in (4, 400)
            )
        else:
            small, large = (
                ["entropy", "--table", _table_file(tmp_path / f"{contexts}.json", contexts),
                 "--alpha", "2"]
                for contexts in (8, 1024)
            )
        self.unreachable_after(capsys, small)  # first use may import and cache
        assert self.unreachable_after(capsys, small) == self.unreachable_after(capsys, large)


# Option values for the contract property: in the domain three times in
# four, else huge, tiny, zero, negative, NaN, infinite or non-numeric.
_HUGE = "1" + "0" * 400
_ODD = st.sampled_from(
    ["0", "-1", "-0.25", "5e-324", "1e-300", "1", "2", "1e300", "1e400", "nan", "-inf", "inf",
     "abc", "", "1.5", _HUGE, "-" + _HUGE]
) | st.floats(allow_nan=True, allow_infinity=True).map(repr)


def _option(valid, odd=_ODD | st.integers(-(10**30), 10**30).map(str)):
    return st.sampled_from([True, True, True, False]).flatmap(lambda ok: valid if ok else odd)


def _floats(lo, hi):
    return _option(st.floats(lo, hi).map(repr))


_FAMILY = _option(st.sampled_from(["bb84", "six"]), st.just("seven"))
_N = _option(st.integers(1, 10**18).map(str))
_EPS = _floats(5e-324, 0.99)
# Trial counts below 10^3, or from 10^6 up (refused by the entry limit): the
# counts between are accepted but slow.
_TRIALS = _option(
    st.integers(1, 20).map(str), _ODD | st.integers(-(10**30), 0).map(str)
) | st.integers(10**6, 10**40).map(str)
_ALPHA = _option(st.sampled_from(["2", "1.5", "1.3", "1.0001"]))
_EPS_RANGE = _option(
    st.lists(st.floats(5e-324, 0.99), min_size=2, max_size=2, unique=True).map(
        lambda pair: [repr(eps) for eps in sorted(pair)]
    ),
    st.lists(_EPS, min_size=2, max_size=2),
)
# One or two rates, else an unparsable, empty, out of (0, 1/2) or non-finite list.
_RATES = _option(
    st.lists(
        st.floats(0.0, 0.5, exclude_min=True, exclude_max=True).map(repr), min_size=1, max_size=2
    ).map(",".join),
    st.sampled_from(["", ",", "abc", "0", "0.5", "nan", "1e400"]),
)
_POINTS = _option(
    st.sampled_from(["2", "3"]), st.sampled_from(["-1", "0", "1", str(10**12), _HUGE])
)
# Files under the test's directory ("<dir>/" alone is the directory itself),
# written once by contract_dir; missing.json is never written.
_TABLE_FILES = ["valid.json", "negative.json", "ragged.json", "not-json.json", "deep.json",
                "missing.json", ""]


def _resolution(family):
    # 465 (six-state) and 10001 (bb84) are the least grids past the size
    # limit; every resolution accepted is at most 51.
    too_large = "465" if family == "six" else "10001"
    return st.sampled_from(["-1", "49", "50", "51", too_large, _HUGE])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["rate", "blocklen", "legacy-eps", "feasible", "verify", "figure", "entropy"]
    ))
    if command == "rate":
        argv = ["--family", draw(_FAMILY), "--n", draw(_N), "--eps", draw(_EPS)]
        if draw(st.booleans()):
            argv += ["--s", draw(_floats(1e-6, 1.0))]
    elif command == "blocklen":
        argv = ["--family", draw(_FAMILY), "--rate", draw(_floats(0.01, 0.66)),
                "--eps", draw(_EPS), "--method", draw(st.sampled_from(["new", "legacy", "old"]))]
    elif command == "legacy-eps":
        argv = ["--n", draw(_N), "--delta", draw(_floats(1e-6, 0.5))]
    elif command == "feasible":
        argv = ["--rate", draw(_floats(0.0, 1.0)), "--perr", draw(_floats(0.0, 1.0))]
    elif command == "figure":
        eps_min, eps_max = draw(_EPS_RANGE)
        argv = ["--rates", draw(_RATES), "--eps-min", eps_min, "--eps-max", eps_max,
                "--points", draw(_POINTS),
                "--out", draw(st.sampled_from(["<dir>/rows.csv", "<dir>/"]))]
    elif command == "entropy":
        argv = ["--table", "<dir>/" + draw(st.sampled_from(_TABLE_FILES)), "--alpha", draw(_ALPHA)]
    else:
        suite = draw(st.sampled_from(
            ["additivity", "ensemble", "single-qubit", "lemma", "stationary"]
        ))
        family = draw(_FAMILY)
        argv = ["--suite", suite, "--family", family, "--alpha", draw(_ALPHA)]
        # each suite mostly gets the options it reads, sometimes the others too
        reads_trials = suite in ("additivity", "ensemble")
        if reads_trials or draw(st.integers(0, 3)) == 0:
            argv += ["--trials", draw(_TRIALS),
                     "--seed", draw(_option(st.integers(0, 2**64).map(str)))]
        if not reads_trials or draw(st.integers(0, 3)) == 0:
            argv += ["--resolution", draw(_resolution(family))]
    return [command, *argv]


def _finite_json(line):
    def refuse(constant):
        raise AssertionError(f"{constant} printed")

    return json.loads(line, parse_constant=refuse)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """A directory holding one valid table file and five malformed ones."""
    directory = tmp_path_factory.mktemp("contract")
    context = {"k": "k", "theta": "0", "weight": 1.0, "p_x": [0.25, 0.75]}
    negative = [dict(context, weight=-0.5), dict(context, theta="1", weight=1.5)]
    ragged = [dict(context, weight=0.5), dict(context, theta="1", weight=0.5, p_x=[1.0])]
    for name, text in [
        ("valid.json", json.dumps({"contexts": [context]})),
        ("negative.json", json.dumps({"contexts": negative})),
        ("ragged.json", json.dumps({"contexts": ragged})),
        ("not-json.json", "{contexts: "),
        ("deep.json", "[" * 100_000),
    ]:
        (directory / name).write_text(text)
    return str(directory)


@settings(max_examples=300, deadline=None)
@given(_argv())
@example(["verify", "--suite", "lemma", "--alpha", "nan"])
@example(["verify", "--suite", "stationary", "--alpha", "inf"])
@example(["verify", "--suite", "lemma", "--alpha", "1"])
@example(["verify", "--suite", "lemma", "--resolution", "-1"])
@example(["verify", "--suite", "lemma", "--trials", "0"])
@example(["verify", "--suite", "single-qubit", "--trials", "0"])
@example(["verify", "--suite", "lemma", "--trials", "1000000000000"])
@example(["verify", "--suite", "stationary", "--seed", "-5"])
@example(["verify", "--suite", "additivity", "--resolution", "465", "--family", "six"])
def test_cli_contract(contract_dir, argv):
    # In process, whatever the values: exit 0 prints one line of finite JSON,
    # exit 1 is a failed verification report, exit 2 prints nothing on stdout
    # and one error line or argparse's usage message on stderr; nothing raises.
    # A verify option out of its range (--alpha outside (1, 2], --trials below
    # 1 or past the table-entry limit, a negative --seed, a --resolution the
    # grid search refuses) is refused by every suite, those that do not read
    # it included.
    argv = [arg.replace("<dir>", contract_dir) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        assert err.startswith("usage: ") or (err.startswith("error: ") and err.count("\n") == 1)
        return
    assert code in (0, 1) and err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    options = dict(zip(argv[1::2], argv[2::2]))
    if "--alpha" in options:
        assert 1.0 < float(options["--alpha"]) <= 2.0
    if argv[0] == "verify":
        trials = int(options.get("--trials", "1"))
        per_state = 6 if options.get("--family") == "six" else 4
        assert trials >= 1 and max(trials + 3, 2 * trials) * per_state**2 <= 2**23
        assert int(options.get("--seed", "0")) >= 0
        most = 464 if options.get("--family") == "six" else 10**4
        assert 50 <= int(options.get("--resolution", "50")) <= most
    doc = _finite_json(out)
    if code == 1:
        assert argv[0] == "verify" and not all(report["pass"] for report in doc)
