"""Black-box command line checks: outputs, exit codes, determinism."""

import json
import math

import pytest

import entrobound.cli as cli
from entrobound import VerificationReport, binary_entropy, legacy_min_n


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
        # eps^2 is subnormal here, so the correction term and the rate are infinite
        code, out, err = run_cli(capsys, "rate", "--family", "bb84", "--n", "1000", "--eps", "1e-160")
        assert code == 2
        assert out == ""
        assert "not finite" in err

    def test_underflowing_eps_is_usage_error(self, capsys):
        # eps^2 underflows to 0 and the bound divides by it
        code, out, err = run_cli(capsys, "rate", "--family", "bb84", "--n", "1000", "--eps", "1e-170")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ZeroDivisionError")

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

    def test_underflowing_eps_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "blocklen", "--family", "bb84", "--rate", "0.4", "--eps", "1e-170",
            "--method", "new",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ZeroDivisionError")

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
