"""Tests of the benchmark's input generator.

    python3 bench/test_gen.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import gen  # noqa: E402

SEEDS = (0, 1, 12345)
BLOCKS = range(3)


def inputs_bytes(seed: int) -> bytes:
    """Everything the generator hands the program for ``seed``, serialised."""
    doc = {
        "blocklen-grid": [gen.blocklen_block(seed, b) for b in BLOCKS],
        "sim-trials": [gen.sim_block(seed, b) for b in BLOCKS],
        "cli-mix": gen.cli_pass(seed, gen.cli_data_dir(seed)),
    }
    return json.dumps(doc, sort_keys=True).encode()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for seed in SEEDS:
            self.assertEqual(inputs_bytes(seed), inputs_bytes(seed))

    def test_seeds_differ(self):
        self.assertEqual(len({inputs_bytes(seed) for seed in SEEDS}), len(SEEDS))

    def test_blocklen_mix(self):
        for seed in SEEDS:
            for b in BLOCKS:
                cells = gen.blocklen_block(seed, b)
                self.assertEqual({c["family"] for c in cells}, {"bb84", "six"})
                tiny = [c for c in cells if c.get("tiny_eps")]
                self.assertEqual(len(tiny), 1)
                self.assertLess(tiny[0]["eps"], 1e-154)
                self.assertEqual(sum("expect" in c for c in cells), 2 if b == 0 else 0)
                for c in cells:
                    self.assertLess(0.0, c["rate"])
                    self.assertLessEqual(c["rate"], 0.999 * gen.CEILINGS[c["family"]])
                    self.assertTrue(0.0 < c["eps"] < 1.0)
                    self.assertTrue(10 <= c["n_fwd"] <= 10**18)

    def test_sim_mix_covers_families_and_qubit_budgets(self):
        from entrobound.families import MeasurementFamily

        budgets = {f.value: f.default_qubit_budget for f in MeasurementFamily}
        for seed in SEEDS:
            for b in BLOCKS:
                ops = gen.sim_block(seed, b)
                combos = {(op["kind"], op["family"], op["n"], op["k"]) for op in ops}
                self.assertEqual(combos, set(gen.SIM_COMBOS))
                for family, budget in budgets.items():
                    self.assertIn(("additivity", family, budget, 0), combos)
                    self.assertIn(2, {op["n"] for op in ops if op["family"] == family})
                self.assertTrue(all(1.0 < op["alpha"] <= 2.0 for op in ops))

    def test_cli_mix_covers_families_and_parses(self):
        from entrobound import cli

        parser = cli.build_parser()
        for seed in SEEDS:
            argv, tables = gen.cli_pass(seed, gen.cli_data_dir(seed))
            families = {a[a.index("--family") + 1] for a in argv if "--family" in a}
            self.assertEqual(families, {"bb84", "six"})
            commands = {a[0] for a in argv}
            self.assertEqual(commands, {"rate", "blocklen", "legacy-eps", "entropy", "verify",
                                        "figure", "feasible"})
            for a in argv:
                parser.parse_args(a)
            sizes = sorted(len(doc["contexts"]) for doc in tables.values())
            self.assertEqual(sizes, [8, 8, 1024, 1024])


if __name__ == "__main__":
    unittest.main()
