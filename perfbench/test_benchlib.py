"""Self-tests of the benchmark's own code.

    python3 perfbench/test_benchlib.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402
import run  # noqa: E402


class Statistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(bl.quartiles(values), (1.5, 3.0, 4.5))
        self.assertEqual(bl.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(bl.quartiles([1.0, 2.0, 3.0, 4.0])[1], 2.5)
        self.assertEqual(bl.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_tail_has_ten_samples_beyond(self):
        values = [float(i) for i in range(1, 1001)]
        p, v = bl.tail_percentile(values)
        self.assertEqual((p, v), (99.0, 990.0))
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_tail_steps_down_with_fewer_samples(self):
        p, v = bl.tail_percentile([float(i) for i in range(1, 201)])
        self.assertEqual((p, v), (95.0, 190.0))
        p, v = bl.tail_percentile([float(i) for i in range(1, 10001)])
        self.assertEqual((p, v), (99.9, 9990.0))

    def test_tail_of_few_samples_is_the_maximum(self):
        self.assertEqual(bl.tail_percentile([3.0, 1.0, 2.0]), (100.0, 3.0))


class Accounting(unittest.TestCase):
    def test_failed_ratio(self):
        ops = bl.Ops()
        self.assertTrue(ops.exit_ok("explore", 2))   # a verdict
        self.assertTrue(ops.exit_ok("validate", 0))
        self.assertFalse(ops.exit_ok("explore", 1))  # usage/parse error
        self.assertFalse(ops.exit_ok("explore", -9))  # killed: timeout
        self.assertFalse(ops.exit_ok("serve", 2, expected=(0,)))
        self.assertFalse(ops.record(False, "output check"))
        self.assertEqual((ops.attempted, ops.failed), (6, 4))
        self.assertAlmostEqual(ops.ratio, 4 / 6)
        self.assertEqual(len(ops.reasons), 4)

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(bl.Ops().ratio, 1.0)


class Normaliser(unittest.TestCase):
    SIM = {"label": "mp", "backend": "sim", "test": "mp", "chip": "Titan",
           "column": 16, "iterations": 100, "seed": 7, "observed": 3,
           "total": 100, "counts": {"0:r0=1; 1:r1=0;": 3},
           "cached": True, "millis": 1.25, "from_store": True}

    def test_provenance_is_stripped(self):
        fresh = dict(self.SIM, cached=False, millis=9.5, from_store=False)
        self.assertEqual(bl.normalise_cell(self.SIM),
                         bl.normalise_cell(fresh))
        for key in ("cached", "millis", "from_store"):
            self.assertNotIn(key, bl.normalise_cell(self.SIM))
        self.assertEqual(bl.normalise_cell(self.SIM)["counts"],
                         self.SIM["counts"])

    def test_semantic_change_is_kept(self):
        other = dict(self.SIM, counts={"0:r0=1; 1:r1=0;": 4})
        self.assertNotEqual(bl.canonical([self.SIM]), bl.canonical([other]))

    def test_exploration_statistics_and_weights_are_stripped(self):
        a = {"label": "sb", "backend": "mc", "chip": "TesC", "column": 16,
             "complete": True, "fair_complete": True, "replays": 10,
             "states": 5, "paths": 12, "reachable": {"x": 3, "y": 1},
             "cached": False, "from_store": True, "millis": 2.0}
        b = dict(a, replays=99, states=1, paths=7, from_store=False,
                 reachable={"y": 8, "x": 1})
        self.assertEqual(bl.normalise_cell(a), bl.normalise_cell(b))
        self.assertEqual(bl.normalise_cell(a)["reachable"], ["x", "y"])

    def test_bounded_exploration_keeps_only_its_verdict(self):
        a = {"label": "seqlock", "backend": "mc", "test": "seqlock",
             "chip": "Titan", "column": 16, "complete": False,
             "fair_complete": False, "budget_replays": 1 << 20,
             "reachable": {"x": 1}}
        b = dict(a, reachable={"x": 1, "y": 2})
        self.assertEqual(bl.normalise_cell(a), bl.normalise_cell(b))
        self.assertEqual(set(bl.normalise_cell(a)), set(bl.BOUNDED_VERDICT))

    def test_model_enumeration_counts_are_stripped(self):
        a = {"label": "mp", "backend": "ptx", "model": "ptx",
             "model_verdict": "Ok", "candidates": 40, "allowed": 12,
             "allowed_outcomes": ["k"], "cached": True}
        b = dict(a, candidates=30, allowed=9, cached=False)
        self.assertEqual(bl.normalise_cell(a), bl.normalise_cell(b))

    def test_canonical_ignores_order(self):
        other = dict(self.SIM, chip="TesC")
        self.assertEqual(bl.canonical([self.SIM, other]),
                         bl.canonical([other, self.SIM]))


class Outputs(unittest.TestCase):
    def test_conformance_cell(self):
        cell = bl.conformance_cell("t", "GTX6", "ptx",
                                   {"a": 2, "b": 0, "c": 1}, ["a", "d"],
                                   100, 16)
        self.assertEqual(cell["kind"], "unsound")
        self.assertEqual(cell["violations"], ["c"])
        self.assertEqual(cell["unobserved"], ["d"])
        sound = bl.conformance_cell("t", "GTX6", "ptx", {"a": 1}, ["a"],
                                    100, 16)
        self.assertEqual(sound["kind"], "sound")

    def test_forbidden_reachable_parser(self):
        out = ("seqlock@Titan (column 16): 3 reachable states, BOUNDED\n"
               "    1  x=1;  *\n"
               "  FORBIDDEN-REACHABLE (definitive): 'x=1;'\n"
               "mp@TesC (column 16): 4 reachable states, complete\n"
               "  forbidden condition exact-unreachable\n")
        self.assertEqual(run.forbidden_reachable(out), {"seqlock@Titan"})

    def test_serve_script_repeats_two_thirds(self):
        script = run.serve_script(5, 3000)
        self.assertEqual(script, run.serve_script(5, 3000))
        distinct = {str(sorted(q.items())) for q in script}
        self.assertAlmostEqual(1 - len(distinct) / len(script), 2 / 3,
                               delta=0.05)

    def test_every_per_layer_metric_is_mapped(self):
        names = [m["name"] for m in run.CONFIG["per_layer"]]
        self.assertEqual(sorted(names), sorted(run.LAYER_MAP))
        for entry in run.LAYER_MAP.values():
            self.assertIn(entry["moves"], [m["name"] for m in
                                           run.CONFIG["end_to_end"]] +
                          ["none"])

    def test_explore_seed_only_permutes(self):
        self.assertEqual(sorted(run.explore_tests(1)),
                         sorted(run.explore_tests(2)))
        self.assertEqual(len(run.explore_tests(1)), 34)


if __name__ == "__main__":
    unittest.main()
