"""The benchmark's own tests: ``python3 layerbench/run.py --selftest``.

Covers the arithmetic every reported number rests on (self time,
percentile rule, normalisation, failed-op accounting, throughput), the
seeded inputs (same seed → byte-identical, other seed → different) and
the agreement between ``BENCHMARK.json`` and what the code emits.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import inputs
import layers
import measure
import run
from spans import Span, assign_to_ops, covered, layer_totals, nest, \
    reconcile

HERE = Path(__file__).resolve().parent


class SelfTime(unittest.TestCase):
    def tree(self):
        root = Span("op", 0, 100)
        spans = [Span("a", 10, 40), Span("a.inner", 15, 25),
                 Span("b", 50, 90), Span("b", 60, 70)]
        return nest(root, spans)

    def test_self_time_is_duration_minus_child_coverage(self):
        tree = self.tree()
        selfs = {(s.name, s.start): tree.self_ns(i)
                 for i, s in enumerate(tree.spans)}
        self.assertEqual(tree.self_ns(-1), 100 - 30 - 40)
        self.assertEqual(selfs[("a", 10)], 30 - 10)
        self.assertEqual(selfs[("a.inner", 15)], 10)
        self.assertEqual(selfs[("b", 50)], 40 - 10)
        self.assertEqual(selfs[("b", 60)], 10)

    def test_self_times_sum_to_wall_and_nested_calls_count_once(self):
        layers_ = layer_totals([self.tree()], "unattributed")
        self.assertEqual(sum(t.self_ns for t in layers_.values()), 100)
        self.assertEqual(layers_["b"].calls, 1)
        self.assertEqual(layers_["b"].self_ns, 40)
        self.assertEqual(layers_["b"].inclusive_ns, 40)

    def test_overlapping_children_are_covered_once(self):
        self.assertEqual(covered((0, 100), [(10, 30), (20, 40), (90, 120)]),
                         40)

    def test_misnested_time_is_unattributed(self):
        tree = nest(Span("op", 0, 100),
                    [Span("a", 10, 50), Span("a.child", 40, 60)])
        self.assertEqual(tree.misnested_ns, 10)
        totals = layer_totals([tree], "serve.http")
        result = reconcile([tree], totals, ["unattributed"])
        self.assertEqual(result["unattributed_ns"], 10)
        self.assertAlmostEqual(result["unattributed_pct"], 10.0)

    def test_spans_join_the_op_whose_window_holds_them(self):
        grouped = assign_to_ops([(0, 10), (20, 30)],
                                [Span("x", 5, 6), Span("y", 12, 14),
                                 Span("z", 21, 29)])
        self.assertEqual([[s.name for s in g] for g in grouped],
                         [["x"], ["z"]])


class Percentiles(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(measure.tail_percentile(39))
        self.assertEqual(measure.tail_percentile(40), 0.75)
        self.assertEqual(measure.tail_percentile(100), 0.9)
        self.assertEqual(measure.tail_percentile(199), 0.9)
        self.assertEqual(measure.tail_percentile(200), 0.95)
        self.assertEqual(measure.tail_percentile(1000), 0.99)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(measure.nearest_rank(values, 0.5), 50)
        self.assertEqual(measure.nearest_rank(values, 0.9), 90)
        self.assertEqual(measure.nearest_rank([7.0], 0.99), 7.0)


class Normalisation(unittest.TestCase):
    def test_ratio_scaled_by_nominal_probe(self):
        self.assertAlmostEqual(measure.normalised_ms(0.010, 0.002),
                               5 * measure.PROBE_NOMINAL_MS)

    def test_host_slowdown_cancels(self):
        fast, slow = measure.OpLog(), measure.OpLog()
        for op, probe in ((0.010, 0.002), (0.012, 0.002), (0.011, 0.002)):
            fast.record("x", op, probe)
            slow.record("x", op * 1.6, probe * 1.6)
        self.assertAlmostEqual(fast.summarise("x").p50_ms,
                               slow.summarise("x").p50_ms)
        self.assertAlmostEqual(slow.summarise("x").raw_p50_ms, 11 * 1.6)

    def test_mix_throughput(self):
        log = measure.OpLog()
        for _ in range(3):
            log.record("a", 0.001, 0.001)
        log.record("b", 0.003, 0.001)
        summaries = [log.summarise("a"), log.summarise("b")]
        # 4 ops in 3 * 1 + 1 * 3 = 6 nominal-probe units.
        expected = 4 / (6 * measure.PROBE_NOMINAL_MS / 1000.0)
        self.assertAlmostEqual(
            measure.mix_throughput(summaries, {"a": 3, "b": 1}), expected)

    def test_geometric_mean(self):
        self.assertAlmostEqual(measure.geometric_mean([1.0, 4.0]), 2.0)


class FailedOps(unittest.TestCase):
    def test_failures_count_and_miss_every_latency_sample(self):
        log = measure.OpLog()
        for seconds in (0.010, 0.020, 0.030, 0.040):
            log.record("x", seconds, 0.001)
        log.record("x", 0.001, 0.001, error="HTTP 500")
        self.assertEqual((log.attempted, log.failed), (5, 1))
        self.assertAlmostEqual(log.error_rate, 0.2)
        self.assertEqual(log.summarise("x").n, 4)
        self.assertAlmostEqual(log.summarise("x").raw_p50_ms, 25.0)
        self.assertEqual(log.errors(), ["HTTP 500"])

    def test_class_with_only_failures_has_no_median(self):
        log = measure.OpLog()
        log.record("x", 0.01, 0.001, error="timeout")
        with self.assertRaises(ValueError):
            log.summarise("x")


class SeededInputs(unittest.TestCase):
    SOURCE = ("int g;\nint f(void)\n{\n  return g;\n}\n"
              "int main(void)\n{\n  return f();\n}\n")

    def sequence(self, seed):
        rounds = inputs.rounds(seed, [f"op{i}" for i in range(20)])
        ops = [next(rounds) for _ in range(3)]
        cold = inputs.cold_ops(seed, [f"p{i}" for i in range(13)])
        return {"rounds": ops, "cold": [next(cold) for _ in range(2)],
                "edits": [inputs.edit_source(seed, "p", self.SOURCE, k)
                          for k in range(5)],
                "fresh": [inputs.fresh_source(seed, "int g1; int *gp;", k)
                          for k in range(5)],
                "criterion": inputs.pick_criterion(
                    seed, "p", [f"p.c:{n}" for n in range(30)])}

    def test_same_seed_same_inputs(self):
        self.assertEqual(json.dumps(self.sequence(3)),
                         json.dumps(self.sequence(3)))

    def test_other_seed_other_inputs(self):
        a, b = self.sequence(3), self.sequence(4)
        for key in ("rounds", "cold", "edits", "fresh"):
            self.assertNotEqual(a[key], b[key], key)

    def test_cold_rounds_edit_each_program_evenly(self):
        ops = next(inputs.cold_ops(1, [f"p{i}" for i in range(13)]))
        edits = sorted(i for cls, i, _ in ops if cls == "edit")
        fresh = sorted(i for cls, i, _ in ops if cls == "fresh")
        self.assertEqual(edits, sorted(list(range(13))
                                       * inputs.EDITS_PER_FRESH))
        self.assertEqual(fresh, list(range(13)))
        self.assertEqual(len({serial for _, _, serial in ops}), len(ops))

    def test_rounds_hold_every_item_once(self):
        items = list(range(13))
        for order in [next(inputs.rounds(7, items)) for _ in range(3)]:
            self.assertEqual(sorted(order), items)

    def test_edits_insert_one_file_scope_line(self):
        edited = inputs.edit_source(5, "p", self.SOURCE, 0)
        self.assertEqual(len(edited.splitlines()),
                         len(self.SOURCE.splitlines()) + 1)
        self.assertIn("layerbench_edit_0_", edited)
        self.assertEqual(inputs.insertion_points(self.SOURCE), [0, 5, 9])

    def test_program_inputs_are_byte_identical_and_valid(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        from repro.frontend.parser import parse_source
        from workloads import SUITE_DIR

        for path in sorted(SUITE_DIR.glob("*.c")):
            source = path.read_text()
            edits = [inputs.edit_source(9, path.stem, source, k)
                     for k in range(3)]
            self.assertEqual(edits, [inputs.edit_source(9, path.stem,
                                                        source, k)
                                     for k in range(3)])
            for text in edits:
                parse_source(text, path.name)
        base = inputs.fresh_sources()[0]
        fresh = inputs.fresh_source(9, base, 0)
        self.assertEqual(fresh, inputs.fresh_source(9, base, 0))
        self.assertNotEqual(fresh, inputs.fresh_source(10, base, 0))
        self.assertNotEqual(fresh, inputs.fresh_source(9, base, 1))
        parse_source(fresh, "fresh.c")

    def test_fresh_renaming_changes_every_generated_name(self):
        base = "int g0; int *gp; int h1(int *a) { int v2 = *a; return v2; }"
        renamed = inputs.fresh_source(1, base, 0)
        salt = renamed.split("g0_")[1].split(";")[0]
        self.assertEqual(renamed, base.replace("g0", f"g0_{salt}")
                         .replace("gp", f"gp_{salt}")
                         .replace("h1", f"h1_{salt}")
                         .replace("v2", f"v2_{salt}"))


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_exactly_the_emitted_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], layers.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.CLASSES))

    def test_importtime_parsing(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:       120 |        350 |     numpy.core\n"
                "import time:        80 |     174000 |   numpy\n")
        self.assertEqual(layers.importtime_ms(text, "numpy"), 174.0)
        self.assertEqual(layers.importtime_ms(text, "pycparser"), 0.0)


def main() -> int:
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1
