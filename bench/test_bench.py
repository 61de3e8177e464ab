"""Tests of the benchmark itself: span arithmetic, oracles, deadlines.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import os
import random
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tropcover import Divisor, Point  # noqa: E402


def span(sid, parent, name, start, end, op=0):
    return [op, sid, parent, name, start, end]


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span(0, -1, "prym.pairing_table", 0.0, 10.0),
            span(1, 0, "prym.prym_contains", 1.0, 3.0),
            span(2, 1, "jacobian.abel_jacobi", 1.5, 2.0),
            span(3, 0, "prym.prym_contains", 2.5, 5.0),  # overlaps its sibling
            span(4, 0, "graphs.refine", 6.0, 7.0),
            span(5, -1, "graphs.refine", 20.0, 21.0),
        ]
        got = tracer.self_times(spans)
        # the root loses the union [1, 5] + [6, 7] of its children, not their sum
        self.assertEqual(got, [5.0, 1.5, 0.5, 2.5, 1.0, 1.0])
        m = tracer.layer_metrics(spans)
        self.assertEqual(m["prym.prym_contains.calls"], (2, "count"))
        self.assertAlmostEqual(m["prym.prym_contains.self_s"][0], 4.0)
        self.assertEqual(m["graphs.refine.calls"], (2, "count"))
        self.assertAlmostEqual(m["graphs.refine.self_s"][0], 2.0)
        self.assertEqual(m["linalg.solve.calls"], (0, "count"))

    def test_hit_ratio(self):
        spans = [
            span(0, -1, "jacobian.period_lattice", 0.0, 1.0),
            span(1, 0, "jacobian.PeriodLattice", 0.1, 0.9),
            span(2, -1, "jacobian.period_lattice", 2.0, 2.1),
            span(3, -1, "jacobian.period_lattice", 3.0, 3.1),
            span(4, -1, "jacobian.PeriodLattice", 4.0, 4.1),  # not a memo miss
        ]
        m = tracer.layer_metrics(spans)
        self.assertAlmostEqual(m["jacobian.period_lattice.hit_ratio"][0], 1 - 1 / 3)
        self.assertEqual(m["prym.homology_action.hit_ratio"][0], 0.0)

    def test_install_patches_every_binding(self):
        from tropcover import divisors, graphs, jacobian

        orig = graphs.refine
        G = workloads.build_graph(gen.random_3regular(random.Random(1), 3, gen.unit_length))
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(jacobian.refine, orig)
            self.assertIs(jacobian.refine, divisors.refine)
            self.assertIs(jacobian.refine, graphs.refine)
            tr.op = 7
            graphs.refine(G, [])
        finally:
            tr.uninstall()
        self.assertIs(graphs.refine, orig)
        self.assertIs(jacobian.refine, orig)
        names = [s[3] for s in tr.spans]
        self.assertEqual(names[0], "graphs.refine")
        self.assertIn("graphs.MetricGraph", names)
        self.assertTrue(all(s[0] == 7 for s in tr.spans))
        self.assertEqual(tr.spans[names.index("graphs.MetricGraph")][2], 0)

    def test_count_fractions(self):
        with tracer.count_fractions() as fc:
            Fraction(1, 3) + Fraction(1, 6)
        self.assertEqual(fc.count, 3)
        n = fc.count
        Fraction(1, 2)
        self.assertEqual(fc.count, n)


class OracleTest(unittest.TestCase):
    def run_workload(self, wl, raw_ops):
        inputs = wl.build(raw_ops, self.tmp)
        wl.write()
        outs = []
        for inp in inputs:
            items, facts = wl.summarize(inp, wl.run(inp))
            self.assertIsNone(wl.check(inp, facts))
            outs.append(facts)
        return inputs, outs

    def setUp(self):
        import tempfile

        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def test_pairing_rejects_a_flipped_bit(self):
        wl = workloads.Pairing()
        raw = gen.random_3regular(random.Random(3), 3, gen.unit_length)
        (inp,), ((evens, table),) = self.run_workload(wl, [raw])
        table[5][3] ^= 1
        self.assertIsNotNone(wl.check(inp, (evens, table)))

    def test_census_rejects_a_wrong_theta(self):
        wl = workloads.Census()
        raw = gen.random_3regular(random.Random(4), 3, gen.fractional_length)
        (inp,), ((chars, free, dilated),) = self.run_workload(wl, [raw])
        flipped = [(d, True) for d, _ in chars]
        self.assertIsNotNone(wl.check(inp, (flipped, free, dilated)))
        cyc, reps = dilated[0]
        short = [(cyc, reps[1:])] + dilated[1:]
        self.assertIsNotNone(wl.check(inp, (chars, free, short)))

    def test_reduce_rejects_a_shifted_chip(self):
        wl = workloads.Reduce()
        k4 = (
            ["A", "B", "C", "D"],
            [(a + b, a, b, Fraction(1)) for a, b in ("AB", "AC", "AD", "BC", "BD", "CD")],
        )
        D = [(("v", "B"), 5), (("v", "C"), -2)]
        (inp,), (red,) = self.run_workload(wl, [(k4, D)])
        # move one chip of the result from a vertex that holds one to
        # another vertex: same degree, still effective, not equivalent
        p = next(p for p, a in red.items() if a > 0)
        other = next(v for v in "BCD" if Point.at_vertex(v) != p)
        shifted = red + Divisor(red.graph, [(Point.at_vertex(other), 1), (p, -1)])
        self.assertTrue(shifted.is_effective())
        self.assertIsNotNone(wl.check(inp, shifted))
        self.assertIsNotNone(wl.check(inp, None))

    def test_cli_rejects_changed_output(self):
        wl = workloads.Cli(ROOT)
        cases, _ = wl.generate(random.Random(5))
        inputs = wl.build(cases[:1], self.tmp)
        wl.write()
        for inp in inputs[:5] + inputs[9:10]:
            code, text = wl.run(inp)
            self.assertIsNone(wl.check(inp, (code, text)), inp[0])
            if inp[0] in ("equiv", "principal"):
                wrong = "false\n" if text == "true\n" else "true\n"
            else:
                wrong = text.replace("1", "0", 1) if "1" in text else text + "\n"
            self.assertIsNotNone(wl.check(inp, (code, wrong)), inp[0])
        self.assertIsNotNone(wl.check(inputs[0], (3, "true\n")))


class Hang(workloads.Workload):
    """Op 1 never finishes; the op swallows ordinary exceptions the way
    the library's parsers do."""

    name = "hang"
    deadline_s = 0.05

    def run(self, inp):
        if inp == 1:
            while True:
                try:
                    sum(range(1000))
                except Exception:
                    pass
        return inp

    def summarize(self, inp, out):
        return 1, out

    def check(self, inp, facts):
        return None if facts == inp else "wrong"


class DeadlineTest(unittest.TestCase):
    def test_deadline_exceeded_op_counts_as_failed(self):
        wl = Hang()
        deadline = harness.Deadline()
        rounds = harness.Rounds(wl, deadline)
        records = rounds.run([0, 1, 2])
        self.assertEqual([r.status for r in records], ["ok", "deadline", "ok"])
        self.assertGreaterEqual(records[1].latency, wl.deadline_s)
        harness.check_all(wl, [0, 1, 2], records)
        out = harness.summary(records)
        self.assertEqual((out["attempted"], out["failed"]), (3, 1))
        self.assertTrue(out["correct"])
        self.assertEqual(out["failures"][0]["op"], 1)

    def test_error_and_rejection_count_as_failed(self):
        wl = Hang()
        wl.run = lambda inp: 1 // inp if inp else 5
        records = harness.run_ops(wl, [0, 2], [0, 1], harness.Deadline(), wl.deadline_s)
        harness.check_all(wl, [0, 2], records)
        self.assertEqual([r.status for r in records], ["rejected", "rejected"])
        records = harness.run_ops(wl, [0, 1], [1], harness.Deadline(), wl.deadline_s)
        self.assertEqual(records[0].status, "ok")
        wl.run = lambda inp: 1 // 0
        records = harness.run_ops(wl, [0], [0], harness.Deadline(), wl.deadline_s)
        self.assertEqual(records[0].status, "error")
        self.assertFalse(harness.summary(records)["correct"])


class MergeTest(unittest.TestCase):
    def test_later_rounds_fold_into_the_first(self):
        R = harness.Record
        first = [R(0, 2.0, "ok", 1, "a"), R(1, 2.0, "ok", 1, "b"), R(2, 2.0, "ok", 1, "c")]
        later = [R(0, 1.0, "ok", 1, "a"), R(1, 1.0, "ok", 1, "x"), R(2, 3.0, "deadline")]
        harness.merge(first, [later])
        self.assertEqual([r.status for r in first], ["ok", "rejected", "deadline"])
        self.assertEqual([r.latency for r in first], [1.0, 1.0, 3.0])

    def test_scaling_only_shrinks_ok_latencies(self):
        ref = harness.PROBE_REF_S
        rounds = harness.Rounds(Hang(), harness.Deadline())
        rounds.probes = [ref, 3 * ref, ref / 2, ref / 2]
        ok, failed = harness.Record(0, 4.0, "ok"), harness.Record(1, 4.0, "deadline")
        late, fast = harness.Record(2, 4.0, "ok"), harness.Record(3, 4.0, "ok")
        rounds.slices = [([ok, failed], 0), ([late], 1), ([fast], 2)]
        rounds.scale()
        self.assertAlmostEqual(ok.scaled, 2.0)
        self.assertEqual(failed.scaled, 4.0)
        self.assertAlmostEqual(late.scaled, 4.0 / 1.75)
        self.assertEqual(fast.scaled, 4.0)


class TailTest(unittest.TestCase):
    def test_eleventh_largest(self):
        value, pct, beyond = harness.tail(list(range(100)))
        self.assertEqual((value, pct, beyond), (89, 90.0, 10))
        self.assertEqual(harness.tail([3, 1, 2])[0], 3)


if __name__ == "__main__":
    unittest.main()
