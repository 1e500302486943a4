"""Self-test of the benchmark harness: python3 bench/selftest.py

Covers the self-time arithmetic on nested spans, the choice of the tail
percentile for a sample count, the import-time parser, and that the
correctness gate trips on a one-byte change to a CSV, on a wrong digest and
on an injected exception.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))
import linkopt  # noqa: E402
import linkopt.cli  # noqa: E402


def synthetic_tracer(spans):
    """Tracer holding (name, parent, start, end) spans, in call order."""
    tracer = tracing.Tracer()
    for name, parent, start, end in spans:
        nid = tracer._name_ids.setdefault(name, len(tracer._name_ids))
        if nid == len(tracer.names):
            tracer.names.append(name)
        tracer.name_id.append(nid)
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    return tracer


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        tracer = synthetic_tracer([
            ("optimizer.joint_optimize", -1, 0.0, 10.0),
            ("optimizer.solve_candidate", 0, 1.0, 4.0),
            ("per.payload_max", 1, 2.0, 3.0),
            ("optimizer.solve_candidate", 0, 5.0, 6.0),
        ])
        self.assertEqual(tracer.self_times(), [6.0, 2.0, 1.0, 1.0])

    def test_children_are_clipped_and_merged(self):
        # Overlapping children and one running past its parent's end count
        # each covered instant once, and only inside the parent.
        tracer = synthetic_tracer([
            ("optimizer.joint_optimize", -1, 0.0, 10.0),
            ("optimizer.solve_candidate", 0, 1.0, 4.0),
            ("optimizer.solve_candidate", 0, 3.0, 6.0),
            ("optimizer.solve_candidate", 0, 9.0, 12.0),
        ])
        self.assertEqual(tracer.self_times()[0], 10.0 - 5.0 - 1.0)

    def test_layer_metrics_are_per_pass(self):
        tracer = synthetic_tracer([
            ("optimizer.joint_optimize", -1, 0.0, 4.0),
            ("optimizer.solve_candidate", 0, 1.0, 2.0),
            ("optimizer.joint_optimize", -1, 5.0, 7.0),
        ])
        metrics = tracer.layer_metrics(passes=2)
        self.assertEqual(metrics["optimizer.joint_optimize.calls"], (1.0, "count"))
        self.assertEqual(metrics["optimizer.joint_optimize.self_s"], (2.5, "s"))
        self.assertEqual(metrics["optimizer.solve_candidate.self_s"], (0.5, "s"))
        self.assertEqual(metrics["per.quad.calls"], (0.0, "count"))

    def test_traced_solve_covers_every_binding(self):
        cfg = linkopt.default_config()
        link = workloads.replace(cfg.link_template, distance_m=10.0)
        tracer = tracing.Tracer()
        with tracer.installed():
            linkopt.joint_optimize(
                link, cfg.qos, cfg.pa_models[linkopt.PaVariant.TPA],
                cfg.modulations, cfg.n_h, circuit_power=cfg.circuit_power)
        metrics = tracer.layer_metrics(passes=1)
        self.assertEqual(metrics["optimizer.joint_optimize.calls"][0], 1)
        # 6 schemes x retransmission caps 1..3
        self.assertEqual(metrics["optimizer.solve_candidate.calls"][0], 18)
        # bound in the optimizer by a from-import, and inside scipy's module
        self.assertGreater(metrics["optimizer.brentq.calls"][0], 0)
        self.assertGreater(metrics["per.waterfall_threshold.calls"][0], 0)
        self.assertIs(linkopt.optimizer.brentq, tracing.importlib.import_module(
            "scipy.optimize").brentq)  # restored
        total_self = sum(tracer.self_times())
        root = tracer.end[0] - tracer.start[0]
        self.assertAlmostEqual(total_self, root, delta=1e-9)
        self.assertEqual(tracer.labels[0], "tpa:feasible")


class TailPercentile(unittest.TestCase):
    def test_choice_for_sample_count(self):
        cases = {5: None, 19: None, 20: 50.0, 39: 50.0, 40: 75.0, 99: 75.0,
                 100: 90.0, 999: 90.0, 1000: 99.0, 10000: 99.9}
        for n, expected in cases.items():
            self.assertEqual(run.tail_percentile(n), expected, n)

    def test_referred_is_median_ratio_times_nominal(self):
        pairs = [(2.0, 1.0), (3.0, 2.0), (10.0, 2.0)]
        self.assertEqual(run.referred(pairs, 0.5), 1.0)
        self.assertTrue(run.math.isnan(run.referred([], 0.5)))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 90.0), 90)
        self.assertEqual(run.percentile(values, 50.0), 50)


class ImportTimes(unittest.TestCase):
    def test_outermost_scipy_and_linkopt_self(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:        20 |        170 |   scipy",
            "import time:        30 |         30 |     scipy.special",
            "import time:        10 |        210 |   linkopt.per",
            "import time:         5 |        300 | linkopt",
        ])
        scipy_s, linkopt_self_s, linkopt_cum_s = run.import_times(stderr)
        self.assertAlmostEqual(scipy_s, 170e-6 + 30e-6)
        self.assertAlmostEqual(linkopt_self_s, 15e-6)
        self.assertAlmostEqual(linkopt_cum_s, 300e-6)


class Gate(unittest.TestCase):
    def setUp(self):
        workloads.WORK.mkdir(exist_ok=True)

    def test_one_byte_change_to_csv_trips(self):
        ops = workloads.ReferenceDatasets(seed=0).pass_ops()
        check = ops[0]()  # sweep
        check()  # unchanged output passes
        path = workloads.WORK / "sweep.csv"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with self.assertRaises(workloads.GateError):
            check()

    def test_injected_exception_counts_as_failure(self):
        counter = run.Counter()
        boom = mock.Mock(side_effect=RuntimeError("injected"))
        with mock.patch.object(linkopt.cli, "cmd_lifetime", boom), \
                mock.patch("sys.stderr"):
            run.compute_pass(workloads.ReferenceDatasets(seed=0), counter)
        self.assertEqual((counter.attempted, counter.failed), (2, 1))

    def test_injected_exception_in_queries(self):
        counter = run.Counter()
        boom = mock.Mock(side_effect=ValueError("injected"))
        with mock.patch.object(workloads, "QUERIES_PER_PASS", 6), \
                mock.patch.object(linkopt, "joint_optimize", boom), \
                mock.patch("sys.stderr"):
            run.compute_pass(workloads.PointQueries(seed=0), counter)
        self.assertEqual(counter.failed, 6 + 1)  # six queries and the digest

    def test_wrong_digest_trips(self):
        counter = run.Counter()
        workload = workloads.PointQueries(seed=0)
        workload.reference = "0" * 64
        with mock.patch.object(workloads, "QUERIES_PER_PASS", 6), \
                mock.patch("sys.stderr"):
            run.compute_pass(workload, counter)
        self.assertEqual((counter.attempted, counter.failed), (7, 1))

    def test_reference_digest_matches(self):
        digests = workloads.load_reference_digests()
        self.assertEqual(workloads.batch_digest(7), digests["7"])

    def test_validate_output_gate(self):
        workloads.check_validate_output("x\nchecks: 17/17 passed\n", "t")
        with self.assertRaises(workloads.GateError):
            workloads.check_validate_output("checks: 16/17 passed\n", "t")


class Queries(unittest.TestCase):
    def test_seeded_and_distinct_per_batch(self):
        a = workloads.generate_queries(3, 0, 12)
        self.assertEqual(a, workloads.generate_queries(3, 0, 12))
        self.assertNotEqual(a, workloads.generate_queries(3, 1, 12))
        self.assertNotEqual(a, workloads.generate_queries(4, 0, 12))
        self.assertEqual([q.pa for q in a[:3]], ["cpa", "tpa", "etpa"])


class BenchmarkFile(unittest.TestCase):
    def test_per_layer_names_match_traced_output(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        declared = [m["name"] for m in spec["per_layer"]]
        emitted = list(tracing.Tracer().layer_metrics(passes=1))
        emitted += ["import.scipy_s", "import.linkopt_self_s",
                    "import.linkopt_cumulative_s", "trace.overhead_s",
                    "error_rate"]
        self.assertEqual(sorted(declared), sorted(emitted))


if __name__ == "__main__":
    unittest.main()
