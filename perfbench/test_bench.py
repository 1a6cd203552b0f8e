"""Self-test of the benchmark: tracer and speed-scaling arithmetic and the
correctness gate.

    python3 perfbench/test_bench.py

Runs in a few seconds, at tiny sizes.
"""

from __future__ import annotations

import gc
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

q = run.load_qsym()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TracerArithmetic(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock)

        def leaf():
            clock.now += 0.5

        def inner():
            clock.now += 2.0
            scalar()

        def outer():
            clock.now += 1.0
            inner()
            clock.now += 3.0
            inner()

        def expensive_hook(*a, **kw):
            clock.now += 100.0

        scalar = tr.wrap("cyclotomic.leaf", leaf, span=False)
        inner = tr.wrap("sparse.inner", inner, before=expensive_hook)
        outer = tr.wrap("verify.outer", outer)
        outer()

        self.assertEqual(tr.self_s["cyclotomic.leaf"], 1.0)
        self.assertEqual(tr.self_s["sparse.inner"], 4.0)
        self.assertEqual(tr.self_s["verify.outer"], 4.0)  # hooks never count
        self.assertEqual(tr.calls["sparse.inner"], 2)
        by_name = {tr.names[s[2]]: s for s in tr.spans}
        self.assertEqual(len(tr.spans), 3)  # the unspanned leaf records none
        outer_span = by_name["verify.outer"]
        self.assertEqual(outer_span[4] - outer_span[3], 209.0)  # 9 s of work, 200 s of hooks
        self.assertEqual([s[1] for s in tr.spans if tr.names[s[2]] == "sparse.inner"],
                         [outer_span[0]] * 2)

    def test_compose_products(self):
        a = q.sparse.SparseTensor((2, 2), 1, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
        b = q.sparse.SparseTensor((2, 3), 1, {(0, 0): 1, (1, 0): 1, (1, 2): 1})
        # a's in-index 0 meets one entry of b, in-index 1 meets two, twice
        self.assertEqual(tracer.compose_products(a, b), 1 + 2 + 2)

    def test_useful_ratio_base_counts_leg_products_inside_project_only(self):
        g = q.groups.make_group((2,))
        basis = q.intertwiners.EigenprojectionBasis(g, list(g.elements()))
        t = q.functors.functor_T(q.partitions.Partition.block(1, 1), 2)  # identity
        tr = tracer.Tracer()
        uninstall = tracer.install(tr)
        try:
            t.transform_in_leg(0, basis.u_star_matrix(), 2)  # outside project
            out = q.intertwiners.project(t, basis, basis)
        finally:
            uninstall()
        # in-leg: 2 entries x 2 matrix entries each; out-leg: 4 entries x 2
        self.assertEqual(tr.counts["intertwiners.project.leg_products"], 4 + 8)
        self.assertEqual(tr.counts["sparse.transform_leg.products"], 4 + 4 + 8)
        self.assertEqual(tr.counts["intertwiners.project.out_nnz"], out.nnz())
        metrics = run.per_layer(tr, [{}], 0.0, 1.0)
        self.assertEqual(metrics["intertwiners.project.useful_ratio"][0], 2 / 12)

    def test_install_is_undone(self):
        original = q.sparse.SparseTensor.__add__
        uninstall = tracer.install(tracer.Tracer())
        self.assertIsNot(q.sparse.SparseTensor.__add__, original)
        self.assertIs(q.verify.project, q.intertwiners.project)
        uninstall()
        self.assertIs(q.sparse.SparseTensor.__add__, original)

    def test_traced_times_are_scaled_untraced_ones_are_not(self):
        tr = tracer.Tracer()
        tr.self_s["sparse.SparseTensor.__add__"] = 2.0
        untraced = [{"lemmas": (1.0, 1.0, 9.0)}, {"lemmas": (1.2, 1.0, 9.0)}]
        metrics = run.per_layer(tr, untraced, 3.0, 0.5)
        self.assertEqual(metrics["sparse.self_s"][0], 1.0)
        self.assertAlmostEqual(metrics["verify.suite_s.lemmas"][0], 1.1)
        self.assertAlmostEqual(metrics["trace.overhead_s"][0], 1.5 - 1.1)

    def test_every_declared_metric_is_emitted(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        emitted = run.per_layer(tracer.Tracer(), [{}], 0.0, 1.0)
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(emitted))
        for m in spec["per_layer"]:
            self.assertEqual(emitted[m["name"]][1], m["unit"], m["name"])


class ReferenceSpeed(unittest.TestCase):
    def setUp(self):
        self.clock, self.cpu = FakeClock(), FakeClock()
        self.meter = speed.RateMeter(self.clock, self.cpu)

    def sample_at(self, now, wall, cpu, inner=None):
        """Take one sample at ``now`` whose kernel takes ``wall`` and ``cpu``
        seconds; ``inner`` runs inside the kernel."""
        def kernel():
            if inner:
                inner()
            self.clock.now += wall
            self.cpu.now += cpu
        self.clock.now = now
        with mock.patch.object(speed, "ref_kernel", kernel):
            self.meter.sample()

    def test_scaled_removes_samples_inside_and_uses_mean_speed(self):
        self.sample_at(0.0, 0.004, 0.004)
        self.sample_at(2.0, 0.010, 0.008)  # inside [1, 4]
        self.sample_at(3.0, 0.005, 0.004)  # inside
        self.sample_at(5.0, 0.006, 0.004)
        self.sample_at(6.0, 0.100, 0.004)  # not next to the interval
        wall, cpu = self.meter.scaled(1.0, 4.0, 2.0)
        # mean sample 0.00625 s against the 0.0025 s reference
        self.assertAlmostEqual(wall, (3.0 - 0.015) * 0.4)
        self.assertAlmostEqual(cpu, (2.0 - 0.012) * 0.4)

    def test_alarm_during_a_sample_is_skipped(self):
        self.sample_at(0.0, 0.005, 0.004, inner=self.meter.sample)
        self.assertEqual(self.meter.seconds, [0.005])
        self.assertEqual(self.meter.cpu, [0.004])

    def test_kernel_runs_with_collector_off(self):
        seen = []
        with mock.patch.object(speed, "ref_kernel", lambda: seen.append(gc.isenabled())):
            speed.time_ref_kernel()
        self.assertEqual(seen, [False])
        self.assertTrue(gc.isenabled())


class CorrectnessGate(unittest.TestCase):
    def test_matching_output_passes(self):
        gate = workloads.Gate.load(["complete-4"])
        self.assertTrue(gate.record("complete-4", q.verify.run_suite("complete:4")))
        self.assertEqual((gate.attempted, gate.failed), (1, 0))

    def test_perturbed_pin_counts_as_failed(self):
        pinned = json.loads((workloads.PINS / "complete-4.json").read_text())
        pinned["results"][0]["verdict"] = "fail"
        gate = workloads.Gate({"complete-4": json.dumps(pinned, sort_keys=True)})
        self.assertFalse(gate.record("complete-4", q.verify.run_suite("complete:4")))
        self.assertEqual((gate.attempted, gate.failed), (1, 1))

    def test_raising_item_counts_as_failed(self):
        gate = workloads.Gate.load(["complete-4"])
        self.assertFalse(gate.record("complete-4", error=ValueError("boom")))
        self.assertEqual(gate.failed, 1)

    def test_tensor_digest_sees_one_changed_entry(self):
        t = q.functors.functor_T(q.partitions.Partition.block(1, 1), 3)
        changed = t + q.sparse.SparseTensor((3, 3), 1, {(0, 0): 1})
        self.assertNotEqual(workloads.canonical(t), workloads.canonical(changed))

    def test_deliberate_failures_stay_pinned_as_failures(self):
        for name, check in (("halved-5", "top-block"), ("hamming-2-3", "cube-display")):
            pinned = json.loads((workloads.PINS / f"{name}.json").read_text())
            verdicts = {r["check"]: r for r in pinned["results"]}
            self.assertEqual(verdicts[check]["verdict"], "fail", name)
            self.assertTrue(verdicts[check]["detail"], name)

    def test_full_suites_concatenate_to_verify_all(self):
        full = {item.name for items in workloads.FULL.values() for item in items}
        self.assertLessEqual(set(workloads.VERIFY_ALL), full)
        results = []
        for name in workloads.VERIFY_ALL:
            results += json.loads((workloads.PINS / f"{name}.json").read_text())["results"]
        expected = json.loads((workloads.PINS / "verify-all.json").read_text())
        self.assertEqual(expected, {
            "suite": "all", "results": results,
            "passed": all(r["verdict"] != "fail" for r in results),
        })

    def test_second_seed_gives_identical_verdict_json(self):
        v = q.verify
        pairs = [
            (v.suite_wreath(2, 3), v.suite_wreath(2, 3, seed=8)),
            (v.suite_antisymmetrizers(3), v.suite_antisymmetrizers(3, seed=1)),
            (v.suite_functoriality(10), v.suite_functoriality(10, seed=1)),
            (v.suite_eigenspace_invariance(), v.suite_eigenspace_invariance(seed=1)),
        ]
        for a, b in pairs:
            self.assertEqual(workloads.canonical(a), workloads.canonical(b), a.suite)


if __name__ == "__main__":
    unittest.main()
