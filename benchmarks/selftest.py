"""Self-tests of the benchmark itself: python3 benchmarks/selftest.py"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import unittest

import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.SRC))


class BenchmarkSelfTest(unittest.TestCase):

    def test_traced_and_untraced_passes_give_the_same_digest(self):
        # a prefix of each workload keeps the test short
        for name, take in (("sl-demo", 1), ("o3-group", 1), ("k3-frob", 6),
                           ("conv-corpus", 12)):
            with self.subTest(workload=name):
                mc = run.load_midconv()
                ops = workloads.WORKLOADS[name].build(mc, 3)[:take]
                original = mc.linalg.solve_coords
                base = run.run_pass(ops, mc.errors.DomainError)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = run.run_pass(ops, mc.errors.DomainError)
                finally:
                    tracer.uninstall()
                self.assertEqual(base.mismatches, [])
                self.assertEqual(base.digest, traced.digest)
                self.assertGreater(sum(s.calls for s in tracer.spans.values()), 0)
                self.assertIs(mc.linalg.solve_coords, original)
                self.assertIs(mc.tuples.solve_coords, original)

    def test_corpus_is_deterministic_for_a_seed(self):
        mc = run.load_midconv()

        def texts(seed):
            return [mc.tupleio.save_tuple(T) for T in workloads.build_corpus(mc, seed)]

        first = texts(7)
        self.assertEqual(len(first), 3 * len(workloads.CORPUS_DIMS)
                         * len(workloads.CORPUS_RS) * workloads.CORPUS_PER_CLASS)
        self.assertEqual(first, texts(7))
        self.assertNotEqual(first, texts(8))

    def run_main(self, workload):
        """run.main on one workload for 1 s: (exit code, summary)."""
        saved = run.RESULTS
        run.RESULTS = run.HERE / "results" / "selftest"
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seconds", "1"])
        finally:
            run.RESULTS = saved
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_tampered_pinned_digest_fails_the_run(self):
        saved = (workloads.SL_DEMO_CASES, dict(workloads.SL_DEMO_SHA256))
        workloads.SL_DEMO_CASES = ((1, 4),)
        workloads.SL_DEMO_SHA256[(1, 4)] = "0" * 64
        try:
            code, summary = self.run_main("sl-demo")
        finally:
            workloads.SL_DEMO_CASES, workloads.SL_DEMO_SHA256 = saved
        self.assertEqual(code, 1)
        self.assertFalse(summary["correct"])
        self.assertEqual(summary["failed"], summary["attempted"])

    def test_a_raise_outside_the_known_defect_fails_the_run(self):
        original = workloads.WORKLOADS["k3-frob"]

        def build(mc, seed):
            def boom():
                raise mc.errors.PreconditionError("injected")
            first, *rest = original.build(mc, seed)[:3]
            step = dataclasses.replace(first.steps[0], run=boom)
            return [workloads.Op(first.label, (step,)), *rest]

        workloads.WORKLOADS["k3-frob"] = dataclasses.replace(original, build=build)
        try:
            code, summary = self.run_main("k3-frob")
        finally:
            workloads.WORKLOADS["k3-frob"] = original
        self.assertEqual(code, 1)
        self.assertFalse(summary["correct"])
        self.assertEqual(summary["failed"] * 3, summary["attempted"])

    def test_only_the_known_defect_step_may_fail_without_failing_the_run(self):
        mc = run.load_midconv()

        def boom():
            raise mc.errors.DimensionInconsistency("injected")

        corpus_op = workloads.WORKLOADS["conv-corpus"].build(mc, 3)[0]
        self.assertEqual([s.name for s in corpus_op.steps if s.known_defect], ["mc_lambda"])
        for known_defect in (True, False):
            with self.subTest(known_defect=known_defect):
                op = workloads.Op("op", (workloads.Step("mc_lambda", boom, str, known_defect),))
                result = run.run_pass([op], mc.errors.DomainError)
                self.assertEqual(len(result.failures), 1)
                self.assertEqual(result.step_failures["mc_lambda"], 1)
                self.assertEqual(bool(result.mismatches), not known_defect)

    def test_benchmark_json_lists_the_emitted_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        idle = run.Pass(1.0, [], 1.0, [], [], [], run.Counter(), "")
        emitted = run.per_layer_metrics(Tracer(), idle, idle,
                                        {"add": 1.0, "mul": 1.0, "inv": 1.0}, 1.0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: m["unit"] for name, m in emitted.items()})


if __name__ == "__main__":
    unittest.main()
