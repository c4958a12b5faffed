"""Fast tests of the benchmark's own machinery.

    python3 -m unittest discover -s perfbench/tests

They cover the self-time arithmetic, the report checks, the metric names,
the tracer's rebinding and the speed probe; none of them runs a workload.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class SelfTimeTest(unittest.TestCase):
    def test_nested_span_tree(self):
        # root [0, 10] with children a [1, 4] and b [5, 9]; a has a1 [2, 3];
        # b has two overlapping children [5, 6] and [5.5, 7] covering [5, 7].
        starts = [0.0, 1.0, 2.0, 5.0, 5.0, 5.5]
        ends = [10.0, 4.0, 3.0, 9.0, 6.0, 7.0]
        parents = [-1, 0, 1, 0, 3, 3]
        got = tracing.self_times(starts, ends, parents)
        for g, want in zip(got, [3.0, 2.0, 1.0, 2.0, 1.0, 1.5]):
            self.assertAlmostEqual(g, want)

    def test_child_overhanging_parent_is_clipped(self):
        got = tracing.self_times([0.0, 1.0], [2.0, 3.0], [-1, 0])
        self.assertAlmostEqual(got[0], 1.0)

    def test_busy_sums_self_time_per_key(self):
        a = types.ModuleType("fake_a")
        b = types.ModuleType("fake_b")

        def leaf(x):
            return x + 1

        def outer(x):
            return a.leaf(x) + a.leaf(x)

        a.leaf, a.outer = leaf, outer
        b.leaf = leaf  # imported by name into a second module
        tr = tracing.Tracer({"a": a, "b": b}, [
            ("a.outer", "a", "outer", "span", None),
            ("a.leaf", "a", "leaf", "span", None),
        ])
        tr.install()
        try:
            tr.set_job("j")
            self.assertEqual(a.outer(1), 4)
            self.assertEqual(b.leaf(1), 2)
        finally:
            tr.uninstall()
        spans = list(tr.spans())
        self.assertEqual([s[0] for s in spans], ["a.outer", "a.leaf", "a.leaf", "a.leaf"])
        self.assertEqual([s[3] for s in spans], [-1, 0, 0, -1])
        self.assertEqual({s[4] for s in spans}, {"j"})
        self.assertEqual(tr.counts["a.leaf.calls"], 3)
        busy = tr.busy()
        total = sum(e - s for _, s, e, p, _ in spans if p == -1)
        self.assertAlmostEqual(busy["a.outer"] + busy["a.leaf"], total)


class ReportCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp()
        _, cls.mods = run.import_opres()
        cls.ctx = run.Context(1, workloads.load_reference(),
                              os.path.join(cls.tmp, "report.json"))
        cls.job = next(j for j in workloads.WORKLOADS["compare"] if j.id == "cmp-com-4")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def test_reference_report_passes_and_sign_flip_fails(self):
        code = self.job.run(self.mods, self.ctx)
        self.assertEqual(self.job.check(code, self.ctx), [])
        with open(self.ctx.report_path) as fh:
            text = fh.read()
        # Flip the sign of one coefficient of the diagonal rescaling.
        flipped = re.sub(r'(":)1([,}])', r"\1-1\2", text, count=1)
        self.assertNotEqual(flipped, text)
        with open(self.ctx.report_path, "w") as fh:
            fh.write(flipped)
        problems = self.job.check(code, self.ctx)
        self.assertEqual(len(problems), 1)
        self.assertIn("sha256", problems[0])

    def test_semantic_checks_name_what_differs(self):
        semantic = workloads._homology_is(24, "Z")
        payload = {"ring": "Z", "by_degree": {"0": {"free": 24, "torsion": []},
                                              "1": {"free": 0, "torsion": [2]}}}
        self.assertEqual(semantic(payload), ["H_1 has torsion [2]"])
        self.assertEqual(workloads._empty("problems")({"problems": ["x"]}),
                         ["problems is ['x'], expected []"])

    def test_every_cli_job_has_a_reference_digest(self):
        ids = {j.id for jobs in workloads.WORKLOADS.values() for j in jobs}
        self.assertEqual(set(self.ctx.reference), ids - {
            "graft-com-3-3", "graft-as_ns-3-4", "confluence-com"})


class NamesTest(unittest.TestCase):
    def test_names_are_well_formed_and_match_the_spec(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, list(workloads.WORKLOADS))
        e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, run.PER_LAYER)
        every = names + [n for n, _ in e2e + layer] + workloads.all_job_ids()
        for name in every:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(set(names + [n for n, _ in e2e + layer])), len(names + e2e + layer))


class RebindTest(unittest.TestCase):
    def test_install_rebinds_everywhere_and_uninstall_restores(self):
        run.import_opres()
        mods = tracing.opres_modules()
        before = {name: dict(vars(mod)) for name, mod in mods.items()}
        sparse = mods["chain_core"].SparseMat
        methods = {k: sparse.__dict__[k] for k in ("mul", "column")}
        tr = tracing.Tracer(mods)
        originals = [before[m][p] for _, m, p, _, _ in tr.targets if "." not in p]
        tr.install()
        try:
            self.assertIs(mods["cli"].homology, mods["chain_core"].homology)
            self.assertIs(mods["chain_operads"].iso_classes, mods["trees"].iso_classes)
            self.assertIsNot(sparse.__dict__["mul"], methods["mul"])
            for name, mod in mods.items():
                for attr, value in vars(mod).items():
                    self.assertFalse(any(value is o for o in originals),
                                     f"{name}.{attr} escapes the tracer")
        finally:
            tr.uninstall()
        for name, mod in mods.items():
            now = vars(mod)
            for attr, value in before[name].items():
                self.assertIs(now[attr], value, f"{name}.{attr} not restored")
        for k, fn in methods.items():
            self.assertIs(sparse.__dict__[k], fn)


class SpeedProbeTest(unittest.TestCase):
    def test_probe_samples_and_restores_the_signal_handler(self):
        before = signal.getsignal(signal.SIGPROF)
        with speed.SpeedProbe() as probe:
            mark = probe.mark()
            end = time.process_time() + 0.2
            while time.process_time() < end:
                pass
            self.assertGreater(probe.mark() - mark, 3)
            self.assertGreater(probe.slowdown(mark), 0)
        self.assertIs(signal.getsignal(signal.SIGPROF), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))


class NoSourceTreeTest(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "homology", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
