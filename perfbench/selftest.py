"""Self-tests of the benchmark's gates and span wrappers.

    python3 perfbench/selftest.py

Runs against the checkout's src/ and takes about a second.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import unittest
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

import run  # noqa: E402
from ellrank import cli  # noqa: E402
from spans import LAYERS, Tracer, self_times  # noqa: E402
from workloads import (WORKLOADS, build, check_count_fast, check_crosscheck,  # noqa: E402
                       check_rank, projective_count)


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, code
    return json.loads(out.getvalue())


def ellrank_bindings() -> dict[tuple[str, str], object]:
    """Every ellrank module attribute holding a function LAYERS wraps."""
    originals = set()
    for module_name, attr, _ in LAYERS:
        originals.add(getattr(sys.modules[module_name], attr))
    return {(name, key): value
            for name, module in sys.modules.items()
            if name == "ellrank" or name.startswith("ellrank.")
            for key, value in vars(module).items()
            if any(value is o for o in originals)}


class ClosedForms(unittest.TestCase):
    def test_known_counts(self):
        self.assertEqual(projective_count(7), 610)
        self.assertEqual(projective_count(19), 9178)
        self.assertEqual(projective_count(17), 5220)

    def test_no_closed_form_at_three(self):
        with self.assertRaises(ValueError):
            projective_count(3)


class Gates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rank7 = run_cli(["rank", "--prime", "7"])
        cls.all7 = run_cli(["count", "--prime", "7"])
        cls.fast11 = run_cli(["count", "--method", "weierstrass-fast", "--prime", "11"])

    def test_true_reports_pass(self):
        self.assertIsNone(check_rank(7, self.rank7))
        self.assertIsNone(check_crosscheck(7, self.all7))
        self.assertIsNone(check_count_fast(11, self.fast11))

    def test_tampered_count_fails(self):
        for gate, p, report in ((check_rank, 7, self.rank7),
                                (check_crosscheck, 7, self.all7),
                                (check_count_fast, 11, self.fast11)):
            bad = copy.deepcopy(report)
            bad["counts"]["projective"] += 1
            self.assertIsNotNone(gate(p, bad))

    def test_method_disagreement_fails(self):
        bad = copy.deepcopy(self.all7)
        bad["counts"]["by_method"]["naive"]["projective"] += 1
        self.assertIsNotNone(check_crosscheck(7, bad))

    def test_tampered_rank_pipeline_fails(self):
        for path, value in ((("singular", "matches_expected"), False),
                            (("betti", "feasible_w23"), [11, 12]),
                            (("betti", "rank"), 5)):
            bad = copy.deepcopy(self.rank7)
            bad[path[0]][path[1]] = value
            self.assertIsNotNone(check_rank(7, bad), path)
        bad = copy.deepcopy(self.rank7)
        bad["sections"][0]["verified"] = False
        self.assertIsNotNone(check_rank(7, bad))

    def test_seed_fixes_order(self):
        labels = [inv.label for inv in build("rank-ladder", 5)]
        self.assertEqual(labels, [inv.label for inv in build("rank-ladder", 5)])
        self.assertEqual(sorted(labels), sorted(f"rank p={p}" for p in
                                                WORKLOADS["rank-ladder"][1]))

    def test_seconds_beyond_run_limit_refused(self):
        with self.assertRaises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", "count-fast", "--seed", "1",
                      "--seconds", str(run.RUN_LIMIT_S + 1)])


class Wrappers(unittest.TestCase):
    def test_install_and_restore(self):
        before = ellrank_bindings()
        self.assertIn(("ellrank.cli", "count_projective"), before)
        self.assertIn(("ellrank.cli", "singular_points"), before)
        with Tracer() as tracer:
            for (module, key), original in before.items():
                self.assertIsNot(getattr(sys.modules[module], key), original, (module, key))
            run_cli(["rank", "--prime", "7"])
        for (module, key), original in before.items():
            self.assertIs(getattr(sys.modules[module], key), original, (module, key))
        spans = tracer.spans()
        names = {s["name"] for s in spans}
        jacobian = [s for s in spans if s["name"] == "hodge.jacobian_ring_dim"]
        self.assertTrue(jacobian)
        for s in jacobian:  # counters worked out after the call, as numbers
            self.assertIsInstance(s["columns"], int)
            self.assertIsInstance(s["rows"], int)
        self.assertTrue({"counting.count_projective", "singular.singular_points",
                         "gridcount.common_zeros", "hodge.jacobian_ring_dim",
                         "betti.resolve", "sections.section_records"} <= names)

    def test_restores_after_error(self):
        before = ellrank_bindings()
        with self.assertRaises(RuntimeError):
            with Tracer():
                raise RuntimeError("boom")
        self.assertEqual(before, ellrank_bindings())

    def test_spans_nest(self):
        with Tracer() as tracer:
            run_cli(["count", "--prime", "19", "--method", "weierstrass-fast"])
        spans = {s["name"]: s for s in tracer.spans()}
        top = spans["counting.count_projective"]
        self.assertIsNone(top["parent"])
        self.assertEqual(spans["gridcount.value_histogram"]["parent"], top["id"])
        self.assertEqual(spans["gridcount.value_histogram"]["points"], 19**3)


class SelfTime(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
                 {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
                 {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
                 {"id": 3, "parent": 0, "start": 5.0, "end": 6.0}]
        selfs = self_times(spans)
        self.assertEqual(selfs, {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


if __name__ == "__main__":
    unittest.main()
