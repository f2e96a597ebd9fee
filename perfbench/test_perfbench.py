#!/usr/bin/env python3
"""The benchmark's own tests: the API-surface guard and the metric lists.

    python3 perfbench/test_perfbench.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import api_surface  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


class ApiSurfaceTest(unittest.TestCase):
    def test_benchmark_sources_pass(self):
        self.assertEqual(
            api_surface.violations(Path(__file__).resolve().parent), [])

    def test_internal_header_is_rejected(self):
        found = api_surface.source_violations(
            "node.cc", '#include "core/fd_graph.h"\n')
        self.assertTrue(any("core/fd_graph.h" in v for v in found))

    def test_option_knobs_are_rejected(self):
        for snippet in ("options.use_precheck = false;",
                        "options.use_covers = false;",
                        "options.use_pivot = false;",
                        "options.use_tractable_fragments = false;",
                        "m.enable_template_batching = false;",
                        "SteadyStateOptions s;",
                        "options.algorithm = DcSatAlgorithm::kNaive;",
                        "engine.Check(q, engine.Analyze(q), options);"):
            with self.subTest(snippet=snippet):
                self.assertNotEqual(
                    api_surface.source_violations("node.cc", snippet), [])

    def test_num_threads_and_kauto_are_allowed(self):
        self.assertEqual(api_surface.source_violations(
            "node.cc",
            "options.num_threads = 1; DcSatAlgorithm a = DcSatAlgorithm::kAuto;"),
            [])

    def test_comments_are_ignored(self):
        self.assertEqual(api_surface.source_violations(
            "node.cc", "// never call CheckPrepared or use FdGraph\n"), [])

    def test_unknown_source_is_flagged(self):
        self.assertNotEqual(api_surface.source_violations("extra.cc", ""), [])


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_matches_the_reported_metrics(self):
        spec = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
            .read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, unit, better, _ in layers.METRICS])
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))
        self.assertEqual(sorted(run.REPEAT_SECONDS), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
