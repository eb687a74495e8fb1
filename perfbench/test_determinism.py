#!/usr/bin/env python3
"""Determinism self-test for the padx benchmark.

    python3 perfbench/test_determinism.py

Run it from the root of a padx checkout (it builds through run.py). It
checks that:
  * the same seed gives identical inputs (--describe), identical counts
    (search.* and lint.findings from a traced run) and identical
    cost_vs_pad;
  * a different seed changes the search kernel order and the daemon
    request mix.
The traced runs use --passes 2 so the test takes about a minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that must repeat exactly for a seed. Times are excluded.
SEARCH_COUNTS = ["search.exact_evals", "search.generated",
                 "search.duplicates", "search.pruned_static",
                 "search.prescreen_skipped", "search.rounds",
                 "search.restarts", "search.eval_ratio",
                 "search.improve_ratio", "cost_vs_pad",
                 "exec.trace_maccesses", "exec.batch_width",
                 "pipeline.cache_hits", "pipeline.cache_misses",
                 "analysis.unscored_nests", "error_rate"]
DAEMON_COUNTS = ["lint.findings", "analysis.unscored_nests", "error_rate"]


def bench(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + list(args)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode:
        raise AssertionError(f"{' '.join(cmd)} failed:\n{out.stderr}")
    return out.stdout.strip().splitlines()


def describe(workload, seed):
    return json.loads(bench("--workload", workload, "--seed", str(seed),
                            "--describe")[-1])


def traced(workload, seed):
    lines = bench("--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", "1", "--passes", "2")
    result = json.loads(lines[-1])
    assert result["correct"], result
    return {k: v["value"] for k, v in result["metrics"].items()}


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in ("search-l1", "daemon-lint"):
            self.assertEqual(describe(workload, 7), describe(workload, 7),
                             workload)

    def test_other_seed_changes_kernel_order(self):
        order = lambda s: [k["kernel"] for k in
                           describe("search-l1", s)["searches"]]
        self.assertNotEqual(order(1), order(2))

    def test_other_seed_changes_request_mix(self):
        a, b = describe("daemon-lint", 1), describe("daemon-lint", 2)
        self.assertNotEqual(a["clients"], b["clients"])
        self.assertNotEqual(a["frames_digest"], b["frames_digest"])

    def test_same_seed_same_search_counts(self):
        a, b = traced("search-l1", 3), traced("search-l1", 3)
        for name in SEARCH_COUNTS:
            self.assertEqual(a[name], b[name], name)
        self.assertGreater(a["search.exact_evals"], 0)

    def test_same_seed_same_lint_findings(self):
        a, b = traced("daemon-lint", 3), traced("daemon-lint", 3)
        for name in DAEMON_COUNTS:
            self.assertEqual(a[name], b[name], name)
        self.assertGreater(a["lint.findings"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
