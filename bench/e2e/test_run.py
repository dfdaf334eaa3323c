#!/usr/bin/env python3
"""Unit tests for run.py against a stub bench process.

  python3 bench/e2e/test_run.py
"""

import json
import os
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Stands in for bench_e2e: `ok DOC` prints noise then DOC, `crash` exits 3,
# `hang PIDFILE` forks a grandchild, records its pid, and both sleep.
STUB = r"""
import os, sys, time
mode = sys.argv[1]
if mode == "ok":
    print("progress noise")
    print(sys.argv[2])
elif mode == "crash":
    sys.exit(3)
elif mode == "hang":
    pid = os.fork()
    if pid == 0:
        time.sleep(60)
        os._exit(0)
    with open(sys.argv[2], "w") as f:
        f.write(str(pid))
    time.sleep(60)
"""


def job(phase, labels="aa", wall=1.0, ok=True, layers=None, map_ms=(),
        reduce_ms=(), steal=0.0, records=16):
    return {"phase": phase, "ok": ok, "error": "" if ok else "boom",
            "wall_s": wall, "cpu_s": 2 * wall, "steal_share": steal,
            "labels": labels if ok else "", "map_input_records": records,
            "shuffle_bytes": 100, "merged_buckets": 3, "layers": layers or {},
            "map_task_ms": list(map_ms),
            "cluster_reduce_task_ms": list(reduce_ms)}


def doc(jobs, purity=0.9):
    return {"workload": "wiki-balanced", "seed": 1, "n": 8,
            "corpus_s": [0.3, 0.1, 0.2], "probe_merged_buckets": 3,
            "probes": {"lsh.fit_ms": 1.5}, "peak_rss_mb": 50.0,
            "purity": purity, "jobs": jobs}


def alive(pid):
    """True unless the process is gone or a zombie waiting to be reaped."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(run.percentile(values, 0.99), 990)
        self.assertIsNone(run.percentile(values[:999], 0.99))

    def test_median_needs_twenty_samples(self):
        self.assertIsNone(run.percentile(list(range(19)), 0.5))
        self.assertEqual(run.percentile(list(range(20, 0, -1)), 0.5), 10)

    def test_layer_percentiles_pool_traced_jobs_only(self):
        jobs = [job("warmup", map_ms=[1e6] * 50),
                job("traced", map_ms=range(500), reduce_ms=range(60)),
                job("traced", map_ms=range(500, 1000),
                    reduce_ms=range(60, 120))]
        out = run.layers(doc(jobs))
        self.assertEqual(out["mapreduce.map_task_ms_p50"], 499)
        self.assertEqual(out["mapreduce.map_task_ms_p99"], 989)
        self.assertEqual(out["mapreduce.clustering_reduce_task_ms_p90"], 107)
        self.assertNotIn("bench.trace_overhead_ratio", out)  # no base


class Layers(unittest.TestCase):
    def test_medians_probes_overhead_and_absent(self):
        jobs = [job("warmup", wall=9.0), job("timed", wall=2.0),
                job("traced", wall=2.2, layers={"core.gram_mb": 4.0}),
                job("timed", wall=2.0),
                job("traced", wall=2.6, layers={"core.gram_mb": 6.0})]
        out = run.layers(doc(jobs))
        self.assertEqual(out["core.gram_mb"], 5.0)
        self.assertEqual(out["lsh.fit_ms"], 1.5)
        self.assertEqual(out["data.corpus_s"], 0.2)
        self.assertEqual(out["lsh.merged_buckets"], 3)
        self.assertAlmostEqual(out["bench.trace_overhead_ratio"], 1.2)
        self.assertNotIn("ipc.pulls", out)


class StealFilter(unittest.TestCase):
    def test_disturbed_jobs_leave_the_medians(self):
        jobs = [job("warmup"), job("timed", wall=1.0), job("timed", wall=1.2),
                job("timed", wall=5.0, steal=0.3),
                job("timed", wall=6.0, steal=0.3)]
        result = run.evaluate("wiki-balanced", doc(jobs), None)
        self.assertAlmostEqual(result["end_to_end"]["job_s"], 1.1)
        self.assertAlmostEqual(result["end_to_end"]["cpu_s"], 2.2)
        self.assertEqual((result["samples"], result["disturbed"]), (2, 2))

    def test_all_jobs_kept_when_fewer_than_two_are_clean(self):
        jobs = [job("warmup"), job("timed", wall=1.0),
                job("timed", wall=5.0, steal=0.3),
                job("timed", wall=6.0, steal=0.3)]
        result = run.evaluate("wiki-balanced", doc(jobs), None)
        self.assertEqual(result["end_to_end"]["job_s"], 5.0)
        self.assertEqual(result["samples"], 3)


class Bounds(unittest.TestCase):
    def test_relative_lower_is_better(self):
        self.assertFalse(run.regressed(1.0, 1.09, 0.1, "lower"))
        self.assertTrue(run.regressed(1.0, 1.11, 0.1, "lower"))
        self.assertFalse(run.regressed(1.0, 0.5, 0.1, "lower"))

    def test_relative_higher_is_better(self):
        self.assertTrue(run.regressed(100.0, 89.0, 0.1, "higher"))
        self.assertFalse(run.regressed(100.0, 91.0, 0.1, "higher"))
        self.assertFalse(run.regressed(100.0, 150.0, 0.1, "higher"))

    def test_absolute_bounds(self):
        self.assertTrue(run.regressed(0.9, 0.894, 0.005, "higher", True))
        self.assertFalse(run.regressed(0.9, 0.896, 0.005, "higher", True))
        self.assertTrue(run.regressed(0.0, 0.01, 0.0, "lower", True))
        self.assertFalse(run.regressed(0.0, 0.0, 0.0, "lower", True))

    def test_compare_uses_benchmark_bounds(self):
        spec = {"end_to_end": [
            {"name": "job_s", "bound": 0.1, "better": "lower"},
            {"name": "purity", "bound": 0.5, "better": "higher"}]}

        def summary(job_s, purity):
            e2e = {"job_s": run.summarize([job_s]),
                   "purity": run.summarize([purity]),
                   "job_failure_ratio": run.summarize([0.0])}
            return {"workloads": {"wiki-coarse": {"end_to_end": e2e}}}

        base = summary(2.0, 0.80)
        self.assertEqual(run.compare(base, summary(2.1, 0.799), spec), [])
        messages = run.compare(base, summary(2.3, 0.79), spec)
        self.assertEqual(len(messages), 2)
        self.assertIn("job_s", messages[0])
        self.assertIn("purity", messages[1])

    def test_summarize_quartiles(self):
        stats = run.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
        self.assertEqual((stats["median"], stats["n"]), (3.0, 5))
        self.assertLess(stats["q1"], 3.0)
        self.assertGreater(stats["q3"], 3.0)


class Gates(unittest.TestCase):
    def evaluate(self, jobs, workload="wiki-balanced", **kwargs):
        return run.evaluate(workload, doc(jobs, **kwargs), None)

    def test_healthy_run(self):
        result = self.evaluate([job("warmup"), job("timed"), job("timed")])
        self.assertEqual(result["failures"], [])
        self.assertEqual((result["attempted"], result["failed"]), (3, 0))
        self.assertEqual(result["end_to_end"]["job_failure_ratio"], 0.0)

    def test_setup_is_the_median_set_up(self):
        jobs = [job("warmup", wall=1.0), job("warmup", wall=4.0),
                job("warmup", wall=2.0), job("timed")]
        result = self.evaluate(jobs)  # set-ups 0.3+1.0, 0.1+4.0, 0.2+2.0
        self.assertAlmostEqual(result["end_to_end"]["setup_s"], 2.2)

    def test_label_mismatch_between_reps(self):
        result = self.evaluate([job("warmup"), job("timed"),
                                job("timed", labels="bb")])
        self.assertEqual(result["failed"], 1)
        self.assertIn("labels", result["failures"][0])
        self.assertAlmostEqual(result["end_to_end"]["job_failure_ratio"],
                               1 / 3)

    def test_mismatch_with_verify_reference(self):
        jobs = [job("warmup"), job("timed"), job("timed"),
                job("verify", labels="cc")]
        result = self.evaluate(jobs, workload="wiki-balanced-mp")
        self.assertEqual(result["failed"], 3)

    def test_counter_and_probe_mismatch(self):
        other = job("timed")
        other["merged_buckets"] = 4
        result = self.evaluate([job("warmup"), job("timed", records=15),
                                other])
        self.assertEqual(result["failed"], 2)

    def test_failed_job_and_purity_floor(self):
        result = self.evaluate([job("warmup"), job("timed", ok=False)])
        self.assertEqual(result["failed"], 1)
        result = self.evaluate([job("warmup", records=0),
                                job("timed", records=0)],
                               workload="wiki-coarse", purity=0.1)
        self.assertEqual(result["failed"], 2)
        self.assertEqual(len(result["failures"]), 1)
        self.assertIn("purity", result["failures"][0])


class StubProcess(unittest.TestCase):
    def stub(self, *args):
        return [sys.executable, "-c", STUB] + list(args)

    def test_output_parsing(self):
        self.assertIsNone(run.parse_output(""))
        self.assertIsNone(run.parse_output("not json\n"))
        self.assertIsNone(run.parse_output('[1, 2]\n'))
        self.assertEqual(run.parse_output('x\n{"jobs": []}\n\n'),
                         {"jobs": []})
        text = json.dumps(doc([job("warmup"), job("timed")]))
        parsed, error = run.run_bench(self.stub("ok", text), cwd=".")
        self.assertIsNone(error)
        self.assertEqual(parsed["purity"], 0.9)

    def test_crash_counts_as_failed_job(self):
        parsed, error = run.run_bench(self.stub("crash"), cwd=".")
        self.assertIsNone(parsed)
        self.assertIn("code 3", error)
        result = run.evaluate("wiki-spill", parsed, error)
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))
        self.assertEqual(result["end_to_end"]["job_failure_ratio"], 1.0)

    def test_timeout_kills_the_process_group(self):
        with tempfile.TemporaryDirectory() as tmp:
            pidfile = os.path.join(tmp, "pid")
            start = time.monotonic()
            parsed, error = run.run_bench(self.stub("hang", pidfile),
                                          limit=2, cwd=".")
            self.assertLess(time.monotonic() - start, 20)
            self.assertIsNone(parsed)
            self.assertIn("timed out", error)
            with open(pidfile) as f:
                grandchild = int(f.read())
            deadline = time.monotonic() + 5
            while alive(grandchild) and time.monotonic() < deadline:
                time.sleep(0.05)
            self.assertFalse(alive(grandchild))


if __name__ == "__main__":
    unittest.main()
