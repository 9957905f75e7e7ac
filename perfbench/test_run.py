#!/usr/bin/env python3
"""Tests of the benchmark's own logic, on made-up driver output.

    python3 perfbench/test_run.py
"""

import json
import os
import tempfile
import unittest

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def campaign(seed, digest, tests=100, **extra):
    c = {"seed": seed, "setup_s": 0.01, "wall_s": 1.0, "tests": tests,
         "time_to_cov_s": 0.6, "final_cond_cov_pct": 70.0,
         "unique_mismatches": 5, "completed": 1, "digest": digest,
         "result_digest": "r" + digest, "ckpt_bytes": 1000.0,
         "corpus_entries": 10.0}
    c.update(extra)
    return c


def end_to_end_raw(digests):
    return {"workload": "thehuzz", "campaign_tests": 100,
            "campaigns": [campaign(1000 + k, d) for k, d in enumerate(digests)],
            "peak_rss_mb": 9.0, "run_wall_s": 3.0, "cpu_s": 3.0,
            "steal_s": 0.0}


def trace_file(directory, name, events):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump({"traceEvents": [
            {"ph": "X", "name": n, "ts": ts, "dur": dur, "tid": tid}
            for (n, ts, dur, tid) in events]}, f)
    return path


def traced_raw(directory, traced_digest="a", pool_result="rp"):
    counters = {"campaign.instrs": 5000,
                "campaign.cycles": 20000, "sim.predecode_hits": 90,
                "sim.predecode_misses": 10, "sim.tlb_hits": 0,
                "sim.tlb_misses": 0, "sim.sb_hits": 30, "sim.sb_builds": 10,
                "obs.spans_dropped": 0}
    extra = {"words": 2000, "valid_words": 1900, "new_cov_tests": 7,
             "counters": counters}
    events = [("engine.generate", 0, 100, 0), ("bench.generate", 1, 98, 0),
              ("engine.sim_batch", 100, 700, 0), ("sim.run_one", 101, 690, 0),
              ("engine.fold", 800, 100, 0), ("engine.feedback", 900, 50, 0),
              ("bench.feedback", 901, 48, 0), ("engine.checkpoint", 950, 50, 0)]
    return {
        "workload": "thehuzz", "campaign_tests": 100,
        "model_digest": "m",
        "train_trace": trace_file(directory, "train.json", [
            ("bench.pretrain", 0, 4e7, 0), ("bench.cleanup", 4e7, 4e6, 0)]),
        "untraced": [campaign(1000, "a")],
        "traced": [campaign(1000, traced_digest, **extra)],
        "traces": [trace_file(directory, "t0.json", events)],
        "probe1": [campaign(1000, "p", tests=3200, **extra)],
        "probe2": [campaign(1000, "q", tests=3200, result_digest=pool_result,
                            wall_s=0.6, **extra)],
        "probe1_traces": [trace_file(directory, "p1.json", events)],
        "probe2_traces": [trace_file(directory, "p2.json", events)],
        "probe_pool_workers": 2, "probe_campaign_tests": 3200,
        "probe_peak_rss_mb": 400.0,
        "probe_trace": trace_file(directory, "probe.json", [
            ("bench.replay_dut", 0, 500, 0), ("bench.replay_golden", 500, 100, 0),
            ("bench.forward", 600, 1e5, 0), ("bench.backward", 1e5, 2e5, 0)]),
        "traced_peak_rss_mb": 50.0, "run_wall_s": 60.0, "cpu_s": 60.0,
        "steal_s": 0.1,
    }


class OutputCheckTest(unittest.TestCase):
    def test_recorded_digests_pass(self):
        expected = {"thehuzz": {"campaigns": {"1000": "a", "1001": "b"}}}
        problems, attempted, failed = run.check_run(
            "thehuzz", end_to_end_raw(["a", "b"]), expected, trace=False)
        self.assertEqual((problems, attempted, failed), ([], 200, 0))

    def test_wrong_digest_fails_its_campaign(self):
        expected = {"thehuzz": {"campaigns": {"1000": "a", "1001": "b"}}}
        problems, attempted, failed = run.check_run(
            "thehuzz", end_to_end_raw(["a", "x"]), expected, trace=False)
        self.assertEqual(len(problems), 1)
        self.assertIn("seed 1001", problems[0])
        self.assertEqual((attempted, failed), (200, 100))

    def test_unrecorded_seed_is_not_a_failure(self):
        problems, _, failed = run.check_run(
            "thehuzz", end_to_end_raw(["a"]), {}, trace=False)
        self.assertEqual((problems, failed), ([], 0))

    def test_short_campaign_fails(self):
        raw = end_to_end_raw(["a"])
        raw["campaigns"][0]["tests"] = 90
        problems, _, failed = run.check_run("thehuzz", raw, {}, trace=False)
        self.assertEqual(len(problems), 1)
        self.assertEqual(failed, 90)

    def test_wrong_model_fails_every_test(self):
        raw = end_to_end_raw(["a"])
        raw["model_digest"] = "m2"
        problems, attempted, failed = run.check_run(
            "thehuzz", raw, {"model_digest": "m1"}, trace=False)
        self.assertEqual(len(problems), 1)
        self.assertEqual(failed, attempted)

    def test_traced_outputs_must_match_untraced(self):
        with tempfile.TemporaryDirectory() as d:
            problems, _, failed = run.check_run(
                "thehuzz", traced_raw(d, traced_digest="z"), {}, trace=True)
        self.assertEqual(len(problems), 1)
        self.assertIn("untraced", problems[0])
        self.assertEqual(failed, 100)

    def test_pool_results_must_match_one_worker(self):
        with tempfile.TemporaryDirectory() as d:
            problems, _, _ = run.check_run(
                "thehuzz", traced_raw(d, pool_result="rz"), {}, trace=True)
        self.assertEqual(len(problems), 1)
        self.assertIn("on 2", problems[0])

    def test_probe_checked_against_recorded_outputs(self):
        expected = {"multidut": {"campaigns": {"1000": "x"}}}
        with tempfile.TemporaryDirectory() as d:
            problems, _, failed = run.check_run(
                "thehuzz", traced_raw(d), expected, trace=True)
        self.assertEqual(len(problems), 1)
        self.assertIn("multidut probe seed 1000", problems[0])
        self.assertGreater(failed, 0)


class MetricsTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def units(self, key):
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def test_end_to_end_metrics_match_benchmark_json(self):
        metrics = run.end_to_end(end_to_end_raw(["a", "b", "c"]), "thehuzz")
        self.assertEqual({k: u for k, (_, u) in metrics.items()},
                         self.units("end_to_end"))
        for value, _ in metrics.values():
            self.assertNotEqual(value, 0)

    def test_per_layer_metrics_match_benchmark_json(self):
        with tempfile.TemporaryDirectory() as d:
            metrics = run.per_layer(traced_raw(d))
        self.assertEqual({k: u for k, (_, u) in metrics.items()},
                         self.units("per_layer"))
        self.assertEqual(metrics["pool.workers"][0], 2)
        self.assertAlmostEqual(metrics["engine.other_pct"][0], 0.0)

    def test_unique_mismatches_is_one_campaigns_count(self):
        raw = end_to_end_raw(["a", "b"])
        raw["campaigns"][0]["unique_mismatches"] = 4
        raw["campaigns"][1]["unique_mismatches"] = 7
        self.assertEqual(run.end_to_end(raw, "thehuzz")["unique_mismatches"][0],
                         4)

    def test_tail_percentile_leaves_ten_calls_beyond(self):
        q, tail = run.tail_percentile(list(range(1, 101)))
        self.assertEqual((q, tail), (90, 90))
        q, tail = run.tail_percentile(list(range(640)))
        self.assertEqual((q, 640 - 1 - tail >= 10), (98, True))
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (50, 2.0))

    def test_driver_timeout_grows_with_seconds(self):
        self.assertLessEqual(run.driver_timeout_s(10), 170)
        # chatfuzz at --seconds 60: ~45 s of training and 24 campaigns of
        # ~4.4 s, with room for the host to run 30% slow.
        self.assertGreater(run.driver_timeout_s(60), 1.3 * (45 + 24 * 4.4))


if __name__ == "__main__":
    unittest.main()
