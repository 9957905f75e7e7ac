#!/usr/bin/env python3
"""End-to-end benchmark of chatfuzz campaigns.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench_driver (perfbench/CMakeLists.txt,
which compiles the library from ../src) into $CARGO_TARGET_DIR or .bench_build,
runs the workload in a fresh process, checks its outputs against
perfbench/expected.json and prints one line per metric, then as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run. --workload all runs every workload, each in its own
process, and prints the metrics of each. --record adds this run's outputs to
perfbench/expected.json (use it only when a change of outputs is intended,
and say so in the change).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("chatfuzz", "thehuzz")
# Settings a user may have exported that would change the configuration.
CLEARED_ENV = ("CHATFUZZ_ML_THREADS", "CHATFUZZ_WORKERS")
# Campaign-level spans of the engine's main thread; they do not nest.
ENGINE_LAYERS = ("engine.generate", "engine.sim_batch", "engine.fold",
                 "engine.feedback", "engine.checkpoint")


def driver_timeout_s(seconds):
    """The driver's time limit: the end-to-end run's campaign count grows
    with --seconds (170 s at the default of 10)."""
    return 110 + 6 * seconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def child_env():
    """The environment of the build and the driver: no inherited chatfuzz
    settings, and temporary files under the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["TMPDIR"] = tmp
    return env


def build():
    """Configure and build the driver; returns its path or None."""
    out = build_dir()
    for cmd in (["cmake", "-S", HERE, "-B", out],
                ["cmake", "--build", out, "--target", "perfbench_driver",
                 "-j", "4"]):
        if subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench_driver")


def run_driver(exe, workload, seed, seconds, trace):
    work = os.path.join(build_dir(), "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", work]
    try:
        p = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=driver_timeout_s(seconds))
        if p.returncode != 0:
            log("perfbench: driver exited with %d" % p.returncode)
            return None, work
        return json.loads(p.stdout.strip().splitlines()[-1]), work
    except (subprocess.TimeoutExpired, ValueError, IndexError) as e:
        log("perfbench: driver failed: %s" % e)
        return None, work


# ---- statistics ---------------------------------------------------------------

def tail_percentile(values):
    """(q, value): the highest whole percentile q with at least ten values
    beyond it (nearest rank), or the median when q would be below 50."""
    v = sorted(values)
    n = len(v)
    q = 100 * (n - 10) // n if n > 10 else 0
    if q <= 50:
        return 50, statistics.median(v)
    return q, v[-(-q * n // 100) - 1]


def per_call(metrics, name, unit, values, scale):
    """Median, tail percentile and call count of one per-call timing."""
    calls = len(values)
    values = [x * scale for x in values] or [0.0]
    q, tail = tail_percentile(values)
    metrics[name] = (statistics.median(values), unit)
    metrics[name + ".tail"] = (tail, unit)
    metrics[name + ".tail_q"] = (q, "%")
    metrics[name + ".calls"] = (calls, "count")


def pct(num, den):
    return 100.0 * num / den if den else 0.0


# ---- output checks ------------------------------------------------------------

def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def check_campaigns(workload, campaigns, expected, size):
    """Names of the checks each campaign fails (empty list = correct)."""
    want = expected.get(workload, {}).get("campaigns", {})
    out = []
    for c in campaigns:
        bad = []
        if c["tests"] != size or not c["completed"]:
            bad.append("ran %d of %d tests" % (c["tests"], size))
        rec = want.get(str(int(c["seed"])))
        if rec is not None and rec != c["digest"]:
            bad.append("digest %s, recorded %s" % (c["digest"], rec))
        out.append(bad)
    return out


def check_model(workload, raw, expected):
    want = expected.get("model_digest")
    got = raw.get("model_digest")
    if got is None or want is None or got == want:
        return []
    return ["%s: trained model digest %s, recorded %s" % (workload, got, want)]


# ---- trace parsing ------------------------------------------------------------

def load_trace(path):
    with open(path) as f:
        data = json.load(f)
    spans = defaultdict(list)  # name -> [(tid, start_us, dur_us)]
    for e in data.get("traceEvents", []):
        if e.get("ph") == "X":
            spans[e["name"]].append((e["tid"], e["ts"], e["dur"]))
    return spans


def load_traces(paths):
    spans = defaultdict(list)
    for path in paths:
        for name, v in load_trace(path).items():
            spans[name].extend(v)
    return spans


def extent(spans, names):
    """Seconds from the first start to the last end of the named spans."""
    ev = [(ts, ts + d) for n in names for (_, ts, d) in spans.get(n, [])]
    return (max(e for _, e in ev) - min(s for s, _ in ev)) / 1e6 if ev else 0.0


def durations(spans, name):
    return [d / 1e6 for (_, _, d) in spans.get(name, [])]


# ---- end-to-end metrics -------------------------------------------------------

def end_to_end(raw, workload):
    cs = raw["campaigns"]
    if workload == "chatfuzz":
        setup = cs[0]["setup_s"]  # stage-1/2 training, once per run
    else:
        setup = statistics.median(c["setup_s"] for c in cs)
    # A campaign that never reached the target counts with its whole wall
    # time, a lower bound of its time to the target.
    ttc = [c["time_to_cov_s"] if c["time_to_cov_s"] is not None
           else c["wall_s"] for c in cs]
    missed = sum(1 for c in cs if c["time_to_cov_s"] is None)
    if missed:
        log("perfbench: %d of %d campaigns missed the coverage target"
            % (missed, len(cs)))
    return {
        "setup_s": (setup, "s"),
        # Per campaign, so that the few campaigns whose tests run long do not
        # set the figure for the run.
        "tests_per_s": (statistics.median(
            c["tests"] / c["wall_s"] for c in cs), "1/s"),
        "time_to_cov_s": (statistics.median(ttc), "s"),
        "final_cond_cov_pct": (statistics.median(
            c["final_cond_cov_pct"] for c in cs), "%"),
        # The count of one campaign (the median one), never an average.
        "unique_mismatches": (statistics.median_low(
            c["unique_mismatches"] for c in cs), "count"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


# ---- per-layer metrics --------------------------------------------------------

def per_layer(raw):
    m = {}
    traced, untraced = raw["traced"], raw["untraced"]
    train = load_trace(raw["train_trace"])
    probes = load_trace(raw["probe_trace"])
    m["train.pretrain_s"] = (sum(durations(train, "bench.pretrain")), "s")
    m["train.cleanup_s"] = (sum(durations(train, "bench.cleanup")), "s")

    spans = load_traces(raw["traces"])
    wall = sum(c["wall_s"] for c in traced)
    tests = sum(c["tests"] for c in traced)
    counters = defaultdict(float)
    for c in traced:
        for k, v in c["counters"].items():
            counters[k] += v

    layer_s = {name: sum(durations(spans, name)) for name in ENGINE_LAYERS}
    gen = durations(spans, "bench.generate")
    ppo = durations(spans, "bench.feedback")
    m["gen.s"] = (sum(gen), "s")
    per_call(m, "gen.ms_per_batch", "ms", gen, 1e3)
    m["gen.wall_pct"] = (pct(layer_s["engine.generate"], wall), "%")
    m["gen.valid_instr_pct"] = (pct(sum(c["valid_words"] for c in traced),
                                    sum(c["words"] for c in traced)), "%")
    m["gen.new_cov_test_pct"] = (pct(sum(c["new_cov_tests"] for c in traced),
                                     tests), "%")
    m["ppo.s"] = (sum(ppo), "s")
    per_call(m, "ppo.ms_per_batch", "ms", ppo, 1e3)
    m["ppo.wall_pct"] = (pct(layer_s["engine.feedback"], wall), "%")
    per_call(m, "ml.forward_ms", "ms", durations(probes, "bench.forward"), 1e3)
    per_call(m, "ml.backward_ms", "ms", durations(probes, "bench.backward"), 1e3)

    sim_batch = layer_s["engine.sim_batch"]
    run_one = durations(spans, "sim.run_one")
    m["sim.batch_s"] = (sim_batch, "s")
    m["sim.wall_pct"] = (pct(sim_batch, wall), "%")
    per_call(m, "sim.run_one_us", "us", run_one, 1e6)
    m["sim.dut_s"] = (sum(durations(probes, "bench.replay_dut")), "s")
    m["sim.golden_s"] = (sum(durations(probes, "bench.replay_golden")), "s")
    m["sim.lockstep_s"] = (sum(durations(spans, "sim.lockstep_finish")), "s")
    instrs = counters["campaign.instrs"]
    m["sim.minstr_per_s"] = (instrs / sim_batch / 1e6 if sim_batch else 0.0,
                             "Minstr/s")
    m["sim.predecode_hit_pct"] = (pct(
        counters["sim.predecode_hits"],
        counters["sim.predecode_hits"] + counters["sim.predecode_misses"]), "%")
    m["sim.sb_hits_per_build"] = (
        counters["sim.sb_hits"] / counters["sim.sb_builds"]
        if counters["sim.sb_builds"] else 0.0, "ratio")
    m["sim.instrs_per_test"] = (instrs / tests, "instr")
    m["sim.dut_cpi"] = (counters["campaign.cycles"] / instrs if instrs else 0.0,
                        "cycles/instr")

    m["fold.s"] = (layer_s["engine.fold"], "s")
    m["fold.us_per_test"] = (layer_s["engine.fold"] / tests * 1e6, "us")
    m["fold.wall_pct"] = (pct(layer_s["engine.fold"], wall), "%")
    m["ckpt.s"] = (layer_s["engine.checkpoint"], "s")
    m["ckpt.wall_pct"] = (pct(layer_s["engine.checkpoint"], wall), "%")
    m["ckpt.bytes"] = (statistics.median(c["ckpt_bytes"] for c in traced),
                       "bytes")
    m["corpus.entries"] = (statistics.median(
        c["corpus_entries"] for c in traced), "count")
    # Campaign wall as the trace sees it: from the first engine span's start
    # to the last one's end in each campaign, so the trace export is not
    # counted as time the spans miss.
    traced_wall = sum(extent(load_trace(p), ENGINE_LAYERS)
                      for p in raw["traces"])
    m["engine.other_pct"] = (pct(traced_wall - sum(layer_s.values()),
                                 traced_wall), "%")

    untraced_wall = sum(c["wall_s"] for c in untraced)
    m["obs.trace_overhead_pct"] = (pct(wall - untraced_wall, untraced_wall), "%")
    m["obs.traced_peak_rss_mb"] = (raw["traced_peak_rss_mb"], "MB")
    m["obs.spans_dropped"] = (sum(c["counters"]["obs.spans_dropped"]
                                  for c in traced), "count")
    m.update(multidut_probe(raw))
    m["run.wall_s"] = (raw["run_wall_s"], "s")
    m["run.cpu_s"] = (raw["cpu_s"], "s")
    m["run.steal_s"] = (raw["steal_s"], "s")
    return m


def multidut_probe(raw):
    """Layers neither workload runs, from the multi-DUT probe: HyPFuzz
    campaigns on the in-order and out-of-order DUTs with periodic
    checkpoints, traced on 1 worker and on the thread pool."""
    m = {}
    one, pool = raw["probe1"], raw["probe%d" % raw["probe_pool_workers"]]
    one_spans = load_traces(raw["probe1_traces"])
    pool_spans = load_traces(raw["probe%d_traces" % raw["probe_pool_workers"]])
    tlb = sum(c["counters"]["sim.tlb_hits"] for c in one)
    tlb_all = tlb + sum(c["counters"]["sim.tlb_misses"] for c in one)
    m["multidut.tlb_hit_pct"] = (pct(tlb, tlb_all), "%")
    m["multidut.sim_batch_s"] = (sum(durations(one_spans, "engine.sim_batch")),
                                 "s")
    m["multidut.ckpt_s"] = (sum(durations(one_spans, "engine.checkpoint")), "s")
    m["multidut.corpus_entries"] = (statistics.median(
        c["corpus_entries"] for c in one), "count")
    # The thread pool: per-test simulation time summed over the workers,
    # against workers x batch wall.
    workers = raw["probe_pool_workers"]
    m["pool.workers"] = (workers, "count")
    m["pool.efficiency_pct"] = (pct(
        sum(durations(pool_spans, "sim.run_one")),
        workers * sum(durations(pool_spans, "engine.sim_batch"))), "%")
    m["pool.speedup"] = (sum(c["wall_s"] for c in one)
                         / sum(c["wall_s"] for c in pool), "ratio")
    m["multidut.traced_peak_rss_mb"] = (raw["probe_peak_rss_mb"], "MB")
    return m


# ---- one workload -------------------------------------------------------------

def check_run(workload, raw, expected, trace):
    """(problems, attempted, failed): the failed output checks of one run and
    the tests it attempted and lost to them."""
    size = int(raw["campaign_tests"])
    problems = check_model(workload, raw, expected)
    campaigns = raw["traced"] if trace else raw["campaigns"]
    bad = check_campaigns(workload, campaigns, expected, size)
    if trace:
        # Telemetry is out-of-band: traced and untraced campaigns of the same
        # seed must produce the same outputs.
        for b, t, u in zip(bad, raw["traced"], raw["untraced"]):
            if t["digest"] != u["digest"]:
                b.append("traced digest %s, untraced %s"
                         % (t["digest"], u["digest"]))
    for c, b in zip(campaigns, bad):
        problems.extend("%s seed %d: %s" % (workload, c["seed"], msg)
                        for msg in b)
    if trace:
        # The multi-DUT probe: its 1-worker campaigns against the recorded
        # outputs, and, worker count being scheduling only, its pool
        # campaigns against those (the checkpoint records the worker count,
        # so the result and corpus store are compared).
        one = raw["probe1"]
        pool = raw["probe%d" % raw["probe_pool_workers"]]
        for c, b in zip(one, check_campaigns(
                "multidut", one, expected, int(raw["probe_campaign_tests"]))):
            problems.extend("multidut probe seed %d: %s" % (c["seed"], msg)
                            for msg in b)
        for o, p in zip(one, pool):
            if o["result_digest"] != p["result_digest"]:
                problems.append(
                    "multidut probe seed %d: result digest %s on 1 worker, "
                    "%s on %d" % (o["seed"], o["result_digest"],
                                  p["result_digest"],
                                  raw["probe_pool_workers"]))
    attempted = sum(c["tests"] for c in campaigns) or 1
    failed = sum(c["tests"] for c, b in zip(campaigns, bad) if b)
    if problems and failed == 0:
        failed = attempted  # a run-level check failed: no test counts
    return problems, attempted, failed


def record(expected, workload, seed, raw, metrics):
    """Add this run's digests (and, end to end, its deterministic outputs)
    to the expected outputs."""
    rec = expected.setdefault(workload, {})
    campaigns = raw.get("campaigns") or raw["traced"]
    rec.setdefault("campaigns", {}).update(
        {str(int(c["seed"])): c["digest"] for c in campaigns})
    if "campaigns" in raw:
        rec.setdefault("seeds", {})[str(seed)] = {
            k: metrics[k][0] for k in ("final_cond_cov_pct",
                                       "unique_mismatches")}
    if raw.get("model_digest"):
        expected["model_digest"] = raw["model_digest"]
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def run_workload(exe, workload, seed, seconds, trace, record_outputs=False):
    """(correct, attempted, failed, metrics) of one run, or None if the
    driver did not complete."""
    raw, work = run_driver(exe, workload, seed, seconds, trace)
    try:
        if raw is None:
            return None
        expected = load_expected()
        problems, attempted, failed = check_run(workload, raw, expected, trace)
        for p in problems:
            log("perfbench: FAILED " + p)
        metrics = per_layer(raw) if trace else end_to_end(raw, workload)
        if record_outputs and not problems:
            record(expected, workload, seed, raw, metrics)
        print("%s seed %d: %s, %d of %d tests in failed campaigns "
              "(failed_pct %.2f %%); cpu %.2f s, steal %.2f s, wall %.2f s%s"
              % (workload, seed, "correct" if not problems else "INCORRECT",
                 failed, attempted, pct(failed, attempted), raw["cpu_s"],
                 raw["steal_s"], raw["run_wall_s"],
                 "; model %s" % raw["model_digest"]
                 if raw.get("model_digest") else ""))
        for name, (value, unit) in metrics.items():
            print("  %-28s %14.6g %s" % (name, value, unit))
        return not problems, attempted, failed, metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="add this run's outputs to perfbench/expected.json")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        r = run_workload(exe, name, args.seed, args.seconds, args.trace,
                         args.record)
        if r is None:
            return 1
        results.append(r)
    if args.workload == "all":
        return 0 if all(r[0] for r in results) else 1
    correct, attempted, failed, metrics = results[0]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
