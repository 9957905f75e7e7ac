// Campaign-throughput bench: end-to-end tests/sec through the fuzzing hot
// path — co-simulate, compare, fold — for the streaming engine versus an
// in-tree replica of the pre-streaming (seed) per-test pipeline, on the
// same seed, programs, and config. Emits ONE line of JSON on stdout so
// successive runs append to a BENCH_*.json trajectory file:
//
//   ./bench_campaign_throughput [--smoke] >> BENCH_campaign.json
//
// --smoke (or CHATFUZZ_SMOKE=1) shrinks the campaign to CI size; the
// numbers still print but only prove the harness runs.
//
// --trace <file> switches to the telemetry-overhead comparison: the same
// single-worker campaign with tracing + stats export off vs on (spans
// recorded to per-thread rings, Chrome trace JSON written to <file>, NDJSON
// to <file>.ndjson). Campaign results must be bit-identical both ways
// (parity_ok) — telemetry is out-of-band by contract — and the JSON line
// reports trace_overhead_percent, which CI holds under its budget. One line
// of JSON, schema "trace_overhead", for BENCH_trace_overhead.json; the
// exported <file> doubles as the Perfetto-loadable artifact.
//
// --dut <list> (e.g. --dut inorder,ooo) switches to the multi-DUT
// comparison: tests/sec for the listed backend set vs the primary backend
// alone, plus a 1-worker vs all-cores bit-identity check on the multi-DUT
// totals. One line of JSON, schema "multidut_campaign", for
// BENCH_multidut.json.
//
// The seed replica reproduces, faithfully and with the public API, what
// the engine did per test before this optimization pass:
//   * full O(all bins) clears of the worker shard (hit counters + per-test
//     set) before every test;
//   * both simulators run to completion with materialized commit traces,
//     copied again into RunResult;
//   * the golden model always executes its full run, even when the DUT
//     trace ended early;
//   * two-trace MismatchDetector::compare over the materialized traces;
//   * full O(all bins) scans for the per-test coverage slice and for the
//     before/after covered counts of the fold;
//   * fresh per-test vector allocations for every artifact.
// The streaming engine replaces all of that with commit sinks, the
// lockstep comparator, dirty-bin journals and pooled artifacts; both
// pipelines must end with identical coverage and mismatch totals
// (parity_ok), or the comparison is void.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "baselines/mutational.h"
#include "core/campaign.h"
#include "coverage/cover.h"
#include "coverage/merge.h"
#include "isasim/sim.h"
#include "mismatch/detect.h"
#include "rtlsim/core.h"
#include "rtlsim/dut.h"

using namespace chatfuzz;

namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SeedRunTotals {
  std::size_t tests = 0;
  std::uint64_t cycles = 0;
  std::size_t covered_bins = 0;
  std::size_t universe_bins = 0;
  std::size_t raw_mismatches = 0;
  double seconds = 0.0;
};

/// The pre-streaming per-test pipeline (see the header comment), run
/// sequentially like the engine's single-worker inline path.
SeedRunTotals run_seed_replica(const core::CampaignConfig& cfg,
                               std::uint64_t gen_seed) {
  baselines::RandomFuzzer gen(gen_seed);
  cov::CoverageDB wdb;  // worker shard
  rtl::CoreConfig seed_core = cfg.core;
  // The seed DUT walked every opcode-indexed comparator chain on every
  // instruction (the layout-proportional cost this PR removes).
  seed_core.deferred_select_chains = false;
  rtl::RtlCore dut(seed_core, wdb, cfg.platform);
  sim::IsaSim golden(cfg.platform);
  mismatch::MismatchDetector det;
  det.install_default_filters();
  cov::CoverageDB agg;  // coordinator DB (same layout via a registrar core)
  { rtl::RtlCore registrar(cfg.core, agg, cfg.platform); }
  cov::CtrlRegCoverage ctrl;
  mismatch::MismatchDetector tally;
  // The seed's reset_hits() was a std::fill over every hit counter and
  // every per-test flag; the journaled DB no longer exposes that cost, so
  // the replica pays it on same-shape shadow buffers.
  std::vector<std::uint64_t> shadow_hits(wdb.num_bins(), 0);
  std::vector<std::uint8_t> shadow_test(wdb.num_bins(), 0);

  SeedRunTotals totals;
  const double t0 = now_sec();
  while (totals.tests < cfg.num_tests) {
    const std::size_t want =
        std::min(cfg.batch_size, cfg.num_tests - totals.tests);
    const std::vector<core::Program> batch = gen.next_batch(want);
    for (const core::Program& prog : batch) {
      std::fill(shadow_hits.begin(), shadow_hits.end(), 0);
      std::fill(shadow_test.begin(), shadow_test.end(), 0);
      wdb.reset_hits();
      dut.ctrl_cov().begin_test();
      std::vector<std::uint64_t> ctrl_states;
      dut.ctrl_cov().set_recorder(&ctrl_states);
      dut.reset(prog);
      const sim::RunResult dr = dut.run();  // materialized + copied trace
      dut.ctrl_cov().set_recorder(nullptr);

      std::vector<cov::BinDelta> cond;  // fresh allocation, as the seed did
      for (std::size_t bin = 0; bin < wdb.num_bins(); ++bin) {
        const std::uint64_t h = wdb.bin_hits(bin);
        if (h != 0) cond.push_back({static_cast<std::uint32_t>(bin), h});
      }

      golden.reset(prog);
      const sim::RunResult gr = golden.run();  // always the full golden run
      const mismatch::Report rep = det.compare(dr.trace, gr.trace);

      // Fold with the seed's full-scan covered counts.
      std::size_t before = 0;
      for (std::size_t bin = 0; bin < agg.num_bins(); ++bin) {
        before += agg.bin_hits(bin) != 0 ? 1 : 0;
      }
      cov::apply_bins(agg, cond);
      std::size_t after = 0;
      for (std::size_t bin = 0; bin < agg.num_bins(); ++bin) {
        after += agg.bin_hits(bin) != 0 ? 1 : 0;
      }
      (void)before;
      ctrl.begin_test();
      for (const std::uint64_t s : ctrl_states) ctrl.observe(s);
      tally.accumulate(rep);
      totals.cycles += dut.cycles();
      totals.covered_bins = after;
      ++totals.tests;
    }
  }
  totals.seconds = now_sec() - t0;
  totals.universe_bins = agg.num_bins();
  totals.raw_mismatches = tally.total_raw();
  return totals;
}

/// --trace mode: telemetry overhead — identical campaign with telemetry off
/// vs on, interleaved pairs, best-of wall times (the ratio is the payload;
/// min damps scheduler noise).
int run_trace_overhead_bench(bool smoke, const char* trace_path) {
  core::CampaignConfig cfg;
  cfg.num_tests = smoke ? 96 : 1024;
  cfg.batch_size = 32;
  cfg.num_workers = 1;  // per-pipeline cost, no threading
  cfg.checkpoint_every = 100;
  cfg.platform.max_steps = 2048;
  const std::uint64_t kGenSeed = 7;

  const auto timed = [&](const core::CampaignConfig& c, double* seconds) {
    baselines::RandomFuzzer gen(kGenSeed);
    const double t0 = now_sec();
    const core::CampaignResult r = core::run_campaign(gen, c);
    *seconds = now_sec() - t0;
    return r;
  };

  // Warm the pipeline before any timed run.
  {
    core::CampaignConfig warm = cfg;
    warm.num_tests = smoke ? 32 : 128;
    double ignored = 0.0;
    timed(warm, &ignored);
  }

  core::CampaignConfig traced_cfg = cfg;
  traced_cfg.trace_path = trace_path;
  traced_cfg.stats_path = std::string(trace_path) + ".ndjson";
  traced_cfg.stats_every_ms = 0;  // worst case: NDJSON line every batch

  double dt_plain = 1e30, dt_traced = 1e30;
  core::CampaignResult plain, traced;
  const int rounds = smoke ? 1 : 3;
  for (int i = 0; i < rounds; ++i) {
    double dt = 0.0;
    plain = timed(cfg, &dt);
    dt_plain = std::min(dt_plain, dt);
    traced = timed(traced_cfg, &dt);
    dt_traced = std::min(dt_traced, dt);
  }

  // Telemetry is out-of-band by contract: every architectural total must
  // match bit-for-bit or the overhead number is meaningless.
  const bool parity_ok =
      traced.tests_run == plain.tests_run &&
      traced.final_cov_percent == plain.final_cov_percent &&
      traced.total_cycles == plain.total_cycles &&
      traced.total_instrs == plain.total_instrs &&
      traced.raw_mismatches == plain.raw_mismatches &&
      traced.filtered_mismatches == plain.filtered_mismatches &&
      traced.unique_mismatches == plain.unique_mismatches;

  const double tps_plain = static_cast<double>(plain.tests_run) / dt_plain;
  const double tps_traced = static_cast<double>(traced.tests_run) / dt_traced;
  std::printf(
      "{\"bench\":\"trace_overhead\",\"smoke\":%s,"
      "\"tests\":%zu,\"workers\":1,"
      "\"tests_per_sec\":%.1f,\"wall_seconds\":%.3f,"
      "\"tests_per_sec_traced\":%.1f,\"wall_seconds_traced\":%.3f,"
      "\"trace_overhead_percent\":%.2f,"
      "\"final_cov_percent\":%.4f,\"parity_ok\":%s}\n",
      smoke ? "true" : "false", plain.tests_run, tps_plain, dt_plain,
      tps_traced, dt_traced, 100.0 * (dt_traced / dt_plain - 1.0),
      plain.final_cov_percent, parity_ok ? "true" : "false");
  return parity_ok ? 0 : 1;
}

/// --dut mode: multi-DUT campaign throughput — every generated test runs on
/// each listed backend against one golden model. Reports tests/sec for the
/// DUT list vs a single-DUT (primary-only) run on the same programs, plus a
/// topology parity check: the multi-DUT campaign at 1 worker and at
/// hardware concurrency must produce bit-identical totals. One line of
/// JSON, schema "multidut_campaign", for BENCH_multidut.json.
int run_multidut_bench(bool smoke, const char* dut_list) {
  core::CampaignConfig cfg;
  cfg.num_tests = smoke ? 64 : 512;
  cfg.batch_size = 32;
  cfg.num_workers = 1;
  cfg.checkpoint_every = 100;
  const std::uint64_t kGenSeed = 7;

  std::string list(dut_list);
  for (std::size_t pos = 0; pos <= list.size();) {
    const std::size_t comma = list.find(',', pos);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    rtl::CoreConfig c;
    if (!rtl::dut_preset(list.substr(pos, end - pos), c)) {
      std::fprintf(stderr, "unknown --dut backend in \"%s\"\n", dut_list);
      return 2;
    }
    cfg.duts.push_back(c);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (cfg.duts.empty()) {
    std::fprintf(stderr, "--dut needs at least one backend\n");
    return 2;
  }

  const auto timed = [&](const core::CampaignConfig& c, double* seconds) {
    baselines::RandomFuzzer gen(kGenSeed);
    const double t0 = now_sec();
    const core::CampaignResult r = core::run_campaign(gen, c);
    *seconds = now_sec() - t0;
    return r;
  };

  // Warm every backend before any timed run.
  {
    core::CampaignConfig warm = cfg;
    warm.num_tests = smoke ? 16 : 128;
    double ignored = 0.0;
    timed(warm, &ignored);
  }

  // Primary-only baseline on the identical program stream.
  core::CampaignConfig single = cfg;
  single.core = cfg.duts.front();
  single.duts.clear();
  double dt_single = 0.0;
  const core::CampaignResult base = timed(single, &dt_single);

  double dt_multi = 0.0;
  const core::CampaignResult multi = timed(cfg, &dt_multi);

  // Deployment number + the topology half of the determinism contract:
  // every total must match the 1-worker run bit-for-bit.
  core::CampaignConfig mt_cfg = cfg;
  mt_cfg.num_workers = 0;
  double dt_mt = 0.0;
  const core::CampaignResult mt = timed(mt_cfg, &dt_mt);
  const bool parity_ok = mt.tests_run == multi.tests_run &&
                         mt.final_cov_percent == multi.final_cov_percent &&
                         mt.total_cycles == multi.total_cycles &&
                         mt.total_instrs == multi.total_instrs &&
                         mt.raw_mismatches == multi.raw_mismatches &&
                         mt.filtered_mismatches == multi.filtered_mismatches &&
                         mt.unique_mismatches == multi.unique_mismatches;

  std::printf(
      "{\"bench\":\"multidut_campaign\",\"smoke\":%s,"
      "\"duts\":\"%s\",\"num_duts\":%zu,\"tests\":%zu,"
      "\"tests_per_sec\":%.1f,\"wall_seconds\":%.3f,"
      "\"tests_per_sec_single\":%.1f,\"wall_seconds_single\":%.3f,"
      "\"multidut_overhead\":%.2f,"
      "\"tests_per_sec_mt\":%.1f,\"mt_workers\":%u,"
      "\"final_cov_percent\":%.4f,\"raw_mismatches\":%zu,"
      "\"unique_mismatches\":%zu,\"parity_ok\":%s}\n",
      smoke ? "true" : "false", dut_list, cfg.duts.size(), multi.tests_run,
      static_cast<double>(multi.tests_run) / dt_multi, dt_multi,
      static_cast<double>(base.tests_run) / dt_single, dt_single,
      dt_multi / dt_single,
      static_cast<double>(mt.tests_run) / dt_mt,
      static_cast<unsigned>(std::thread::hardware_concurrency()),
      multi.final_cov_percent, multi.raw_mismatches, multi.unique_mismatches,
      parity_ok ? "true" : "false");
  return parity_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* env_smoke = std::getenv("CHATFUZZ_SMOKE");
  bool smoke = env_smoke != nullptr && std::strcmp(env_smoke, "0") != 0;
  const char* dut_list = nullptr;
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--dut") == 0 && i + 1 < argc) {
      dut_list = argv[++i];
    }
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }
  if (trace_path != nullptr) return run_trace_overhead_bench(smoke, trace_path);
  if (dut_list != nullptr) return run_multidut_bench(smoke, dut_list);

  core::CampaignConfig cfg;
  cfg.num_tests = smoke ? 64 : 1280;
  cfg.batch_size = 32;
  cfg.num_workers = 1;  // apples-to-apples: per-pipeline cost, no threading
  cfg.checkpoint_every = 100;
  const std::uint64_t kGenSeed = 7;

  // Warm both pipelines (page faults, allocator pools, branch history)
  // before any timed run, so neither side absorbs the process cold start.
  {
    core::CampaignConfig warm = cfg;
    warm.num_tests = smoke ? 32 : 128;
    baselines::RandomFuzzer warm_gen(kGenSeed);
    core::run_campaign(warm_gen, warm);
    run_seed_replica(warm, kGenSeed);
  }

  // Seed replica on the identical program stream.
  const SeedRunTotals seed = run_seed_replica(cfg, kGenSeed);

  // Streaming engine.
  baselines::RandomFuzzer gen(kGenSeed);
  const double t0 = now_sec();
  const core::CampaignResult res = core::run_campaign(gen, cfg);
  const double dt_fast = now_sec() - t0;

  // Streaming engine again at hardware concurrency: the deployment number.
  core::CampaignConfig mt_cfg = cfg;
  mt_cfg.num_workers = 0;
  baselines::RandomFuzzer mt_gen(kGenSeed);
  const double t1 = now_sec();
  const core::CampaignResult mt_res = core::run_campaign(mt_gen, mt_cfg);
  const double dt_mt = now_sec() - t1;

  const double tps_fast = static_cast<double>(res.tests_run) / dt_fast;
  const double tps_seed = static_cast<double>(seed.tests) / seed.seconds;
  const double tps_mt = static_cast<double>(mt_res.tests_run) / dt_mt;
  // Parity: both pipelines saw the same programs, so coverage and raw
  // mismatch totals must agree (the curve percent is covered/universe).
  const double seed_cov_percent =
      seed.universe_bins == 0
          ? 0.0
          : 100.0 * static_cast<double>(seed.covered_bins) /
                static_cast<double>(seed.universe_bins);
  const bool parity_ok =
      res.raw_mismatches == seed.raw_mismatches &&
      res.total_cycles == seed.cycles &&
      res.final_cov_percent == seed_cov_percent &&
      mt_res.raw_mismatches == seed.raw_mismatches &&
      mt_res.final_cov_percent == res.final_cov_percent;

  std::printf(
      "{\"bench\":\"campaign_throughput\",\"smoke\":%s,"
      "\"tests\":%zu,\"workers\":1,"
      "\"tests_per_sec\":%.1f,\"cycles_per_sec\":%.0f,"
      "\"wall_seconds\":%.3f,"
      "\"tests_per_sec_seed\":%.1f,\"wall_seconds_seed\":%.3f,"
      "\"campaign_speedup\":%.2f,"
      "\"tests_per_sec_mt\":%.1f,\"mt_workers\":%u,"
      "\"final_cov_percent\":%.4f,\"raw_mismatches\":%zu,"
      "\"parity_ok\":%s}\n",
      smoke ? "true" : "false", res.tests_run,
      tps_fast, static_cast<double>(res.total_cycles) / dt_fast, dt_fast,
      tps_seed, seed.seconds, tps_fast / tps_seed, tps_mt,
      static_cast<unsigned>(std::thread::hardware_concurrency()),
      res.final_cov_percent, res.raw_mismatches,
      parity_ok ? "true" : "false");
  return parity_ok ? 0 : 1;
}
