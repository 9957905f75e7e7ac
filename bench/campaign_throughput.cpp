// Campaign-throughput bench: end-to-end tests/sec through the fuzzing hot
// path — co-simulate, compare, fold — for the streaming engine at one
// worker and at hardware concurrency, on the same seed and programs. Both
// runs must end with identical coverage, cycle and mismatch totals
// (parity_ok), or the numbers are void. Emits ONE line of JSON on stdout so
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
// reports trace_overhead_percent, the median traced/untraced wall ratio
// over interleaved pairs, which CI holds under its budget. One line
// of JSON, schema "trace_overhead", for BENCH_trace_overhead.json; the
// exported <file> doubles as the Perfetto-loadable artifact.
//
// --dut <list> (e.g. --dut inorder,ooo) switches to the multi-DUT
// comparison: tests/sec for the listed backend set vs the primary backend
// alone, plus a 1-worker vs all-cores bit-identity check on the multi-DUT
// totals. One line of JSON, schema "multidut_campaign", for
// BENCH_multidut.json.
//
// Any other argument, or --trace/--dut without a value, prints a usage line
// and exits 2.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "baselines/mutational.h"
#include "core/campaign.h"
#include "rtlsim/dut.h"

using namespace chatfuzz;

namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every mode fuzzes the same program stream.
constexpr std::uint64_t kGenSeed = 7;

/// One random-fuzzer campaign from kGenSeed; its wall time goes to *seconds.
core::CampaignResult timed_campaign(const core::CampaignConfig& c,
                                    double* seconds) {
  baselines::RandomFuzzer gen(kGenSeed);
  const double t0 = now_sec();
  const core::CampaignResult r = core::run_campaign(gen, c);
  *seconds = now_sec() - t0;
  return r;
}

/// Every architectural total of two runs of the same campaign agrees.
bool same_totals(const core::CampaignResult& a, const core::CampaignResult& b) {
  return a.tests_run == b.tests_run &&
         a.final_cov_percent == b.final_cov_percent &&
         a.total_cycles == b.total_cycles &&
         a.total_instrs == b.total_instrs &&
         a.raw_mismatches == b.raw_mismatches &&
         a.filtered_mismatches == b.filtered_mismatches &&
         a.unique_mismatches == b.unique_mismatches;
}

/// Median of `v` (sorts it).
double median(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// --trace mode: telemetry overhead — the identical campaign with telemetry
/// off and on, run as interleaved pairs whose order alternates (off/on,
/// then on/off) so a drift in host speed cancels. The overhead is the
/// median of the per-pair wall-time ratios. A smoke round is ~10 ms a side,
/// where host noise is far larger than the 3% budget, so smoke mode takes
/// enough pairs for the median to resolve it.
int run_trace_overhead_bench(bool smoke, const char* trace_path) {
  core::CampaignConfig cfg;
  cfg.num_tests = smoke ? 96 : 1024;
  cfg.batch_size = 32;
  cfg.num_workers = 1;  // per-pipeline cost, no threading
  cfg.checkpoint_every = 100;
  cfg.platform.max_steps = 2048;

  // Warm the pipeline before any timed run.
  {
    core::CampaignConfig warm = cfg;
    warm.num_tests = smoke ? 32 : 128;
    double ignored = 0.0;
    timed_campaign(warm, &ignored);
  }

  core::CampaignConfig traced_cfg = cfg;
  traced_cfg.trace_path = trace_path;
  traced_cfg.stats_path = std::string(trace_path) + ".ndjson";
  traced_cfg.stats_every_ms = 0;  // worst case: NDJSON line every batch

  const int pairs = smoke ? 61 : 9;
  std::vector<double> walls_plain, walls_traced, ratios;
  core::CampaignResult plain, traced;
  for (int i = 0; i < pairs; ++i) {
    double dt_plain = 0.0, dt_traced = 0.0;
    if (i % 2 == 0) {
      plain = timed_campaign(cfg, &dt_plain);
      traced = timed_campaign(traced_cfg, &dt_traced);
    } else {
      traced = timed_campaign(traced_cfg, &dt_traced);
      plain = timed_campaign(cfg, &dt_plain);
    }
    walls_plain.push_back(dt_plain);
    walls_traced.push_back(dt_traced);
    ratios.push_back(dt_traced / dt_plain);
  }
  const double dt_plain = median(walls_plain);
  const double dt_traced = median(walls_traced);
  const double overhead = 100.0 * (median(ratios) - 1.0);

  // Telemetry is out-of-band by contract: every architectural total must
  // match bit-for-bit or the overhead number is meaningless.
  const bool parity_ok = same_totals(traced, plain);

  const double tps_plain = static_cast<double>(plain.tests_run) / dt_plain;
  const double tps_traced = static_cast<double>(traced.tests_run) / dt_traced;
  std::printf(
      "{\"bench\":\"trace_overhead\",\"smoke\":%s,"
      "\"tests\":%zu,\"workers\":1,\"pairs\":%d,"
      "\"tests_per_sec\":%.1f,\"wall_seconds\":%.4f,"
      "\"tests_per_sec_traced\":%.1f,\"wall_seconds_traced\":%.4f,"
      "\"trace_overhead_percent\":%.2f,"
      "\"final_cov_percent\":%.4f,\"parity_ok\":%s}\n",
      smoke ? "true" : "false", plain.tests_run, pairs, tps_plain, dt_plain,
      tps_traced, dt_traced, overhead, plain.final_cov_percent,
      parity_ok ? "true" : "false");
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

  // Warm every backend before any timed run.
  {
    core::CampaignConfig warm = cfg;
    warm.num_tests = smoke ? 16 : 128;
    double ignored = 0.0;
    timed_campaign(warm, &ignored);
  }

  // Primary-only baseline on the identical program stream.
  core::CampaignConfig single = cfg;
  single.core = cfg.duts.front();
  single.duts.clear();
  double dt_single = 0.0;
  const core::CampaignResult base = timed_campaign(single, &dt_single);

  double dt_multi = 0.0;
  const core::CampaignResult multi = timed_campaign(cfg, &dt_multi);

  // Deployment number + the topology half of the determinism contract:
  // every total must match the 1-worker run bit-for-bit.
  core::CampaignConfig mt_cfg = cfg;
  mt_cfg.num_workers = 0;
  double dt_mt = 0.0;
  const core::CampaignResult mt = timed_campaign(mt_cfg, &dt_mt);
  const bool parity_ok = same_totals(mt, multi);

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
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--dut") == 0 && has_value) {
      dut_list = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--dut <backend,...> | --trace "
                   "<file.json>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (trace_path != nullptr) return run_trace_overhead_bench(smoke, trace_path);
  if (dut_list != nullptr) return run_multidut_bench(smoke, dut_list);

  core::CampaignConfig cfg;
  cfg.num_tests = smoke ? 64 : 1280;
  cfg.batch_size = 32;
  cfg.num_workers = 1;  // per-pipeline cost, no threading
  cfg.checkpoint_every = 100;

  // Warm the pipeline (page faults, allocator pools, branch history) before
  // any timed run, so the first one does not absorb the process cold start.
  {
    core::CampaignConfig warm = cfg;
    warm.num_tests = smoke ? 32 : 128;
    double ignored = 0.0;
    timed_campaign(warm, &ignored);
  }

  double dt = 0.0;
  const core::CampaignResult res = timed_campaign(cfg, &dt);

  // Again at hardware concurrency: the deployment number, and the topology
  // half of the determinism contract.
  core::CampaignConfig mt_cfg = cfg;
  mt_cfg.num_workers = 0;
  double dt_mt = 0.0;
  const core::CampaignResult mt_res = timed_campaign(mt_cfg, &dt_mt);
  const bool parity_ok = same_totals(res, mt_res);

  std::printf(
      "{\"bench\":\"campaign_throughput\",\"smoke\":%s,"
      "\"tests\":%zu,\"workers\":1,"
      "\"tests_per_sec\":%.1f,\"cycles_per_sec\":%.0f,"
      "\"wall_seconds\":%.3f,"
      "\"tests_per_sec_mt\":%.1f,\"mt_workers\":%u,"
      "\"final_cov_percent\":%.4f,\"raw_mismatches\":%zu,"
      "\"parity_ok\":%s}\n",
      smoke ? "true" : "false", res.tests_run,
      static_cast<double>(res.tests_run) / dt,
      static_cast<double>(res.total_cycles) / dt, dt,
      static_cast<double>(mt_res.tests_run) / dt_mt,
      static_cast<unsigned>(std::thread::hardware_concurrency()),
      res.final_cov_percent, res.raw_mismatches,
      parity_ok ? "true" : "false");
  return parity_ok ? 0 : 1;
}
