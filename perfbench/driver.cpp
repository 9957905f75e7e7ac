// perfbench_driver — runs one workload of the end-to-end benchmark in this
// process through the library's public API and prints one JSON line of raw
// measurements on stdout. perfbench/run.py turns that line into metrics and
// checks the outputs; perfbench/README.md describes workloads and metrics.
//
//   perfbench_driver --workload <chatfuzz|thehuzz>
//                    --seed <n> --seconds <s> --trace <0|1> --dir <scratch>
//
// A run is a fixed number of campaigns of the workload, each from a fresh
// generator with its own campaign seed (seed * 1000 + k). The number is the
// workload's campaigns per 10 s scaled by --seconds, so it depends on the
// arguments only, never on how fast the machine is.
//
// --trace 0 (the end-to-end run) times set-up and each campaign from
// outside: a timing generator wraps next_batch/feedback, and the
// CheckpointHook timestamps the coverage curve.
// --trace 1 (the per-layer run) trains through core::pretrain and
// core::cleanup_stage, runs each campaign once untraced and once with the
// program's spans on (CampaignConfig::trace_path), runs the multi-DUT probe
// (kMultiDutProbe), then replays the traced campaigns' tests through the DUT
// alone and the golden ISS alone and times Gpt::forward/backward_from on
// PPO's batch shape, inside the benchmark's own spans.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/hypfuzz.h"
#include "baselines/mutational.h"
#include "core/campaign.h"
#include "core/chatfuzz.h"
#include "core/checkpoint.h"
#include "core/training.h"
#include "corpus/store.h"
#include "isasim/sim.h"
#include "ml/gpt.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "riscv/decode.h"
#include "rtlsim/dut.h"
#include "util/rng.h"

using namespace chatfuzz;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- workloads --------------------------------------------------------------

enum class Kind { kChatFuzz, kTheHuzz, kHypFuzz };

struct Workload {
  std::string name;
  Kind kind;
  std::size_t tests;            // tests per campaign
  std::size_t campaigns;        // campaigns per 10 s of --seconds
  std::size_t trace_campaigns;  // campaigns of the per-layer run
  double cov_target;            // condition coverage % for time_to_cov_s
  std::vector<std::string> duts;
  std::size_t checkpoint_every;  // tests between snapshots; 0 = at the end
};

// Every campaign simulates on one worker. On a 4-core x86-64 VM a run
// measures --seconds (chatfuzz, after ~40 s of training) to twice that
// (thehuzz, whose runs are long enough to average bursts of host load).
// chatfuzz campaigns are 4 batches of 32 and most cross the target in
// batch 2, after one PPO update (batch 1 ends at ~59.5-61.2%, batch 2 at
// ~63.3-64.6%). thehuzz campaigns cross theirs after ~35% of their tests.
const Workload kWorkloads[] = {
    {"chatfuzz", Kind::kChatFuzz, 128, 4, 3, 62.5, {"inorder"}, 0},
    {"thehuzz", Kind::kTheHuzz, 1000, 240, 20, 69.0, {"inorder"}, 0},
};

// The layers neither workload runs — the run_span thread pool, the
// out-of-order DUT, the Sv39 TLB and periodic checkpoints — are measured by
// this probe in every per-layer run: HyPFuzz campaigns on both DUTs, traced
// on 1 and on kProbePoolWorkers workers. As an end-to-end workload its wall
// time followed host load too closely to be steady.
const Workload kMultiDutProbe = {
    "multidut", Kind::kHypFuzz, 3200, 0, 3, 97.0, {"inorder", "ooo"}, 800};
constexpr std::size_t kProbePoolWorkers = 2;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path dir;
  std::size_t campaigns() const {
    if (trace) return w->trace_campaigns;
    const double k = static_cast<double>(w->campaigns) * seconds / 10.0;
    return std::max<std::size_t>(1, static_cast<std::size_t>(k + 0.5));
  }
  std::uint64_t campaign_seed(std::size_t k) const { return seed * 1000 + k; }
};

// ---- JSON output ------------------------------------------------------------

class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ << buf;
    return *this;
  }
  Json& str(const std::string& s) {
    sep();
    out_ << '"' << s << '"';  // digests and names only: nothing to escape
    return *this;
  }
  Json& nul() {
    sep();
    out_ << "null";
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  std::string text() const { return out_.str(); }

 private:
  void sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// ---- output digest ----------------------------------------------------------

// FNV-1a 64 over the campaign's outputs: a change in any output byte changes
// the digest with overwhelming probability.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void text(const std::string& s) { bytes(s.data(), s.size() + 1); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + p.string());
    const std::string data((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    u64(data.size());
    bytes(data.data(), data.size());
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

void digest_result(Digest& d, const core::CampaignResult& r) {
  d.u64(r.curve.size());
  for (const core::CampaignPoint& p : r.curve) {
    d.u64(p.tests);
    d.f64(p.cond_cov_percent);
    d.u64(p.ctrl_states);
  }
  d.f64(r.final_cov_percent);
  d.u64(r.tests_run);
  d.u64(r.total_cycles);
  d.u64(r.total_instrs);
  d.u64(r.raw_mismatches);
  d.u64(r.filtered_mismatches);
  d.u64(r.unique_mismatches);
  for (const mismatch::Finding f : r.findings) {
    d.text(mismatch::finding_name(f));
  }
  d.u64(r.uncovered.size());
  for (const cov::UncoveredPoint& u : r.uncovered) {
    d.text(u.name);
    d.u64(u.missing_true);
    d.u64(u.missing_false);
  }
}

// Every regular file under `dir` (checkpoint and corpus store), in path
// order, with its relative path.
void digest_dir(Digest& d, const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    d.text(fs::relative(f, dir).string());
    d.file(f);
  }
}

// ---- process statistics -----------------------------------------------------

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Reset VmHWM to the current RSS, so a later peak reads only what follows.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Host steal time summed over all CPUs, from /proc/stat.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (std::uint64_t& x : v) in >> x;
  const long hz = sysconf(_SC_CLK_TCK);
  return static_cast<double>(v[7]) / static_cast<double>(hz > 0 ? hz : 100);
}

// ---- the timing generator ---------------------------------------------------

// Wraps the workload's generator: times every call the engine makes into
// the generation layer (next_batch) and the learning layer (feedback),
// inside the benchmark's own spans, and forwards everything else the engine
// asks of a generator, so that wrapping changes no campaign output.
class TimedGenerator final : public core::InputGenerator {
 public:
  TimedGenerator(core::InputGenerator& inner, bool capture)
      : inner_(inner), capture_(capture) {}

  std::string name() const override { return inner_.name(); }
  double time_per_test_factor() const override {
    return inner_.time_per_test_factor();
  }
  bool supports_snapshot() const override {
    return inner_.supports_snapshot();
  }
  void save_state(ser::Writer& w) const override { inner_.save_state(w); }
  bool restore_state(ser::Reader& r) override {
    return inner_.restore_state(r);
  }

  std::vector<core::Program> next_batch(std::size_t n) override {
    const Clock::time_point t0 = Clock::now();
    if (!first_batch_) first_batch_ = t0;
    std::vector<core::Program> batch;
    {
      OBS_SPAN("bench.generate");
      batch = inner_.next_batch(n);
    }
    // Only the per-layer run reads the tests and their words, so the
    // end-to-end timing window holds the generator call alone.
    if (capture_) {
      for (const core::Program& p : batch) {
        words_ += p.size();
        for (std::uint32_t w : p) valid_words_ += riscv::is_valid(w) ? 1 : 0;
      }
      tests_.insert(tests_.end(), batch.begin(), batch.end());
    }
    return batch;
  }

  void feedback(const core::Feedback& fb) override {
    if (capture_ && fb.coverages != nullptr) {
      for (const cov::TestCoverage& tc : *fb.coverages) {
        new_cov_tests_ += tc.incremental_bins > 0 ? 1 : 0;
      }
    }
    OBS_SPAN("bench.feedback");
    inner_.feedback(fb);
  }

  std::optional<Clock::time_point> first_batch() const { return first_batch_; }
  const std::vector<core::Program>& tests() const { return tests_; }
  std::uint64_t words() const { return words_; }
  std::uint64_t valid_words() const { return valid_words_; }
  std::uint64_t new_cov_tests() const { return new_cov_tests_; }

 private:
  core::InputGenerator& inner_;
  bool capture_;
  std::optional<Clock::time_point> first_batch_;
  std::vector<core::Program> tests_;
  std::uint64_t words_ = 0, valid_words_ = 0, new_cov_tests_ = 0;
};

// ---- training ---------------------------------------------------------------

struct TrainedModel {
  fs::path path;
  std::string digest;
};

TrainedModel model_file(const fs::path& path) {
  Digest d;
  d.file(path);
  return TrainedModel{path, d.hex()};
}

// Stages 1-2 through the generator, as `chatfuzz fuzz chatfuzz` runs them
// when it has no model cache.
TrainedModel train_offline(const Options& o) {
  core::ChatFuzzGenerator gen(core::ChatFuzzConfig{});
  gen.train_offline();
  const fs::path path = o.dir / "model.bin";
  const ser::Status s = gen.save_model(path.string());
  if (!s.ok()) throw std::runtime_error(s.message());
  return model_file(path);
}

// Stages 1-2 through core::pretrain and core::cleanup_stage directly, in
// the order and with the seeds ChatFuzzGenerator::train_offline uses, each
// inside a benchmark span. The model bytes must equal train_offline's.
TrainedModel train_by_stage(const Options& o) {
  const core::ChatFuzzConfig c;  // the CLI's default configuration
  ml::Gpt policy(c.model, c.seed);
  ml::Gpt ref(c.model, c.seed);
  corpus::CorpusGenerator corpus(corpus::CorpusConfig{}, c.seed + 1);
  Rng rng(c.seed + 2);
  const std::vector<corpus::Program> data = corpus.dataset(c.pretrain_samples);
  {
    OBS_SPAN("bench.pretrain");
    core::pretrain(policy, data, c.pretrain, rng);
  }
  ref.copy_params_from(policy);
  core::CleanupConfig cc;
  cc.iters = c.cleanup_iters;
  cc.prompt_min = c.prompt_min;
  cc.prompt_max = c.prompt_max;
  cc.ppo = c.ppo;
  cc.sample = c.sample;
  cc.sample.max_new_tokens = c.gen_tokens;
  {
    OBS_SPAN("bench.cleanup");
    core::cleanup_stage(policy, ref, corpus, cc, rng);
  }
  const fs::path path = o.dir / "model.bin";
  const ser::Status s = policy.save(path.string());
  if (!s.ok()) throw std::runtime_error(s.message());
  return model_file(path);
}

// ---- one campaign -----------------------------------------------------------

core::CampaignConfig campaign_config(const Options& o, std::uint64_t seed,
                                     std::size_t workers) {
  core::CampaignConfig cfg;
  cfg.num_tests = o.w->tests;
  cfg.checkpoint_every = std::max<std::size_t>(cfg.num_tests / 200, 1);
  cfg.num_workers = workers;
  cfg.seed = seed;
  for (const std::string& d : o.w->duts) {
    rtl::CoreConfig c;
    if (!rtl::dut_preset(d, c)) throw std::runtime_error("unknown DUT " + d);
    cfg.duts.push_back(c);
  }
  cfg.checkpoint_every_tests = o.w->checkpoint_every;
  return cfg;
}

std::unique_ptr<core::InputGenerator> make_generator(const Options& o,
                                                     std::uint64_t seed,
                                                     const TrainedModel* m) {
  switch (o.w->kind) {
    case Kind::kChatFuzz: {
      core::ChatFuzzConfig c;
      c.seed = seed;
      auto gen = std::make_unique<core::ChatFuzzGenerator>(c);
      const ser::Status s = gen->load_model(m->path.string());
      if (!s.ok()) throw std::runtime_error(s.message());
      return gen;
    }
    case Kind::kTheHuzz:
      return std::make_unique<baselines::TheHuzzFuzzer>(seed);
    case Kind::kHypFuzz:
      return std::make_unique<baselines::HypFuzzer>(seed);
  }
  return nullptr;
}

struct Campaign {
  double setup_s = 0.0;  // first library call -> first next_batch
  double wall_s = 0.0;   // first next_batch -> campaign end
  std::optional<double> time_to_cov_s;
  core::CampaignResult result;
  std::string digest;         // result + corpus store + checkpoint
  std::string result_digest;  // result + corpus store
  double ckpt_bytes = 0.0;
  double corpus_entries = 0.0;
  // Per-layer run only.
  std::vector<core::Program> tests;
  std::uint64_t words = 0, valid_words = 0, new_cov_tests = 0;
  std::vector<std::pair<std::string, double>> counters;
};

// Construct the workload's generator and engine and run one campaign into
// the checkpoint directory <dir>/ckpt, which must not exist yet; it is
// removed again once digested, so that the next campaign's set-up, timed
// from its `t0`, holds no clean-up of the benchmark's.
Campaign run_campaign(const Options& o, std::uint64_t seed,
                      const TrainedModel* model, Clock::time_point t0,
                      const std::string& trace_path, std::size_t workers = 1) {
  const std::unique_ptr<core::InputGenerator> gen =
      make_generator(o, seed, model);
  const bool traced = !trace_path.empty();
  TimedGenerator timer(*gen, /*capture=*/traced);
  core::CampaignConfig cfg = campaign_config(o, seed, workers);
  const fs::path ckpt_dir = o.dir / "ckpt";
  if (fs::exists(ckpt_dir)) {
    throw std::runtime_error(ckpt_dir.string() + " is left from a campaign");
  }
  cfg.checkpoint_dir = ckpt_dir.string();
  cfg.trace_path = trace_path;

  Campaign c;
  const double target = o.w->cov_target;
  const auto hook = [&c, &timer, target](const core::CampaignPoint& pt) {
    if (!c.time_to_cov_s && pt.cond_cov_percent >= target) {
      c.time_to_cov_s = secs(*timer.first_batch(), Clock::now());
    }
  };
  c.result = core::run_campaign(timer, cfg, hook);
  const Clock::time_point t_end = Clock::now();
  if (!timer.first_batch()) throw std::runtime_error("campaign ran no batch");
  c.setup_s = secs(t0, *timer.first_batch());
  c.wall_s = secs(*timer.first_batch(), t_end);

  // The checkpoint records the worker count, so the campaign's outputs
  // without it must also agree across worker counts.
  Digest d;
  digest_result(d, c.result);
  digest_dir(d, ckpt_dir / "corpus");
  c.result_digest = d.hex();
  d.file(core::checkpoint_path(cfg.checkpoint_dir));
  c.digest = d.hex();
  c.ckpt_bytes =
      static_cast<double>(fs::file_size(core::checkpoint_path(cfg.checkpoint_dir)));
  {
    corpus::CorpusStore store;
    const ser::Status s = store.open((ckpt_dir / "corpus").string());
    if (!s.ok()) throw std::runtime_error(s.message());
    c.corpus_entries = static_cast<double>(store.size());
  }
  fs::remove_all(ckpt_dir);

  if (traced) {
    c.tests = timer.tests();
    c.words = timer.words();
    c.valid_words = timer.valid_words();
    c.new_cov_tests = timer.new_cov_tests();
    for (const char* name :
         {"campaign.instrs", "campaign.cycles",
          "sim.predecode_hits", "sim.predecode_misses", "sim.tlb_hits",
          "sim.tlb_misses", "sim.sb_hits", "sim.sb_builds"}) {
      c.counters.emplace_back(
          name, static_cast<double>(obs::counter(name)->value()));
    }
    c.counters.emplace_back(
        "obs.spans_dropped", static_cast<double>(obs::trace_dropped_count()));
  }
  return c;
}

void emit_campaign(Json& j, std::uint64_t seed, const Campaign& c) {
  j.open('{');
  j.key("seed").num(static_cast<double>(seed));
  j.key("setup_s").num(c.setup_s);
  j.key("wall_s").num(c.wall_s);
  j.key("tests").num(static_cast<double>(c.result.tests_run));
  j.key("time_to_cov_s");
  if (c.time_to_cov_s) j.num(*c.time_to_cov_s); else j.nul();
  j.key("final_cond_cov_pct").num(c.result.final_cov_percent);
  j.key("unique_mismatches")
      .num(static_cast<double>(c.result.unique_mismatches));
  j.key("completed").num(c.result.completed ? 1 : 0);
  j.key("digest").str(c.digest);
  j.key("result_digest").str(c.result_digest);
  j.key("ckpt_bytes").num(c.ckpt_bytes);
  j.key("corpus_entries").num(c.corpus_entries);
  if (!c.counters.empty()) {
    j.key("words").num(static_cast<double>(c.words));
    j.key("valid_words").num(static_cast<double>(c.valid_words));
    j.key("new_cov_tests").num(static_cast<double>(c.new_cov_tests));
    j.key("counters").open('{');
    for (const auto& [name, v] : c.counters) j.key(name).num(v);
    j.close('}');
  }
  j.close('}');
}

// ---- the end-to-end run -----------------------------------------------------

void end_to_end(const Options& o, Json& j) {
  // chatfuzz's set-up is stage-1/2 training, once per run; the first
  // campaign's set-up is timed from the run's first library call.
  const Clock::time_point t_first_call = Clock::now();
  std::optional<TrainedModel> model;
  if (o.w->kind == Kind::kChatFuzz) {
    model = train_offline(o);
    j.key("model_digest").str(model->digest);
  }
  j.key("campaigns").open('[');
  for (std::size_t k = 0; k < o.campaigns(); ++k) {
    const Clock::time_point t0 = k == 0 ? t_first_call : Clock::now();
    const std::uint64_t seed = o.campaign_seed(k);
    const Campaign c =
        run_campaign(o, seed, model ? &*model : nullptr, t0, "");
    emit_campaign(j, seed, c);
  }
  j.close(']');
}

// ---- the per-layer run ------------------------------------------------------

// Replay every captured test through each DUT alone (commits discarded, so
// the golden model is never pulled) and through the golden ISS alone.
void replay_probe(const Options& o, const std::vector<core::Program>& tests) {
  const core::CampaignConfig cfg = campaign_config(o, o.seed, 1);
  sim::DiscardSink discard;
  {
    OBS_SPAN("bench.replay_dut");
    for (const rtl::CoreConfig& core : core::effective_duts(cfg)) {
      cov::CoverageDB db;
      std::unique_ptr<rtl::DutCore> dut = rtl::make_dut(core, db, cfg.platform);
      dut->set_superblocks(cfg.superblocks);
      dut->set_sink(&discard);
      for (const core::Program& t : tests) {
        dut->ctrl_cov().begin_test();
        dut->reset(t);
        dut->run();
      }
    }
  }
  {
    OBS_SPAN("bench.replay_golden");
    sim::IsaSim golden(cfg.platform);
    golden.set_superblocks(cfg.superblocks);
    golden.set_sink(&discard);
    for (const core::Program& t : tests) {
      golden.reset(t);
      golden.run();
    }
  }
}

// Gpt::forward and Gpt::backward_from on the shape of a stage-3 PPO update:
// one batch of prompts (at most prompt_max instructions plus BOS) with
// gen_tokens generated tokens each.
void ml_probe(const Options& o, const TrainedModel& m) {
  const core::ChatFuzzConfig c;  // the CLI's default configuration
  ml::Gpt gpt(c.model, c.seed);
  const ser::Status s = gpt.load(m.path.string());
  if (!s.ok()) throw std::runtime_error(s.message());
  const int B = static_cast<int>(core::CampaignConfig{}.batch_size);
  const int T = std::min(c.model.ctx,
                         1 + 4 * static_cast<int>(c.prompt_max) + c.gen_tokens);
  const int V = c.model.vocab;
  Rng rng(o.seed);
  std::vector<int> tokens(static_cast<std::size_t>(B) * T);
  for (int& t : tokens) t = static_cast<int>(rng.range(0, 255));
  std::vector<float> dlogits(static_cast<std::size_t>(B) * T * V);
  for (float& x : dlogits) x = static_cast<float>(rng.range(0, 2000)) * 1e-6f - 1e-3f;
  const std::vector<float> dvalues(static_cast<std::size_t>(B) * T, 1e-3f);
  for (int i = 0; i < 10; ++i) {
    {
      OBS_SPAN("bench.forward");
      gpt.forward(tokens.data(), B, T);
    }
    gpt.zero_grad();
    OBS_SPAN("bench.backward");
    gpt.backward_from(tokens.data(), dlogits.data(), dvalues.data(), B, T);
  }
}

// The multi-DUT probe's campaigns, traced on 1 worker and on the pool.
void multidut_probe(const Options& o, Json& j) {
  Options p = o;
  p.w = &kMultiDutProbe;
  reset_peak_rss();
  for (const std::size_t workers : {std::size_t{1}, kProbePoolWorkers}) {
    const std::string tag = "probe" + std::to_string(workers);
    std::vector<std::string> traces;
    j.key(tag).open('[');
    for (std::size_t k = 0; k < p.campaigns(); ++k) {
      traces.push_back(
          (p.dir / ("trace_" + tag + "_" + std::to_string(k) + ".json")).string());
      emit_campaign(j, p.campaign_seed(k),
                    run_campaign(p, p.campaign_seed(k), nullptr, Clock::now(),
                                 traces.back(), workers));
    }
    j.close(']');
    j.key(tag + "_traces").open('[');
    for (const std::string& t : traces) j.str(t);
    j.close(']');
  }
  j.key("probe_pool_workers").num(static_cast<double>(kProbePoolWorkers));
  j.key("probe_campaign_tests").num(static_cast<double>(kMultiDutProbe.tests));
  j.key("probe_peak_rss_mb").num(peak_rss_mb());
}

void per_layer(const Options& o, Json& j) {
  // Training has a trace of its own: each traced campaign starts a new
  // trace session, which clears the span buffers.
  obs::trace_start();
  const TrainedModel model = train_by_stage(o);
  obs::trace_stop();
  const fs::path train_trace = o.dir / "trace_training.json";
  std::string err;
  if (!obs::write_chrome_trace(train_trace.string(), &err)) {
    throw std::runtime_error(err);
  }
  j.key("model_digest").str(model.digest);
  j.key("train_trace").str(train_trace.string());
  const TrainedModel* m = o.w->kind == Kind::kChatFuzz ? &model : nullptr;

  // Untraced and traced campaigns alternate, so drift in the host's speed
  // falls on both alike.
  reset_peak_rss();
  std::vector<core::Program> tests;
  j.key("untraced").open('[');
  std::vector<Campaign> traced;
  std::vector<std::string> traces;
  for (std::size_t k = 0; k < o.campaigns(); ++k) {
    const std::uint64_t seed = o.campaign_seed(k);
    emit_campaign(j, seed, run_campaign(o, seed, m, Clock::now(), ""));
    traces.push_back((o.dir / ("trace_" + std::to_string(k) + ".json")).string());
    traced.push_back(run_campaign(o, seed, m, Clock::now(), traces.back()));
    tests.insert(tests.end(), traced.back().tests.begin(),
                 traced.back().tests.end());
    traced.back().tests.clear();
  }
  j.close(']');
  j.key("traced_peak_rss_mb").num(peak_rss_mb());
  j.key("traced").open('[');
  for (std::size_t k = 0; k < traced.size(); ++k) {
    emit_campaign(j, o.campaign_seed(k), traced[k]);
  }
  j.close(']');
  j.key("traces").open('[');
  for (const std::string& t : traces) j.str(t);
  j.close(']');
  multidut_probe(o, j);

  const fs::path probe_trace = o.dir / "trace_probes.json";
  obs::trace_start();
  replay_probe(o, tests);
  ml_probe(o, model);
  obs::trace_stop();
  if (!obs::write_chrome_trace(probe_trace.string(), &err)) {
    throw std::runtime_error(err);
  }
  j.key("probe_trace").str(probe_trace.string());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.w = find_workload(v);
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") o.trace = std::strcmp(v, "1") == 0;
    else if (k == "--dir") o.dir = v;
    else {
      std::fprintf(stderr, "perfbench_driver: unknown option %s\n", k.c_str());
      return 2;
    }
  }
  if (o.w == nullptr || o.dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --dir <scratch dir>\n");
    return 2;
  }
  fs::create_directories(o.dir);
  fs::remove_all(o.dir / "ckpt");
  const double cpu0 = cpu_seconds();
  const double steal0 = steal_seconds();
  const Clock::time_point t0 = Clock::now();
  Json j;
  j.open('{');
  j.key("workload").str(o.w->name);
  j.key("campaign_tests").num(static_cast<double>(o.w->tests));
  try {
    if (o.trace) per_layer(o, j); else end_to_end(o, j);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  if (!o.trace) j.key("peak_rss_mb").num(peak_rss_mb());
  j.key("run_wall_s").num(secs(t0, Clock::now()));
  j.key("cpu_s").num(cpu_seconds() - cpu0);
  j.key("steal_s").num(steal_seconds() - steal0);
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
