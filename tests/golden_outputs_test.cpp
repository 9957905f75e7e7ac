// Frozen campaign outputs: a few small, fixed, simulation-only campaigns
// whose every output byte is pinned by a checked-in FNV-1a digest — the
// campaign result, the coverage and mismatch-detector state, the checkpoint
// file, the corpus store and the BBV log. The determinism suites compare
// topologies against each other; this suite compares the program against
// its own past, so a refactor of the simulators or the engine that changes
// any output fails here even when it changes every topology alike.
//
// The simulation-only digests do not depend on the float kernels'
// instruction set. The ML cases — a GPT forward/backward at the PPO update's
// shape and a tiny trained ChatFuzz campaign — pin every bit the ML kernels
// produce, which depends on the -march they were built with; they run only
// in the default x86-64-v3 kernel build and skip otherwise. If a change is
// *meant* to alter output, update the constants from the failure messages
// and say why in the change log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "baselines/mutational.h"
#include "core/campaign.h"
#include "core/chatfuzz.h"
#include "core/checkpoint.h"
#include "corpus/generator.h"
#include "ml/gpt.h"
#include "util/rng.h"

namespace chatfuzz::core {
namespace {

namespace fs = std::filesystem;

class Fnv {
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
    ASSERT_TRUE(in) << "cannot read " << p;
    const std::string data((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    u64(data.size());
    bytes(data.data(), data.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t result_digest(const CampaignResult& r) {
  Fnv d;
  d.text(r.fuzzer);
  d.u64(r.curve.size());
  for (const CampaignPoint& p : r.curve) {
    d.u64(p.tests);
    d.f64(p.hours);
    d.f64(p.cond_cov_percent);
    d.u64(p.ctrl_states);
  }
  d.f64(r.final_cov_percent);
  d.u64(r.tests_run);
  d.f64(r.hours);
  d.u64(r.total_cycles);
  d.u64(r.total_instrs);
  d.f64(r.toggle_percent);
  d.f64(r.fsm_percent);
  d.f64(r.statement_percent);
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
  d.u64(r.completed ? 1 : 0);
  return d.value();
}

// Every regular file under `dir`, in path order, with its relative path.
std::uint64_t dir_digest(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  Fnv d;
  for (const fs::path& f : files) {
    d.text(fs::relative(f, dir).string());
    d.file(f);
  }
  return d.value();
}

std::uint64_t file_digest(const fs::path& p) {
  Fnv d;
  d.file(p);
  return d.value();
}

std::uint64_t blob_digest(const std::string& blob) {
  Fnv d;
  d.u64(blob.size());
  d.bytes(blob.data(), blob.size());
  return d.value();
}

std::uint64_t floats_digest(const float* p, std::size_t n) {
  Fnv d;
  d.u64(n);
  d.bytes(p, n * sizeof(float));
  return d.value();
}

/// The ML digests hold for kernels built with the default -march only.
bool ml_bits_pinned() {
  return std::string(CHATFUZZ_KERNEL_MARCH) == "x86-64-v3";
}

/// The frozen outputs of one campaign.
struct Golden {
  std::uint64_t result;
  std::uint64_t coverage;    // CheckpointData::coverage_blob
  std::uint64_t detector;    // CheckpointData::detector_blob
  std::uint64_t checkpoint;  // campaign.ckpt, byte for byte
  std::uint64_t corpus;      // every file of the corpus store
  std::uint64_t bbv;         // the BBV log (0 when not collected)
};

/// Priv/Sv39-dense stimulus: most samples build an Sv39 map, install satp,
/// drop to S/U via mret and run translated loads and stores.
class VmCorpusFuzzer final : public InputGenerator {
 public:
  explicit VmCorpusFuzzer(std::uint64_t seed) : gen_(config(), seed) {}
  std::string name() const override { return "VmCorpus"; }
  std::vector<Program> next_batch(std::size_t n) override {
    return gen_.dataset(n);
  }
  bool supports_snapshot() const override { return true; }
  void save_state(ser::Writer& w) const override { gen_.save_state(w); }
  bool restore_state(ser::Reader& r) override { return gen_.restore_state(r); }

 private:
  static corpus::CorpusConfig config() {
    corpus::CorpusConfig cc;
    cc.w_vm = 4.0;
    cc.w_priv = 2.0;
    return cc;
  }
  corpus::CorpusGenerator gen_;
};

// Six batches of 32 with a curve interval that does not divide the batch,
// two mid-campaign snapshots and the final one.
CampaignConfig base_config() {
  CampaignConfig cfg;
  cfg.num_tests = 192;
  cfg.batch_size = 32;
  cfg.checkpoint_every = 10;
  cfg.checkpoint_every_tests = 64;
  cfg.platform.max_steps = 256;
  return cfg;
}

void expect_golden(const std::string& name, InputGenerator& gen,
                   CampaignConfig cfg, bool bbv, const Golden& want) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("golden_" + name);
  fs::remove_all(dir);
  cfg.checkpoint_dir = (dir / "ckpt").string();
  if (bbv) cfg.bbv_path = (dir / "bbv.bin").string();
  const CampaignResult result = run_campaign(gen, cfg);

  CheckpointData data;
  const ser::Status s = load_checkpoint(cfg.checkpoint_dir, &data);
  ASSERT_TRUE(s.ok()) << s.message();
  const Golden got{
      result_digest(result),
      blob_digest(data.coverage_blob),
      blob_digest(data.detector_blob),
      file_digest(checkpoint_path(cfg.checkpoint_dir)),
      dir_digest(dir / "ckpt" / "corpus"),
      bbv ? file_digest(cfg.bbv_path) : 0,
  };
  char line[256];
  std::snprintf(line, sizeof line,
                "{0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull,\n 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull,\n 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull}",
                got.result, got.coverage, got.detector, got.checkpoint,
                got.corpus, got.bbv);
  SCOPED_TRACE(name + " digests now: " + line);
  EXPECT_EQ(got.result, want.result);
  EXPECT_EQ(got.coverage, want.coverage);
  EXPECT_EQ(got.detector, want.detector);
  EXPECT_EQ(got.checkpoint, want.checkpoint);
  EXPECT_EQ(got.corpus, want.corpus);
  EXPECT_EQ(got.bbv, want.bbv);
  fs::remove_all(dir);
}

TEST(GoldenOutputs, RandomWithBbv) {
  baselines::RandomFuzzer gen(11);
  expect_golden("random", gen, base_config(), /*bbv=*/true,
                {0xa01f276e85bf61bbull, 0x38458877df0f30f1ull,
                 0x135e1b66bedd0b40ull, 0x77649e2fcc50e918ull,
                 0x158b9a227cb96500ull, 0xfd60912fdd1cfe14ull});
}

TEST(GoldenOutputs, PrivSv39Corpus) {
  VmCorpusFuzzer gen(5);
  CampaignConfig cfg = base_config();
  cfg.randomize_regs = true;
  expect_golden("priv_sv39", gen, cfg, /*bbv=*/true,
                {0x9d4a3e073ff25d26ull, 0xba1881027b106dedull,
                 0x7e2e782b705e622aull, 0xaa096adcb89ab684ull,
                 0x5a2209b5016c52b3ull, 0xdf286d1051c59897ull});
}

TEST(GoldenOutputs, MultiDutInorderOoo) {
  baselines::TheHuzzFuzzer gen(7);
  CampaignConfig cfg = base_config();
  cfg.duts = {rtl::CoreConfig::rocket(), rtl::CoreConfig::ooo()};
  cfg.num_workers = 2;
  expect_golden("multidut", gen, cfg, /*bbv=*/false,
                {0x08e6d37541caf4c0ull, 0x04ff34644bbb16e0ull,
                 0x44284e911e80b272ull, 0x92b9b0e4b0993c91ull,
                 0x5df33b2477808541ull, 0x0000000000000000ull});
}

TEST(GoldenOutputs, InjectedPrivBugs) {
  VmCorpusFuzzer gen(9);
  CampaignConfig cfg = base_config();
  cfg.core.bugs.wrong_delegation = true;
  cfg.core.bugs.skip_perm_check = true;
  cfg.core.bugs.stale_tlb = true;
  cfg.collect_multi_metrics = true;
  expect_golden("priv_bugs", gen, cfg, /*bbv=*/false,
                {0xac9261df8a00eb0dull, 0xa5b15b1ac9ce059dull,
                 0x768728c7aba390c7ull, 0xe87b5cad492488a5ull,
                 0xd33eeb521514f434ull, 0x0000000000000000ull});
}

// One forward and one policy-gradient backward of the campaign model at the
// shape of a stage-3 PPO update (batch 32, 93 tokens).
TEST(GoldenOutputs, GptSmallForwardBackward) {
  if (!ml_bits_pinned()) {
    GTEST_SKIP() << "ML digests are pinned for -march=x86-64-v3 kernels; "
                    "this build's is \"" CHATFUZZ_KERNEL_MARCH "\"";
  }
  const ml::GptConfig mc = ml::GptConfig::small();
  ml::Gpt model(mc, 2024);
  const int B = 32, T = 93, V = mc.vocab;
  const std::size_t BT = static_cast<std::size_t>(B) * T;
  Rng rng(17);
  std::vector<int> tokens(BT), targets(BT);
  for (std::size_t n = 0; n < BT; ++n) {
    tokens[n] = static_cast<int>(rng.below(V));
    targets[n] = static_cast<int>(rng.below(V));
  }
  model.forward(tokens.data(), B, T);
  const std::uint64_t probs = floats_digest(model.probs(), BT * V);
  const std::uint64_t values = floats_digest(model.values(), BT);

  // Cross-entropy gradient plus a value-regression gradient.
  std::vector<float> dlogits(BT * V), dvalues(BT);
  const float inv = 1.f / static_cast<float>(BT);
  for (std::size_t n = 0; n < BT; ++n) {
    for (int v = 0; v < V; ++v) {
      dlogits[n * V + v] = model.probs()[n * V + v] * inv;
    }
    dlogits[n * V + targets[n]] -= inv;
    dvalues[n] = (model.values()[n] - 0.25f) * inv;
  }
  model.zero_grad();
  model.backward_from(tokens.data(), dlogits.data(), dvalues.data(), B, T);
  const std::uint64_t grads =
      floats_digest(model.grads().data(), model.grads().size());

  char line[128];
  std::snprintf(line, sizeof line,
                "{0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull}",
                probs, values, grads);
  SCOPED_TRACE(std::string("gpt digests now: ") + line);
  EXPECT_EQ(probs, 0x5111184c96d3aa82ull);
  EXPECT_EQ(values, 0xefbcab58a4572a89ull);
  EXPECT_EQ(grads, 0xc5ecb657b00bd0deull);
}

// Incremental decoding of the campaign model: 93 KV-cached steps over a
// batch of 32, every step's logits.
TEST(GoldenOutputs, GptSmallGenSteps) {
  if (!ml_bits_pinned()) {
    GTEST_SKIP() << "ML digests are pinned for -march=x86-64-v3 kernels; "
                    "this build's is \"" CHATFUZZ_KERNEL_MARCH "\"";
  }
  const ml::GptConfig mc = ml::GptConfig::small();
  const ml::Gpt model(mc, 2024);
  const int B = 32, steps = 93, V = mc.vocab;
  Rng rng(19);
  ml::Gpt::GenState st = model.gen_begin(B);
  std::vector<int> toks(B);
  std::vector<float> logits(static_cast<std::size_t>(B) * V);
  Fnv d;
  for (int t = 0; t < steps; ++t) {
    for (int& tok : toks) tok = static_cast<int>(rng.below(V));
    model.gen_step(st, toks.data(), logits.data());
    d.bytes(logits.data(), logits.size() * sizeof(float));
  }
  EXPECT_EQ(d.value(), 0x4188b1f6e013eca8ull)
      << "gen digest now: 0x" << std::hex << d.value() << "ull";
}

// Stage-1/2 training of a two-layer model, then a three-batch stage-3
// campaign: generation, PPO updates and the checkpointed policy/optimizer.
TEST(GoldenOutputs, TinyChatFuzzCampaign) {
  if (!ml_bits_pinned()) {
    GTEST_SKIP() << "ML digests are pinned for -march=x86-64-v3 kernels; "
                    "this build's is \"" CHATFUZZ_KERNEL_MARCH "\"";
  }
  ChatFuzzConfig cc;
  cc.model = ml::GptConfig{259, 96, 2, 2, 32};
  cc.gen_tokens = 32;
  cc.sample.min_new_tokens = 8;
  cc.pretrain_samples = 48;
  cc.pretrain.epochs = 1;
  cc.pretrain.batch = 8;
  cc.pretrain.seq_len = 64;
  cc.cleanup_iters = 1;
  cc.seed = 3;
  ChatFuzzGenerator gen(cc);
  gen.train_offline();
  CampaignConfig cfg;
  cfg.num_tests = 48;
  cfg.batch_size = 16;
  cfg.platform.max_steps = 256;
  expect_golden("chatfuzz", gen, cfg, /*bbv=*/false,
                {0xa7313762c0dc24d2ull, 0xd781837f84a902bcull,
                 0x6084a936d6c5aa4dull, 0x59b53272af3edbccull,
                 0x1f6fd01144f86ce7ull, 0x0000000000000000ull});
}

}  // namespace
}  // namespace chatfuzz::core
