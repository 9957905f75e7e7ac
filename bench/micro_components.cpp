// Component micro-benchmarks (google-benchmark): throughput of the decoder,
// disassembler (the stage-2 reward agent), golden-model and DUT-model
// simulation, tokenizer, LM forward/backward and KV-cache generation.
// These bound the fuzzing loop's test rate — the quantity the paper's
// tests/hour scale model abstracts.
#include <benchmark/benchmark.h>

#include "coverage/cover.h"
#include "corpus/generator.h"
#include "isasim/sim.h"
#include "ml/gpt.h"
#include "ml/sampler.h"
#include "ml/tokenizer.h"
#include "riscv/decode.h"
#include "riscv/disasm.h"
#include "rtlsim/core.h"
#include "util/rng.h"

using namespace chatfuzz;

static void BM_Decode(benchmark::State& state) {
  Rng rng(1);
  const auto prog = corpus::random_valid_program(rng, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(riscv::decode(prog[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Decode);

static void BM_DisasmAudit(benchmark::State& state) {
  Rng rng(2);
  const auto prog = corpus::random_valid_program(rng, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(riscv::audit(prog));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DisasmAudit);

static void BM_IsaSimRun(benchmark::State& state) {
  corpus::CorpusGenerator gen(corpus::CorpusConfig{}, 3);
  const auto prog = gen.function();
  sim::Platform plat;
  plat.max_steps = 512;
  sim::IsaSim sim(plat);
  std::uint64_t instrs = 0;
  for (auto _ : state) {
    sim.reset(prog);
    const auto r = sim.run();
    instrs += r.steps;
    benchmark::DoNotOptimize(r.trace.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_IsaSimRun);

static void BM_RtlSimRun(benchmark::State& state) {
  corpus::CorpusGenerator gen(corpus::CorpusConfig{}, 3);
  const auto prog = gen.function();
  sim::Platform plat;
  plat.max_steps = 512;
  cov::CoverageDB db;
  rtl::RtlCore core(rtl::CoreConfig::rocket(), db, plat);
  std::uint64_t instrs = 0;
  for (auto _ : state) {
    db.begin_test();
    core.reset(prog);
    const auto r = core.run();
    instrs += r.steps;
    benchmark::DoNotOptimize(r.trace.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_RtlSimRun);

static void BM_Tokenizer(benchmark::State& state) {
  ml::Tokenizer tok;
  Rng rng(4);
  const auto prog = corpus::random_valid_program(rng, 24);
  for (auto _ : state) {
    const auto tokens = tok.encode(prog, true, true);
    benchmark::DoNotOptimize(tok.decode(tokens));
  }
  state.SetItemsProcessed(state.iterations() * 24);
}
BENCHMARK(BM_Tokenizer);

static void BM_GptForward(benchmark::State& state) {
  ml::Gpt model(ml::GptConfig::small(), 1);
  Rng rng(5);
  const int B = 8, T = 96;
  std::vector<int> tokens(B * T);
  for (auto& t : tokens) t = static_cast<int>(rng.below(model.config().vocab));
  for (auto _ : state) {
    model.forward(tokens.data(), B, T);
    benchmark::DoNotOptimize(model.logits());
  }
  state.SetItemsProcessed(state.iterations() * B * T);
}
BENCHMARK(BM_GptForward);

static void BM_GptTrainStep(benchmark::State& state) {
  ml::Gpt model(ml::GptConfig::small(), 1);
  Rng rng(5);
  const int B = 8, T = 96;
  std::vector<int> tokens(B * T), targets(B * T);
  for (auto& t : tokens) t = static_cast<int>(rng.below(model.config().vocab));
  for (auto& t : targets) t = static_cast<int>(rng.below(model.config().vocab));
  for (auto _ : state) {
    model.forward(tokens.data(), B, T);
    model.zero_grad();
    benchmark::DoNotOptimize(
        model.backward_lm(tokens.data(), targets.data(), B, T));
  }
  state.SetItemsProcessed(state.iterations() * B * T);
}
BENCHMARK(BM_GptTrainStep);

static void BM_Generation(benchmark::State& state) {
  ml::Gpt model(ml::GptConfig::small(), 1);
  ml::SampleConfig sc;
  sc.max_new_tokens = 72;
  sc.min_new_tokens = 72;
  ml::Sampler sampler(sc);
  Rng rng(6);
  const std::vector<std::vector<int>> prompts(8, std::vector<int>{256, 1, 2, 3, 4});
  std::uint64_t tokens = 0;
  for (auto _ : state) {
    const auto gens = sampler.generate(model, prompts, rng);
    for (const auto& g : gens) tokens += g.response.size();
    benchmark::DoNotOptimize(gens.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tokens));
}
BENCHMARK(BM_Generation);

static void BM_CoverageHit(benchmark::State& state) {
  cov::CoverageDB db;
  std::vector<cov::PointId> ids;
  for (int i = 0; i < 512; ++i) ids.push_back(db.register_cond("p"));
  db.begin_test();
  std::size_t i = 0;
  for (auto _ : state) {
    db.hit(ids[i & 511], (i & 1) != 0);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoverageHit);

BENCHMARK_MAIN();
