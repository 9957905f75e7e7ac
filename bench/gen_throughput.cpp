// Generation/simulation throughput bench: tokens/sec through the GPT
// incremental-decode path, golden-model ISS steps/sec, and a raw matmul
// kernel microbench (vectorized kernel vs. the seed's naive reference).
// Emits ONE line of JSON on stdout so successive runs can be appended to a
// BENCH_*.json trajectory file:
//
//   ./bench_gen_throughput [--smoke] >> BENCH_gen_throughput.json
//
// --smoke (or CHATFUZZ_SMOKE=1) shrinks every workload to CI size; the
// numbers still print but only prove the harness runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "isasim/sim.h"
#include "ml/gpt.h"
#include "ml/kernels.h"
#include "riscv/builder.h"
#include "util/rng.h"

namespace kern = chatfuzz::ml::kern;
using chatfuzz::Rng;
using chatfuzz::ml::Gpt;
using chatfuzz::ml::GptConfig;

namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Tokens/sec through gen_begin + gen_step over `steps` positions.
double gen_tokens_per_sec(const Gpt& model, int B, int steps, Rng& rng) {
  Gpt::GenState st = model.gen_begin(B);
  std::vector<int> toks(B);
  std::vector<float> logits(static_cast<std::size_t>(B) *
                            model.config().vocab);
  for (int b = 0; b < B; ++b) {
    toks[b] = static_cast<int>(rng.below(model.config().vocab));
  }
  const double t0 = now_sec();
  for (int t = 0; t < steps; ++t) {
    model.gen_step(st, toks.data(), logits.data());
    for (int b = 0; b < B; ++b) {
      // Greedy-ish feedback keeps the data dependent on the compute.
      toks[b] = static_cast<int>(logits[static_cast<std::size_t>(b)] > 0.f);
    }
  }
  const double dt = now_sec() - t0;
  return static_cast<double>(B) * steps / dt;
}

/// GFLOP/s of a matmul kernel on a fixed decode-ish shape.
template <typename Fn>
double matmul_gflops(const Fn& call, int reps, int N, int Cin, int Cout) {
  const double t0 = now_sec();
  for (int r = 0; r < reps; ++r) call();
  const double dt = now_sec() - t0;
  const double flops =
      2.0 * N * Cin * Cout * reps;
  return flops / dt / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const char* env_smoke = std::getenv("CHATFUZZ_SMOKE");
  bool smoke = env_smoke != nullptr && std::strcmp(env_smoke, "0") != 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // ---- kernel microbench --------------------------------------------------
  const int N = 8, Cin = 128, Cout = 512;
  const int reps = smoke ? 20 : 400;
  Rng rng(1234);
  std::vector<float> inp(static_cast<std::size_t>(N) * Cin);
  std::vector<float> w(static_cast<std::size_t>(Cout) * Cin);
  std::vector<float> bias(Cout);
  std::vector<float> out(static_cast<std::size_t>(N) * Cout);
  for (float& x : inp) x = static_cast<float>(rng.uniform()) - 0.5f;
  for (float& x : w) x = 0.1f * (static_cast<float>(rng.uniform()) - 0.5f);
  for (float& x : bias) x = static_cast<float>(rng.uniform()) - 0.5f;

  const double gflops_ref = matmul_gflops(
      [&] {
        kern::matmul_forward_ref(out.data(), inp.data(), w.data(),
                                 bias.data(), N, Cin, Cout);
      },
      reps, N, Cin, Cout);
  const double gflops_fast = matmul_gflops(
      [&] {
        kern::matmul_forward(out.data(), inp.data(), w.data(), bias.data(),
                             N, Cin, Cout);
      },
      reps, N, Cin, Cout);

  // ---- generation throughput ----------------------------------------------
  const GptConfig cfg = GptConfig::paper();
  const int B = 8;
  const int steps = smoke ? 8 : cfg.ctx;
  Gpt model(cfg, 7);
  Rng gen_rng(9);
  // Warm up once (thread pool spin-up, page faults), then measure.
  gen_tokens_per_sec(model, B, smoke ? 2 : 8, gen_rng);
  const double tps = gen_tokens_per_sec(model, B, steps, gen_rng);

  // ---- ISS steps/sec -------------------------------------------------------
  using chatfuzz::riscv::Opcode;
  chatfuzz::riscv::ProgramBuilder pb;
  pb.li(1, 0);
  pb.li(2, 1 << 30);  // never reached: max_steps bounds the run
  pb.label("loop");
  pb.addi(1, 1, 1);
  pb.raw(chatfuzz::riscv::enc_r(Opcode::kXor, 3, 1, 2));
  pb.add(4, 3, 1);
  pb.branch_to(Opcode::kBne, 1, 2, "loop");
  pb.raw(chatfuzz::riscv::enc_sys(Opcode::kWfi));
  const std::vector<std::uint32_t> prog = pb.seal();

  chatfuzz::sim::Platform plat;
  plat.max_steps = smoke ? 20000 : 400000;
  chatfuzz::sim::IsaSim sim(plat);
  sim.reset(prog);
  sim.run();  // warm-up (page faults, branch history)
  // Timed run starts from reset like every campaign test does, so the
  // number includes the cold predecode-cache repopulation each test pays.
  sim.reset(prog);
  const double t0 = now_sec();
  const auto run = sim.run();
  const double iss_sps = static_cast<double>(run.steps) / (now_sec() - t0);

  std::printf(
      "{\"bench\":\"gen_throughput\",\"smoke\":%s,"
      "\"gen_tokens_per_sec\":%.1f,"
      "\"kernel_gflops\":%.3f,\"kernel_gflops_ref\":%.3f,"
      "\"kernel_speedup\":%.2f,"
      "\"iss_steps_per_sec\":%.0f,\"iss_steps\":%llu}\n",
      smoke ? "true" : "false", tps, gflops_fast, gflops_ref,
      gflops_fast / gflops_ref, iss_sps,
      static_cast<unsigned long long>(run.steps));
  return 0;
}
