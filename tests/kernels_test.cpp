// Parity and determinism tests for the vectorized ML kernel subsystem
// (ml/kernels.h): every optimized kernel against its naive reference on
// randomized shapes, the FMA-chain contract bit for bit, bit-identical
// results across thread counts, and end-to-end incremental-vs-full
// generation parity.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/gpt.h"
#include "ml/kernels.h"
#include "util/rng.h"

namespace kern = chatfuzz::ml::kern;
using chatfuzz::Rng;
using chatfuzz::ml::Gpt;
using chatfuzz::ml::GptConfig;

namespace {

std::vector<float> random_vec(Rng& rng, std::size_t n, float scale = 1.f) {
  std::vector<float> v(n);
  for (float& x : v) x = (static_cast<float>(rng.uniform()) - 0.5f) * scale;
  return v;
}

/// Relative-ish tolerance: the optimized kernels keep the reference
/// accumulation order, but FMA contraction differs between loop shapes.
void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float mag = std::max(1.f, std::fabs(b[i]));
    ASSERT_NEAR(a[i], b[i], tol * mag) << "at " << i;
  }
}

struct Shape {
  int N, Cin, Cout;
};

// Includes the tile edges: Cout 259 and 1, N = 4k + 3, Cin = 16, and a
// dweight reduction longer than one 256-row chunk.
const Shape kShapes[] = {
    {1, 16, 48},  {1, 128, 259}, {3, 64, 256},  {5, 37, 91},
    {8, 128, 512}, {17, 1, 7},   {2, 200, 1},   {64, 48, 48},
    {7, 16, 259}, {11, 64, 1},   {19, 16, 33},  {35, 64, 259},
    {259, 16, 24},
};

/// The kernels' bits are pinned (FMA chains) only in the default build.
bool fma_build() { return std::string(CHATFUZZ_KERNEL_MARCH) == "x86-64-v3"; }

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

TEST(Kernels, MatmulForwardMatchesRef) {
  Rng rng(11);
  for (const Shape& s : kShapes) {
    const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
    const auto w =
        random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
    const auto bias = random_vec(rng, s.Cout);
    std::vector<float> ref(static_cast<std::size_t>(s.N) * s.Cout);
    std::vector<float> fast(ref.size());
    kern::matmul_forward_ref(ref.data(), inp.data(), w.data(), bias.data(),
                             s.N, s.Cin, s.Cout);
    kern::matmul_forward(fast.data(), inp.data(), w.data(), bias.data(), s.N,
                         s.Cin, s.Cout);
    expect_close(fast, ref, 1e-5f);
    // nullptr bias path
    kern::matmul_forward_ref(ref.data(), inp.data(), w.data(), nullptr, s.N,
                             s.Cin, s.Cout);
    kern::matmul_forward(fast.data(), inp.data(), w.data(), nullptr, s.N,
                         s.Cin, s.Cout);
    expect_close(fast, ref, 1e-5f);
  }
}

TEST(Kernels, MatmulBackwardMatchesRef) {
  Rng rng(12);
  for (const Shape& s : kShapes) {
    const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
    const auto w =
        random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
    const auto dout = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cout);
    // Non-zero initial accumulators: backward kernels accumulate (+=).
    const auto seed_di = random_vec(rng, inp.size(), 0.1f);
    const auto seed_dw = random_vec(rng, w.size(), 0.1f);
    const auto seed_db = random_vec(rng, s.Cout, 0.1f);

    auto di_ref = seed_di, dw_ref = seed_dw, db_ref = seed_db;
    auto di_fast = seed_di, dw_fast = seed_dw, db_fast = seed_db;
    kern::matmul_backward_ref(di_ref.data(), dw_ref.data(), db_ref.data(),
                              dout.data(), inp.data(), w.data(), s.N, s.Cin,
                              s.Cout);
    kern::matmul_backward(di_fast.data(), dw_fast.data(), db_fast.data(),
                          dout.data(), inp.data(), w.data(), s.N, s.Cin,
                          s.Cout);
    expect_close(di_fast, di_ref, 1e-5f);
    expect_close(dw_fast, dw_ref, 1e-5f);
    expect_close(db_fast, db_ref, 1e-5f);
  }
}

TEST(Kernels, FusedBiasGeluMatchesComposition) {
  Rng rng(13);
  const Shape s{6, 48, 96};
  const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
  const auto w = random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
  const auto bias = random_vec(rng, s.Cout);
  std::vector<float> pre_ref(static_cast<std::size_t>(s.N) * s.Cout);
  std::vector<float> post_ref(pre_ref.size());
  kern::matmul_forward_ref(pre_ref.data(), inp.data(), w.data(), bias.data(),
                           s.N, s.Cin, s.Cout);
  kern::gelu_forward_ref(post_ref.data(), pre_ref.data(),
                         static_cast<int>(pre_ref.size()));
  std::vector<float> pre(pre_ref.size()), post(pre_ref.size());
  kern::matmul_bias_gelu_forward(pre.data(), post.data(), inp.data(), w.data(),
                                 bias.data(), s.N, s.Cin, s.Cout);
  expect_close(pre, pre_ref, 1e-5f);
  expect_close(post, post_ref, 1e-5f);
}

TEST(Kernels, PackedMatvecMatchesRef) {
  Rng rng(14);
  for (const Shape& s : kShapes) {
    const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
    const auto w =
        random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
    const auto bias = random_vec(rng, s.Cout);
    kern::PackedMat packed;
    kern::pack_transpose(packed, w.data(), s.Cout, s.Cin);
    ASSERT_EQ(packed.cout, s.Cout);
    ASSERT_EQ(packed.cin, s.Cin);
    std::vector<float> ref(static_cast<std::size_t>(s.N) * s.Cout);
    std::vector<float> fast(ref.size());
    kern::matmul_forward_ref(ref.data(), inp.data(), w.data(), bias.data(),
                             s.N, s.Cin, s.Cout);
    kern::matmul_forward_packed(fast.data(), inp.data(), packed, bias.data(),
                                s.N);
    expect_close(fast, ref, 1e-5f);
  }
}

TEST(Kernels, ThreadSplitterIsBitIdentical) {
  Rng rng(15);
  // Enough work to actually engage the pool, at interior and edge shapes.
  const Shape shapes[] = {{61, 96, 224}, {203, 16, 259}, {43, 64, 259},
                          {4095, 64, 1}};
  const int saved = kern::num_threads();
  for (const Shape& s : shapes) {
    SCOPED_TRACE(testing::Message() << s.N << "x" << s.Cin << "x" << s.Cout);
    const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
    const auto w =
        random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
    const auto bias = random_vec(rng, s.Cout);
    const auto dout = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cout);
    kern::PackedMat packed;
    kern::pack_transpose(packed, w.data(), s.Cout, s.Cin);

    std::vector<std::vector<float>> first;
    for (const int nt : {1, 3, 7}) {
      kern::set_num_threads(nt);
      const std::size_t NC = static_cast<std::size_t>(s.N) * s.Cout;
      std::vector<float> out(NC), pout(NC), pre(NC), post(NC);
      kern::matmul_forward(out.data(), inp.data(), w.data(), bias.data(), s.N,
                           s.Cin, s.Cout);
      kern::matmul_forward_packed(pout.data(), inp.data(), packed, bias.data(),
                                  s.N);
      kern::matmul_bias_gelu_forward(pre.data(), post.data(), inp.data(),
                                     w.data(), bias.data(), s.N, s.Cin,
                                     s.Cout);
      std::vector<float> di(inp.size(), 0.f), dw(w.size(), 0.f),
          db(s.Cout, 0.f);
      kern::matmul_backward(di.data(), dw.data(), db.data(), dout.data(),
                            inp.data(), w.data(), s.N, s.Cin, s.Cout);
      std::vector<std::vector<float>> got = {out, pout, pre, post, di, dw, db};
      if (first.empty()) {
        first = std::move(got);
        continue;
      }
      // Bit-identical, not merely close: the determinism contract.
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_TRUE(same_bits(first[k], got[k]))
            << "output " << k << " differs at " << nt << " threads";
      }
    }
  }
  kern::set_num_threads(saved);
}

TEST(Kernels, MatmulsAreOneFmaChainPerElement) {
  // The determinism contract of the default build, checked bit for bit
  // against std::fma: each output element is one fused multiply-add chain
  // over the reduction index in ascending order (forward from the bias,
  // backward from the incoming accumulator); dbias is a plain sum.
  if (!fma_build()) {
    GTEST_SKIP() << "kernels built for \"" CHATFUZZ_KERNEL_MARCH
                    "\", not x86-64-v3: no FMA chain to pin";
  }
  Rng rng(16);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(testing::Message() << s.N << "x" << s.Cin << "x" << s.Cout);
    const std::size_t NC = static_cast<std::size_t>(s.N) * s.Cout;
    const auto inp = random_vec(rng, static_cast<std::size_t>(s.N) * s.Cin);
    const auto w =
        random_vec(rng, static_cast<std::size_t>(s.Cout) * s.Cin, 0.2f);
    const auto bias = random_vec(rng, s.Cout);
    const auto dout = random_vec(rng, NC);
    const auto seed_di = random_vec(rng, inp.size(), 0.1f);
    const auto seed_dw = random_vec(rng, w.size(), 0.1f);
    const auto seed_db = random_vec(rng, s.Cout, 0.1f);

    std::vector<float> want(NC);
    for (int n = 0; n < s.N; ++n) {
      for (int o = 0; o < s.Cout; ++o) {
        float acc = bias[o];
        for (int i = 0; i < s.Cin; ++i) {
          acc = std::fma(inp[static_cast<std::size_t>(n) * s.Cin + i],
                         w[static_cast<std::size_t>(o) * s.Cin + i], acc);
        }
        want[static_cast<std::size_t>(n) * s.Cout + o] = acc;
      }
    }
    auto want_di = seed_di;
    auto want_dw = seed_dw;
    auto want_db = seed_db;
    for (int n = 0; n < s.N; ++n) {
      for (int i = 0; i < s.Cin; ++i) {
        float& acc = want_di[static_cast<std::size_t>(n) * s.Cin + i];
        for (int o = 0; o < s.Cout; ++o) {
          acc = std::fma(dout[static_cast<std::size_t>(n) * s.Cout + o],
                         w[static_cast<std::size_t>(o) * s.Cin + i], acc);
        }
      }
    }
    for (int o = 0; o < s.Cout; ++o) {
      for (int i = 0; i < s.Cin; ++i) {
        float& acc = want_dw[static_cast<std::size_t>(o) * s.Cin + i];
        for (int n = 0; n < s.N; ++n) {
          acc = std::fma(dout[static_cast<std::size_t>(n) * s.Cout + o],
                         inp[static_cast<std::size_t>(n) * s.Cin + i], acc);
        }
      }
      for (int n = 0; n < s.N; ++n) {
        want_db[o] += dout[static_cast<std::size_t>(n) * s.Cout + o];
      }
    }

    std::vector<float> out(NC), pout(NC), pre(NC), post(NC);
    kern::matmul_forward(out.data(), inp.data(), w.data(), bias.data(), s.N,
                         s.Cin, s.Cout);
    kern::PackedMat packed;
    kern::pack_transpose(packed, w.data(), s.Cout, s.Cin);
    kern::matmul_forward_packed(pout.data(), inp.data(), packed, bias.data(),
                                s.N);
    kern::matmul_bias_gelu_forward(pre.data(), post.data(), inp.data(),
                                   w.data(), bias.data(), s.N, s.Cin, s.Cout);
    auto di = seed_di, dw = seed_dw, db = seed_db;
    kern::matmul_backward(di.data(), dw.data(), db.data(), dout.data(),
                          inp.data(), w.data(), s.N, s.Cin, s.Cout);
    EXPECT_TRUE(same_bits(out, want));
    EXPECT_TRUE(same_bits(pout, want));
    EXPECT_TRUE(same_bits(pre, want));
    EXPECT_TRUE(same_bits(di, want_di));
    EXPECT_TRUE(same_bits(dw, want_dw));
    EXPECT_TRUE(same_bits(db, want_db));
  }
}

TEST(Kernels, GptOutputsBitIdenticalAcrossMlThreads) {
  // Forward probs/values, backward grads and gen_step logits of the
  // campaign model must not move a bit with the kernel thread count.
  const GptConfig cfg = GptConfig::small();
  const int B = 8, T = 40, V = cfg.vocab, G = 16, steps = 6;
  const std::size_t BT = static_cast<std::size_t>(B) * T;
  Rng rng(21);
  std::vector<int> toks(BT);
  for (int& t : toks) t = static_cast<int>(rng.below(V));
  std::vector<float> dlogits = random_vec(rng, BT * V, 0.01f);
  std::vector<float> dvalues = random_vec(rng, BT, 0.01f);
  std::vector<int> gen_toks(static_cast<std::size_t>(G) * steps);
  for (int& t : gen_toks) t = static_cast<int>(rng.below(V));

  const int saved = kern::num_threads();
  std::vector<std::vector<float>> first;
  for (const int nt : {1, 3, 4}) {
    kern::set_num_threads(nt);
    Gpt model(cfg, 31);
    model.forward(toks.data(), B, T);
    std::vector<float> probs(model.probs(), model.probs() + BT * V);
    std::vector<float> values(model.values(), model.values() + BT);
    model.zero_grad();
    model.backward_from(toks.data(), dlogits.data(), dvalues.data(), B, T);
    Gpt::GenState st = model.gen_begin(G);
    std::vector<float> logits(static_cast<std::size_t>(G) * V * steps);
    for (int t = 0; t < steps; ++t) {
      model.gen_step(st, gen_toks.data() + static_cast<std::size_t>(t) * G,
                     logits.data() + static_cast<std::size_t>(t) * G * V);
    }
    std::vector<std::vector<float>> got = {probs, values, model.grads(),
                                           logits};
    if (first.empty()) {
      first = std::move(got);
      continue;
    }
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_TRUE(same_bits(first[k], got[k]))
          << "output " << k << " differs at " << nt << " threads";
    }
  }
  kern::set_num_threads(saved);
}

// ---- end-to-end model parity ------------------------------------------------

TEST(Kernels, GenStepMatchesForwardAtEveryPosition) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 99);
  Rng rng(5);
  const int T = 20;
  std::vector<int> seq(T);
  for (int& t : seq) t = static_cast<int>(rng.below(cfg.vocab));

  model.forward(seq.data(), 1, T);
  std::vector<float> full(static_cast<std::size_t>(T) * cfg.vocab);
  std::memcpy(full.data(), model.logits(), full.size() * sizeof(float));

  Gpt::GenState st = model.gen_begin(1);
  std::vector<float> step(cfg.vocab);
  for (int t = 0; t < T; ++t) {
    model.gen_step(st, &seq[t], step.data());
    for (int v = 0; v < cfg.vocab; ++v) {
      ASSERT_NEAR(step[v], full[static_cast<std::size_t>(t) * cfg.vocab + v],
                  1e-3f)
          << "t=" << t << " v=" << v;
    }
  }
}

TEST(Kernels, GenerationBeyondOldFixedScratchBound) {
  // The seed used a fixed float[512] attention-score stack buffer in
  // gen_step; a ctx above 512 would have overrun it. The scratch is now
  // sized from the config.
  const GptConfig cfg{32, 520, 1, 2, 8};
  Gpt model(cfg, 9);
  Gpt::GenState st = model.gen_begin(1);
  std::vector<float> logits(cfg.vocab);
  int tok = 1;
  for (int t = 0; t < cfg.ctx; ++t) {
    model.gen_step(st, &tok, logits.data());
    tok = t % cfg.vocab;
  }
  for (int v = 0; v < cfg.vocab; ++v) {
    ASSERT_TRUE(std::isfinite(logits[v])) << v;
  }
}

TEST(KernelsDeathTest, RejectsIndivisibleHeadSplit) {
  // n_embd % n_head != 0 must die loudly at construction, not corrupt
  // memory in the attention head split later.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const GptConfig bad{64, 32, 1, 3, 16};
  EXPECT_DEATH({ Gpt model(bad, 1); }, "divisible by n_head");
}

TEST(KernelsDeathTest, RejectsNonPositiveCtx) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const GptConfig bad{64, 0, 1, 2, 16};
  EXPECT_DEATH({ Gpt model(bad, 1); }, "invalid config");
}
