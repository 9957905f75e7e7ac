// ML subsystem tests: tokenizer round-trips, finite-difference gradient
// checks on the hand-written backprop, LM training convergence, KV-cache
// generation vs. full forward consistency, sampler determinism, AdamW, and
// a PPO sanity task (policy learns to prefer a rewarded token).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "ml/adamw.h"
#include "ml/gpt.h"
#include "ml/ppo.h"
#include "ml/sampler.h"
#include "ml/tokenizer.h"
#include "riscv/encode.h"
#include "util/rng.h"

namespace chatfuzz::ml {
namespace {

// ---- tokenizer ---------------------------------------------------------------

TEST(Tokenizer, RoundTripsPrograms) {
  Tokenizer tok;
  const std::vector<std::uint32_t> prog = {
      riscv::enc_i(riscv::Opcode::kAddi, 1, 0, 5),
      riscv::enc_r(riscv::Opcode::kAdd, 2, 1, 1), 0xdeadbeefu};
  const auto tokens = tok.encode(prog, true, true);
  EXPECT_EQ(tokens.size(), prog.size() * 4 + 2);
  EXPECT_EQ(tokens.front(), Tokenizer::kBos);
  EXPECT_EQ(tokens.back(), Tokenizer::kEos);
  EXPECT_EQ(tok.decode(tokens), prog);
}

TEST(Tokenizer, DecodeStopsAtEos) {
  Tokenizer tok;
  std::vector<int> tokens = {Tokenizer::kBos, 1, 2, 3, 4, Tokenizer::kEos,
                             5, 6, 7, 8};
  const auto words = tok.decode(tokens);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0], 0x04030201u);
}

TEST(Tokenizer, IncompleteTrailingBytesDropped) {
  Tokenizer tok;
  std::vector<int> tokens = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(tok.decode(tokens).size(), 1u);
}

TEST(Tokenizer, AllTokensWithinVocab) {
  Tokenizer tok;
  const auto tokens = tok.encode(std::vector<std::uint32_t>{0xffffffffu}, true, true);
  for (int t : tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, Tokenizer::kVocabSize);
  }
}

// ---- gradient check -----------------------------------------------------------

float lm_loss_only(Gpt& model, const int* tokens, const int* targets, int B,
                   int T) {
  model.forward(tokens, B, T);
  const float* probs = model.probs();
  const int V = model.config().vocab;
  float loss = 0.f;
  int count = 0;
  for (int n = 0; n < B * T; ++n) {
    if (targets[n] < 0) continue;
    loss += -std::log(probs[static_cast<std::size_t>(n) * V + targets[n]] + 1e-10f);
    ++count;
  }
  return loss / static_cast<float>(count);
}

TEST(GradCheck, BackwardMatchesFiniteDifferences) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 123);
  Rng rng(9);
  const int B = 2, T = 8;
  std::vector<int> tokens(B * T), targets(B * T);
  for (auto& t : tokens) t = static_cast<int>(rng.below(cfg.vocab));
  for (auto& t : targets) t = static_cast<int>(rng.below(cfg.vocab));
  targets[3] = -1;  // exercise the ignore path

  model.forward(tokens.data(), B, T);
  model.zero_grad();
  model.backward_lm(tokens.data(), targets.data(), B, T);
  const std::vector<float> grads = model.grads();

  // Probe a spread of parameter indices; double-sided differences.
  int checked = 0;
  for (int probe = 0; probe < 300 && checked < 25; ++probe) {
    const std::size_t idx = rng.below(model.num_params());
    if (std::fabs(grads[idx]) < 1e-4f) continue;  // numerically fragile
    const float eps = 1e-2f;
    const float orig = model.params()[idx];
    model.params()[idx] = orig + eps;
    const float lp = lm_loss_only(model, tokens.data(), targets.data(), B, T);
    model.params()[idx] = orig - eps;
    const float lm = lm_loss_only(model, tokens.data(), targets.data(), B, T);
    model.params()[idx] = orig;
    const float numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(numeric, grads[idx],
                std::max(2e-2f, 0.15f * std::fabs(grads[idx])))
        << "param index " << idx;
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(GradCheck, ValueHeadGradient) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 5);
  Rng rng(11);
  const int B = 1, T = 4;
  std::vector<int> tokens(B * T);
  for (auto& t : tokens) t = static_cast<int>(rng.below(cfg.vocab));
  model.forward(tokens.data(), B, T);
  // Loss = value at position 2 (dvalue = 1 there).
  std::vector<float> dlogits(static_cast<std::size_t>(B) * T * cfg.vocab, 0.f);
  std::vector<float> dvalues(static_cast<std::size_t>(B) * T, 0.f);
  dvalues[2] = 1.f;
  model.zero_grad();
  model.backward_from(tokens.data(), dlogits.data(), dvalues.data(), B, T);
  const std::vector<float> grads = model.grads();

  auto value_at_2 = [&]() {
    model.forward(tokens.data(), B, T);
    return model.values()[2];
  };
  Rng probe_rng(17);
  int checked = 0;
  for (int probe = 0; probe < 200 && checked < 10; ++probe) {
    const std::size_t idx = probe_rng.below(model.num_params());
    if (std::fabs(grads[idx]) < 1e-4f) continue;
    const float eps = 1e-2f;
    const float orig = model.params()[idx];
    model.params()[idx] = orig + eps;
    const float vp = value_at_2();
    model.params()[idx] = orig - eps;
    const float vm = value_at_2();
    model.params()[idx] = orig;
    const float numeric = (vp - vm) / (2 * eps);
    EXPECT_NEAR(numeric, grads[idx],
                std::max(2e-2f, 0.15f * std::fabs(grads[idx])));
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

TEST(GradCheck, BackwardLeavesNoStateForTheNextCall) {
  // backward_from reuses its gradient arena across calls at one shape. A
  // second call on other inputs must give the gradient bits of one call on
  // a fresh model, or some region was read before it was zeroed.
  const GptConfig cfg = GptConfig::tiny();
  const int B = 2, T = 7;
  auto pass = [&](Gpt& model, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<int> tokens(B * T);
    for (auto& t : tokens) t = static_cast<int>(rng.below(cfg.vocab));
    std::vector<float> dlogits(B * T * cfg.vocab), dvalues(B * T);
    for (auto& g : dlogits) g = static_cast<float>(rng.uniform()) - 0.5f;
    for (auto& g : dvalues) g = static_cast<float>(rng.uniform()) - 0.5f;
    model.zero_grad();
    model.forward(tokens.data(), B, T);
    model.backward_from(tokens.data(), dlogits.data(), dvalues.data(), B, T);
  };
  Gpt reused(cfg, 9), fresh(cfg, 9);
  pass(reused, 1);
  pass(reused, 2);
  pass(fresh, 2);
  EXPECT_EQ(std::memcmp(reused.grads().data(), fresh.grads().data(),
                        fresh.grads().size() * sizeof(float)),
            0);
}

// ---- training convergence -------------------------------------------------------

TEST(Training, LossDecreasesOnFixedBatch) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 3);
  AdamW opt(model.num_params(), AdamWConfig{1e-2f});
  Rng rng(4);
  const int B = 4, T = 16;
  std::vector<int> tokens(B * T), targets(B * T);
  for (int n = 0; n < B * T; ++n) {
    tokens[n] = static_cast<int>(rng.below(8));   // tiny sub-vocabulary
    targets[n] = (tokens[n] + 1) % 8;             // deterministic mapping
  }
  float first = 0.f, last = 0.f;
  for (int step = 0; step < 60; ++step) {
    model.forward(tokens.data(), B, T);
    model.zero_grad();
    const float loss = model.backward_lm(tokens.data(), targets.data(), B, T);
    opt.step(model.params(), model.grads());
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.2f) << "first=" << first << " last=" << last;
}

// ---- KV-cache generation consistency ---------------------------------------------

TEST(Generation, IncrementalMatchesFullForward) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 21);
  Rng rng(2);
  const int T = 12;
  std::vector<int> seq(T);
  for (auto& t : seq) t = static_cast<int>(rng.below(cfg.vocab));

  // Full forward logits at the last position...
  model.forward(seq.data(), 1, T);
  std::vector<float> full(model.config().vocab);
  const float* logits = model.logits();
  for (int v = 0; v < cfg.vocab; ++v) {
    full[v] = logits[static_cast<std::size_t>(T - 1) * cfg.vocab + v];
  }
  // ...must match the KV-cache path fed token by token.
  Gpt::GenState st = model.gen_begin(1);
  std::vector<float> step_logits(cfg.vocab);
  for (int t = 0; t < T; ++t) {
    model.gen_step(st, &seq[t], step_logits.data());
  }
  for (int v = 0; v < cfg.vocab; ++v) {
    EXPECT_NEAR(step_logits[v], full[v], 1e-3f) << v;
  }
}

TEST(Generation, BatchLanesAreIndependent) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 21);
  const int B = 3;
  Gpt::GenState st = model.gen_begin(B);
  std::vector<int> toks = {5, 9, 13};
  std::vector<float> logits(static_cast<std::size_t>(B) * cfg.vocab);
  model.gen_step(st, toks.data(), logits.data());
  // Lane 1 must equal a single-lane run with the same token.
  Gpt::GenState solo = model.gen_begin(1);
  std::vector<float> solo_logits(cfg.vocab);
  model.gen_step(solo, &toks[1], solo_logits.data());
  for (int v = 0; v < cfg.vocab; ++v) {
    EXPECT_NEAR(logits[cfg.vocab + v], solo_logits[v], 1e-4f);
  }
}

// ---- sampler ---------------------------------------------------------------------

TEST(Sampler, DeterministicUnderFixedSeed) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 30);
  SampleConfig sc;
  sc.max_new_tokens = 12;
  sc.stop_at_eos = false;  // never stop early
  sc.eos_token = cfg.vocab - 1;  // in vocab: finished lanes are fed it
  Sampler sampler(sc);
  Rng r1(5), r2(5);
  const std::vector<std::vector<int>> prompts = {{1, 2, 3}, {4}};
  const auto g1 = sampler.generate(model, prompts, r1);
  const auto g2 = sampler.generate(model, prompts, r2);
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_EQ(g1[i].response, g2[i].response);
  }
}

TEST(Sampler, OutOfVocabEosThrows) {
  // Finished lanes are fed eos_token, so an id the model cannot embed must
  // be rejected up front rather than read past the embedding table.
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 30);
  SampleConfig sc;
  sc.eos_token = cfg.vocab;
  Sampler sampler(sc);
  Rng rng(5);
  EXPECT_THROW(sampler.generate(model, {{1, 2, 3}, {4}}, rng),
               std::invalid_argument);
  Gpt::GenState state = model.gen_begin(1);
  std::vector<float> logits(cfg.vocab);
  const int bad = cfg.vocab;
  EXPECT_THROW(model.gen_step(state, &bad, logits.data()), std::out_of_range);
}

TEST(Sampler, RespectsMaxNewTokens) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 30);
  SampleConfig sc;
  sc.max_new_tokens = 7;
  sc.stop_at_eos = false;
  sc.eos_token = cfg.vocab - 1;
  Sampler sampler(sc);
  Rng rng(5);
  const auto gens = sampler.generate(model, {{1, 2}}, rng);
  EXPECT_EQ(gens[0].response.size(), 7u);
  EXPECT_EQ(gens[0].response_logps.size(), 7u);
}

TEST(Sampler, MinNewTokensMasksEos) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 30);
  SampleConfig sc;
  sc.max_new_tokens = 20;
  sc.min_new_tokens = 20;
  sc.eos_token = 7;  // a token the tiny model would otherwise emit
  sc.top_k = 0;
  Sampler sampler(sc);
  Rng rng(5);
  const auto gens = sampler.generate(model, {{1}}, rng);
  ASSERT_EQ(gens[0].response.size(), 20u);
  for (int t : gens[0].response) EXPECT_NE(t, 7);
}

TEST(Sampler, LogpsAreSane) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt model(cfg, 30);
  SampleConfig sc;
  sc.max_new_tokens = 5;
  sc.stop_at_eos = false;
  sc.eos_token = cfg.vocab - 1;
  Sampler sampler(sc);
  Rng rng(5);
  const auto gens = sampler.generate(model, {{1, 2, 3}}, rng);
  for (float lp : gens[0].response_logps) {
    EXPECT_LE(lp, 0.f);
    EXPECT_GT(lp, -20.f);
  }
}

// ---- AdamW -----------------------------------------------------------------------

TEST(AdamWOpt, ConvergesOnQuadratic) {
  // min (x - 3)^2 via AdamW on a 1-element "model".
  std::vector<float> params = {0.f};
  std::vector<float> grads = {0.f};
  AdamW opt(1, AdamWConfig{0.1f, 0.9f, 0.999f, 1e-8f, 0.f, 0.f});
  for (int i = 0; i < 300; ++i) {
    grads[0] = 2.f * (params[0] - 3.f);
    opt.step(params, grads);
  }
  EXPECT_NEAR(params[0], 3.f, 0.05f);
}

TEST(AdamWOpt, GradClipBoundsNorm) {
  std::vector<float> params = {0.f, 0.f};
  std::vector<float> grads = {3e6f, 4e6f};
  AdamW opt(2, AdamWConfig{1.f, 0.9f, 0.999f, 1e-8f, 0.f, 1.0f});
  opt.step(params, grads);
  const float norm = std::sqrt(grads[0] * grads[0] + grads[1] * grads[1]);
  EXPECT_NEAR(norm, 1.0f, 1e-3f);
}

// ---- PPO sanity -------------------------------------------------------------------

TEST(Ppo, PolicyLearnsRewardedToken) {
  // Dense per-token reward: +1 for every response token equal to `kLucky`,
  // -0.1 otherwise. PPO must substantially raise the sampling probability of
  // the lucky token.
  constexpr int kLucky = 11;
  const GptConfig cfg = GptConfig::tiny();
  Gpt policy(cfg, 77);
  Gpt ref(cfg, 77);
  ref.copy_params_from(policy);
  PpoConfig pc;
  pc.lr = 3e-3f;
  pc.kl_beta = 0.0f;  // pure reward for this sanity check
  pc.reward_scale = 1.0f;
  pc.ppo_epochs = 2;
  PpoTrainer ppo(policy, ref, pc);
  SampleConfig sc;
  sc.max_new_tokens = 6;
  sc.stop_at_eos = false;
  sc.eos_token = cfg.vocab - 1;
  sc.top_k = 0;
  Sampler sampler(sc);
  Rng rng(8);
  const std::vector<std::vector<int>> prompts(16, std::vector<int>{1, 2});

  auto lucky_prob = [&] {
    std::vector<int> toks = {1, 2};
    policy.forward(toks.data(), 1, 2);
    return std::exp(policy.logprob(0, 1, kLucky));
  };
  const float before = lucky_prob();
  for (int iter = 0; iter < 60; ++iter) {
    const auto gens = sampler.generate(policy, prompts, rng);
    std::vector<double> rewards(gens.size(), 0.0);
    std::vector<std::vector<float>> dense(gens.size());
    for (std::size_t i = 0; i < gens.size(); ++i) {
      for (int t : gens[i].response) {
        dense[i].push_back(t == kLucky ? 1.f : -0.1f);
      }
    }
    ppo.update(gens, rewards, &dense);
  }
  const float after = lucky_prob();
  EXPECT_GT(after, before * 3.f) << "before=" << before << " after=" << after;
  EXPECT_GT(after, 0.2f);
}

TEST(Ppo, StatsArePopulated) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt policy(cfg, 7), ref(cfg, 7);
  ref.copy_params_from(policy);
  PpoTrainer ppo(policy, ref, PpoConfig{});
  SampleConfig sc;
  sc.max_new_tokens = 6;
  sc.stop_at_eos = false;
  sc.eos_token = cfg.vocab - 1;
  Sampler sampler(sc);
  Rng rng(3);
  const auto gens = sampler.generate(policy, {{1}, {2}}, rng);
  const PpoStats st = ppo.update(gens, {1.0, -1.0});
  EXPECT_EQ(st.num_actions, 12u);
  EXPECT_FLOAT_EQ(st.mean_env_reward, 0.f);
  EXPECT_GT(st.value_loss, 0.f);
}

TEST(Ppo, EmptyResponsesAreSkipped) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt policy(cfg, 7), ref(cfg, 7);
  ref.copy_params_from(policy);
  PpoTrainer ppo(policy, ref, PpoConfig{});
  Generation g;
  g.prompt = {1, 2};
  const PpoStats st = ppo.update({g}, {1.0});
  EXPECT_EQ(st.num_actions, 0u);
}

// ---- persistence -------------------------------------------------------------------

TEST(Persistence, SaveLoadRoundTrip) {
  const GptConfig cfg = GptConfig::tiny();
  Gpt a(cfg, 55);
  const std::string path = ::testing::TempDir() + "/gpt_test.bin";
  const ser::Status saved = a.save(path);
  ASSERT_TRUE(saved.ok()) << saved.message();
  Gpt b(cfg, 1);  // different init
  const ser::Status loaded = b.load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_EQ(a.params(), b.params());
}

TEST(Persistence, LoadRejectsWrongConfig) {
  Gpt a(GptConfig::tiny(), 55);
  const std::string path = ::testing::TempDir() + "/gpt_test2.bin";
  ASSERT_TRUE(a.save(path).ok());
  Gpt b(GptConfig::small(), 1);
  const ser::Status loaded = b.load(path);
  EXPECT_FALSE(loaded.ok());
  // The diagnostic must say what went wrong, not just "false".
  EXPECT_NE(loaded.message().find("config"), std::string::npos)
      << loaded.message();
}

}  // namespace
}  // namespace chatfuzz::ml
