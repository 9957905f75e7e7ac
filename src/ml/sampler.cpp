#include "ml/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace chatfuzz::ml {

int Sampler::sample_row(const float* logits, int vocab, Rng& rng,
                        bool ban_eos, float* logp_out) const {
  // Full-distribution log-softmax (PPO's logp_old must match what training
  // recomputes, independent of sampling temperature / top-k truncation).
  float maxv = -1e30f;
  for (int v = 0; v < vocab; ++v) maxv = std::max(maxv, logits[v]);
  double denom = 0.0;
  for (int v = 0; v < vocab; ++v) denom += std::exp(logits[v] - maxv);
  const double log_denom = std::log(denom);

  // Sampling distribution: temperature + top-k.
  const float invt = cfg_.temperature > 0.f ? 1.f / cfg_.temperature : 1.f;
  std::vector<std::pair<float, int>> scored(vocab);
  for (int v = 0; v < vocab; ++v) {
    const bool banned = ban_eos && v == cfg_.eos_token;
    scored[v] = {banned ? -1e30f : logits[v] * invt, v};
  }
  int k = cfg_.top_k > 0 ? std::min(cfg_.top_k, vocab) : vocab;
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](auto& x, auto& y) { return x.first > y.first; });
  float smax = scored[0].first;
  if (cfg_.top_p < 1.f) {
    // Nucleus filter (applied after top-k, as in the HF generate stack):
    // keep the smallest sorted prefix holding >= top_p of the *tempered*
    // distribution's mass; the mass denominator spans the full vocabulary.
    double full = 0.0;
    for (const auto& [score, _] : scored) full += std::exp(score - smax);
    double cum = 0.0;
    int kept = 0;
    while (kept < k) {
      cum += std::exp(scored[kept].first - smax);
      ++kept;
      if (cum / full >= cfg_.top_p) break;
    }
    k = kept;
  }
  double ssum = 0.0;
  for (int i = 0; i < k; ++i) ssum += std::exp(scored[i].first - smax);
  double r = rng.uniform() * ssum;
  int chosen = scored[k - 1].second;
  for (int i = 0; i < k; ++i) {
    const double p = std::exp(scored[i].first - smax);
    if (r < p) {
      chosen = scored[i].second;
      break;
    }
    r -= p;
  }
  if (logp_out != nullptr) {
    *logp_out = static_cast<float>(logits[chosen] - maxv - log_denom);
  }
  return chosen;
}

std::vector<Generation> Sampler::generate(
    const Gpt& model, const std::vector<std::vector<int>>& prompts,
    Rng& rng) const {
  const int B = static_cast<int>(prompts.size());
  const int ctx = model.config().ctx;
  if (cfg_.eos_token < 0 || cfg_.eos_token >= model.config().vocab) {
    throw std::invalid_argument(
        "Sampler: eos_token " + std::to_string(cfg_.eos_token) +
        " outside the model vocabulary of " +
        std::to_string(model.config().vocab));
  }
  std::vector<Generation> gens(B);
  for (int b = 0; b < B; ++b) gens[b].prompt = prompts[b];

  Gpt::GenState state = model.gen_begin(B);
  std::vector<int> cur(B);
  std::vector<bool> done(B, false);
  for (int b = 0; b < B; ++b) cur[b] = prompts[b].front();

  std::vector<float> logits(static_cast<std::size_t>(B) * model.config().vocab);
  const int vocab = model.config().vocab;

  for (int pos = 0; pos + 1 < ctx; ++pos) {
    bool any_active = false;
    for (int b = 0; b < B; ++b) any_active = any_active || !done[b];
    if (!any_active) break;

    model.gen_step(state, cur.data(), logits.data());

    for (int b = 0; b < B; ++b) {
      const auto prompt_len = static_cast<int>(prompts[b].size());
      if (pos + 1 < prompt_len) {
        cur[b] = prompts[b][pos + 1];  // still consuming the prompt
        continue;
      }
      if (done[b]) {
        cur[b] = cfg_.eos_token;  // keep the lane warm; outputs discarded
        continue;
      }
      float logp = 0.f;
      const bool ban_eos =
          static_cast<int>(gens[b].response.size()) < cfg_.min_new_tokens;
      const int tok = sample_row(logits.data() +
                                     static_cast<std::size_t>(b) * vocab,
                                 vocab, rng, ban_eos, &logp);
      gens[b].response.push_back(tok);
      gens[b].response_logps.push_back(logp);
      cur[b] = tok;
      if ((cfg_.stop_at_eos && tok == cfg_.eos_token) ||
          static_cast<int>(gens[b].response.size()) >= cfg_.max_new_tokens) {
        done[b] = true;
      }
    }
  }
  return gens;
}

}  // namespace chatfuzz::ml
