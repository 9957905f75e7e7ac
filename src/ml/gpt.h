// GPT-2-class decoder-only transformer with manual forward/backward on CPU
// (llm.c-style flat buffers): token+position embeddings, pre-norm causal
// self-attention blocks, GELU MLPs, tied LM head, plus a scalar value head
// for PPO. This is the "LLM-based Input Generator" of the paper, scaled to
// CPU-trainable size (see DESIGN.md substitution table).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/kernels.h"
#include "util/serialize.h"

namespace chatfuzz::ml {

struct GptConfig {
  int vocab = 259;   // Tokenizer::kVocabSize
  int ctx = 128;     // max sequence length in tokens
  int n_layer = 4;
  int n_head = 4;
  int n_embd = 128;

  /// Paper-scale training benches (stage-1/2 convergence studies).
  static GptConfig paper() { return GptConfig{}; }
  /// Campaign config: small enough that a full fuzzing loop (generate →
  /// simulate → PPO) runs in seconds per batch on one CPU core.
  static GptConfig small() { return GptConfig{259, 128, 2, 4, 64}; }
  /// Unit-test config (gradient checks etc.).
  static GptConfig tiny() { return GptConfig{64, 32, 1, 2, 16}; }

  int head_size() const { return n_embd / n_head; }
};

/// Flat-buffer GPT-2 model. All parameters live in one contiguous vector
/// (same layout for gradients), which makes the optimizer and
/// reference-model snapshots trivial.
class Gpt {
 public:
  /// Validates the config hard (even in release builds): ctx/vocab/n_embd
  /// must be positive and n_embd divisible by n_head — generation scratch
  /// and the attention head split are sized from these.
  Gpt(GptConfig cfg, std::uint64_t seed);

  const GptConfig& config() const { return cfg_; }
  std::size_t num_params() const { return params_.size(); }
  std::vector<float>& params() { return params_; }
  const std::vector<float>& params() const { return params_; }
  std::vector<float>& grads() { return grads_; }
  void zero_grad();

  /// Make this model a parameter copy of `other` (reference snapshots).
  void copy_params_from(const Gpt& other);

  // ---- training-path forward/backward -------------------------------------
  /// Forward over a [B,T] token batch. Computes logits, log-softmax-ready
  /// probs, and the value head. T must be <= ctx; tokens in [0, vocab).
  void forward(const int* tokens, int B, int T);

  /// Language-model loss vs. targets [B,T] (target -1 = ignore position).
  /// Must follow forward() on the same batch. Accumulates gradients and
  /// returns mean cross-entropy over non-ignored positions.
  float backward_lm(const int* tokens, const int* targets, int B, int T);

  /// Policy-gradient path: caller supplies dL/dlogits [B,T,V] and
  /// dL/dvalue [B,T]; gradients are accumulated into grads().
  void backward_from(const int* tokens, const float* dlogits,
                     const float* dvalues, int B, int T);

  /// Views of the last forward's outputs.
  const float* logits() const { return acts_ptr(kActLogits); }
  const float* probs() const { return acts_ptr(kActProbs); }
  const float* values() const { return acts_ptr(kActValues); }
  int last_B() const { return B_; }
  int last_T() const { return T_; }

  /// Log-probability of token `tok` at (b, t) from the last forward.
  float logprob(int b, int t, int tok) const;

  // ---- incremental (KV-cache) generation path ------------------------------
  /// Opaque per-generation state: per-layer K/V caches for a batch, packed
  /// (transposed) weight views so each per-token matvec streams weights
  /// linearly, and all decode scratch (including the attention-score buffer,
  /// sized from cfg.ctx — no fixed-size stack arrays).
  struct GenState {
    int B = 0;
    int t = 0;  // positions already consumed
    std::vector<float> kcache;  // [L, B, C, ctx]: K transposed per lane
    std::vector<float> vcache;  // [L, B, ctx, C]
    std::vector<float> scratch;
    std::vector<float> att;          // [ctx] attention-score scratch
    std::vector<float> norm;         // [2, B] layernorm mean/rstd scratch
    std::vector<kern::PackedMat> wpack;  // per layer: qkv, attproj, fc,
                                         // fcproj; then the tied LM head
  };

  /// Begin incremental generation for a batch of B sequences.
  GenState gen_begin(int B) const;

  /// Feed one token per sequence (tokens_t[B], position = state.t) and get
  /// next-token logits [B, vocab] in logits_out. Advances state.t. Throws
  /// std::out_of_range on a token id outside [0, vocab).
  void gen_step(GenState& state, const int* tokens_t, float* logits_out) const;

  // ---- persistence ----------------------------------------------------------
  /// Versioned + checksummed model file (util/serialize.h container). On
  /// failure the Status carries the path and errno / truncation / config
  /// detail — callers must surface it, not silently fall back to a fresh
  /// model. load() requires the file's config to match this model's.
  ser::Status save(const std::string& path) const;
  ser::Status load(const std::string& path);

  /// Embed / extract the parameters within a larger snapshot stream
  /// (campaign checkpoints). Config is validated the same way load() does.
  void save_state(ser::Writer& w) const;
  bool restore_state(ser::Reader& r);

 private:
  enum ActName {
    kActEncoded, kActLnf, kActLnfMean, kActLnfRstd, kActLogits, kActProbs,
    kActValues,
  };
  const float* acts_ptr(ActName which) const;
  void ensure_acts(int B, int T);

  GptConfig cfg_;
  std::vector<float> params_;
  std::vector<float> grads_;

  // Activation & activation-gradient arenas for the current (B,T).
  int B_ = 0, T_ = 0;
  std::vector<float> acts_;
  std::vector<float> dacts_;

  struct Layout;  // parameter/activation offset tables
};

}  // namespace chatfuzz::ml
