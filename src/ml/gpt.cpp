#include "ml/gpt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/kernels.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace chatfuzz::ml {

// ---------------------------------------------------------------------------
// Parameter layout: one flat buffer, offsets computed once per config.
// ---------------------------------------------------------------------------
struct Gpt::Layout {
  // global tensors
  std::size_t wte, wpe, lnfw, lnfb, valw, valb;
  // per-layer tensor offsets relative to layer base
  std::size_t ln1w, ln1b, qkvw, qkvb, attprojw, attprojb;
  std::size_t ln2w, ln2b, fcw, fcb, fcprojw, fcprojb;
  std::size_t layer_base, per_layer, total;

  static Layout make(const GptConfig& c) {
    const std::size_t C = c.n_embd, V = c.vocab, T = c.ctx;
    Layout o{};
    std::size_t at = 0;
    o.wte = at; at += V * C;
    o.wpe = at; at += T * C;
    o.layer_base = at;
    std::size_t l = 0;
    o.ln1w = l; l += C;
    o.ln1b = l; l += C;
    o.qkvw = l; l += 3 * C * C;
    o.qkvb = l; l += 3 * C;
    o.attprojw = l; l += C * C;
    o.attprojb = l; l += C;
    o.ln2w = l; l += C;
    o.ln2b = l; l += C;
    o.fcw = l; l += 4 * C * C;
    o.fcb = l; l += 4 * C;
    o.fcprojw = l; l += 4 * C * C;
    o.fcprojb = l; l += C;
    o.per_layer = l;
    at += o.per_layer * c.n_layer;
    o.lnfw = at; at += C;
    o.lnfb = at; at += C;
    o.valw = at; at += C;
    o.valb = at; at += 1;
    o.total = at;
    return o;
  }
};

namespace {

// ---- layer kernels (llm.c style, naive CPU loops) -------------------------

void encoder_forward(float* out, const int* tokens, const float* wte,
                     const float* wpe, int B, int T, int C) {
  for (int b = 0; b < B; ++b) {
    for (int t = 0; t < T; ++t) {
      float* o = out + (b * T + t) * C;
      const float* we = wte + tokens[b * T + t] * C;
      const float* pe = wpe + t * C;
      for (int c = 0; c < C; ++c) o[c] = we[c] + pe[c];
    }
  }
}

void encoder_backward(float* dwte, float* dwpe, const float* dout,
                      const int* tokens, int B, int T, int C) {
  for (int b = 0; b < B; ++b) {
    for (int t = 0; t < T; ++t) {
      const float* d = dout + (b * T + t) * C;
      float* dwt = dwte + tokens[b * T + t] * C;
      float* dwp = dwpe + t * C;
      for (int c = 0; c < C; ++c) {
        dwt[c] += d[c];
        dwp[c] += d[c];
      }
    }
  }
}

void layernorm_forward(float* out, float* mean, float* rstd, const float* inp,
                       const float* w, const float* b, int N, int C) {
  for (int n = 0; n < N; ++n) {
    const float* x = inp + n * C;
    float m = 0.f;
    for (int c = 0; c < C; ++c) m += x[c];
    m /= static_cast<float>(C);
    float v = 0.f;
    for (int c = 0; c < C; ++c) {
      const float d = x[c] - m;
      v += d * d;
    }
    v /= static_cast<float>(C);
    const float rs = 1.f / std::sqrt(v + 1e-5f);
    float* o = out + n * C;
    for (int c = 0; c < C; ++c) o[c] = (x[c] - m) * rs * w[c] + b[c];
    mean[n] = m;
    rstd[n] = rs;
  }
}

void layernorm_backward(float* dinp, float* dw, float* db, const float* dout,
                        const float* inp, const float* mean, const float* rstd,
                        const float* w, int N, int C) {
  for (int n = 0; n < N; ++n) {
    const float* x = inp + n * C;
    const float* d = dout + n * C;
    const float m = mean[n], rs = rstd[n];
    float dnorm_mean = 0.f, dnorm_norm_mean = 0.f;
    for (int c = 0; c < C; ++c) {
      const float norm = (x[c] - m) * rs;
      const float dnorm = w[c] * d[c];
      dnorm_mean += dnorm;
      dnorm_norm_mean += dnorm * norm;
    }
    dnorm_mean /= static_cast<float>(C);
    dnorm_norm_mean /= static_cast<float>(C);
    float* di = dinp + n * C;
    for (int c = 0; c < C; ++c) {
      const float norm = (x[c] - m) * rs;
      const float dnorm = w[c] * d[c];
      dw[c] += norm * d[c];
      db[c] += d[c];
      di[c] += (dnorm - dnorm_mean - norm * dnorm_norm_mean) * rs;
    }
  }
}

// ---- attention, vectorized across key positions -----------------------------
// Every dot over the head channels i keeps its sequential order over
// ascending i, and every sum over key positions its order over ascending
// t2; what runs in vector lanes is whichever index is not being reduced.
// For the dots that is the key position: each (b, h) pair works on
// transposed copies of its head's K, V and their gradients, one row of
// `stride` floats per channel i, padded with zeros to a multiple of 8
// positions so a sweep can round its length up.

constexpr int kLanes = 8;

int round_up_lanes(int n) { return (n + kLanes - 1) / kLanes * kLanes; }

/// Eight floats with elementwise IEEE arithmetic (a GCC vector extension:
/// one AVX register under -march=x86-64-v3, two SSE registers otherwise; a
/// scalar operand is broadcast). gpt.cpp builds with -ffp-contract=off, so
/// a + b * c stays two roundings. Vec8 values never cross a function
/// boundary, which keeps generic builds free of AVX calling conventions.
typedef float Vec8 __attribute__((vector_size(32)));

/// dst[i * stride + t] = qkv[b, t, part, h, i] for t < T (part 0/1/2 = q/k/v).
void gather_head(float* dst, std::size_t stride, const float* qkv, int b,
                 int h, int part, int T, int C, int hs) {
  for (int t = 0; t < T; ++t) {
    const float* src = qkv + (static_cast<std::size_t>(b) * T + t) * 3 * C +
                       part * C + h * hs;
    for (int i = 0; i < hs; ++i) dst[i * stride + t] = src[i];
  }
}

/// The inverse of gather_head.
void scatter_head(float* qkv, const float* src, std::size_t stride, int b,
                  int h, int part, int T, int C, int hs) {
  for (int t = 0; t < T; ++t) {
    float* dst = qkv + (static_cast<std::size_t>(b) * T + t) * 3 * C +
                 part * C + h * hs;
    for (int i = 0; i < hs; ++i) dst[i] = src[i * stride + t];
  }
}

/// dots[t2] = sum_i q[i] * kt[i * stride + t2] for t2 < n, ascending i.
void dots_across_keys(float* __restrict dots, const float* q,
                      const float* __restrict kt, std::size_t stride, int n,
                      int hs) {
  for (int t2 = 0; t2 < n; ++t2) dots[t2] = 0.f;
  for (int i = 0; i < hs; ++i) {
    const float qi = q[i];
    const float* __restrict kr = kt + i * stride;
    for (int t2 = 0; t2 < n; ++t2) dots[t2] += qi * kr[t2];
  }
}

/// dt[i * stride + t2] += w[t2] * x[i] for t2 < n: one rank-1 update of a
/// transposed head gradient, each element in its own ascending chain.
void rank1_across_keys(float* __restrict dt, std::size_t stride,
                       const float* __restrict w, const float* x, int n,
                       int hs) {
  for (int i = 0; i < hs; ++i) {
    const float xi = x[i];
    float* __restrict row = dt + i * stride;
    for (int t2 = 0; t2 < n; ++t2) row[t2] += w[t2] * xi;
  }
}

/// o[i] += w[t2] * rows[t2 * stride + i] for t2 < n in ascending order, for
/// every i < hs: lanes across the channels, accumulated in registers.
void weighted_row_sum(float* o, const float* w, const float* rows,
                      std::size_t stride, int n, int hs) {
  int i = 0;
  for (; i + 2 * kLanes <= hs; i += 2 * kLanes) {
    Vec8 lo, hi, r0, r1;
    std::memcpy(&lo, o + i, sizeof lo);
    std::memcpy(&hi, o + i + kLanes, sizeof hi);
    for (int t2 = 0; t2 < n; ++t2) {
      const float* r = rows + t2 * stride + i;
      std::memcpy(&r0, r, sizeof r0);
      std::memcpy(&r1, r + kLanes, sizeof r1);
      lo += w[t2] * r0;
      hi += w[t2] * r1;
    }
    std::memcpy(o + i, &lo, sizeof lo);
    std::memcpy(o + i + kLanes, &hi, sizeof hi);
  }
  for (; i < hs; ++i) {
    float acc = o[i];
    for (int t2 = 0; t2 < n; ++t2) acc += w[t2] * rows[t2 * stride + i];
    o[i] = acc;
  }
}

constexpr int kSoftmaxVecs = 4, kSoftmaxBlock = kSoftmaxVecs * kLanes;

/// Softmax backward of one attention row:
///   dpre[t2] += sum_t3 a[t3] * (ind(t2 == t3) - a[t2]) * da[t3]
/// for t2, t3 < n, one chain per t2 over ascending t3. Lanes run across t2
/// in blocks of kBlock held in registers for the whole t3 sweep; `na`
/// (scratch of round_up(n, kBlock) floats) holds 0 - a[t2], and while t3
/// crosses a block's own positions its lane t2 == t3 selects 1 - a[t3].
void softmax_backward_row(float* dpre, float* na, const float* a,
                          const float* da, int n) {
  typedef int Lanes8 __attribute__((vector_size(32)));
  const Lanes8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
  constexpr int kVecs = kSoftmaxVecs, kBlock = kSoftmaxBlock;
  const int nb = (n + kBlock - 1) / kBlock * kBlock;
  for (int t2 = 0; t2 < n; ++t2) na[t2] = 0.f - a[t2];
  for (int t2 = n; t2 < nb; ++t2) na[t2] = 0.f;
  for (int c0 = 0; c0 < n; c0 += kBlock) {
    const int c1 = c0 + kBlock < n ? c0 + kBlock : n;
    Vec8 acc[kVecs] = {}, m[kVecs];
    std::memcpy(m, na + c0, sizeof m);
    const auto sweep = [&](int t3, const Vec8* mul) {
      for (int u = 0; u < kVecs; ++u) acc[u] += a[t3] * mul[u] * da[t3];
    };
    for (int t3 = 0; t3 < c0; ++t3) sweep(t3, m);
    for (int t3 = c0; t3 < c1; ++t3) {
      const float om = 1.f - a[t3];
      const Vec8 one_minus = {om, om, om, om, om, om, om, om};
      Vec8 diag[kVecs];
      for (int u = 0; u < kVecs; ++u) {
        diag[u] = lane == t3 - c0 - u * kLanes ? one_minus : m[u];
      }
      sweep(t3, diag);
    }
    for (int t3 = c1; t3 < n; ++t3) sweep(t3, m);
    float out[kBlock];
    std::memcpy(out, acc, sizeof out);
    for (int t2 = c0; t2 < c1; ++t2) dpre[t2] += out[t2 - c0];
  }
}

void attention_forward(float* out, float* preatt, float* att, const float* qkv,
                       int B, int T, int C, int NH) {
  const int hs = C / NH;
  const float scale = 1.f / std::sqrt(static_cast<float>(hs));
  const std::size_t Tp = round_up_lanes(T);
  std::vector<float> kt(hs * Tp, 0.f), dots(Tp);
  for (int b = 0; b < B; ++b) {
    for (int h = 0; h < NH; ++h) {
      gather_head(kt.data(), Tp, qkv, b, h, 1, T, C, hs);
      const float* vrows = qkv + static_cast<std::size_t>(b) * T * 3 * C +
                           2 * C + h * hs;
      for (int t = 0; t < T; ++t) {
        const float* q = qkv + (b * T + t) * 3 * C + h * hs;
        float* pre = preatt + ((b * NH + h) * T + t) * T;
        float* a = att + ((b * NH + h) * T + t) * T;
        dots_across_keys(dots.data(), q, kt.data(), Tp, round_up_lanes(t + 1),
                         hs);
        float maxv = -1e30f;
        for (int t2 = 0; t2 <= t; ++t2) {
          const float dot = dots[t2] * scale;
          pre[t2] = dot;
          if (dot > maxv) maxv = dot;
        }
        float sum = 0.f;
        for (int t2 = 0; t2 <= t; ++t2) {
          const float e = std::exp(pre[t2] - maxv);
          a[t2] = e;
          sum += e;
        }
        const float inv = sum > 0.f ? 1.f / sum : 0.f;
        for (int t2 = 0; t2 <= t; ++t2) a[t2] *= inv;
        for (int t2 = t + 1; t2 < T; ++t2) {
          pre[t2] = 0.f;
          a[t2] = 0.f;
        }
        float* o = out + (b * T + t) * C + h * hs;
        for (int i = 0; i < hs; ++i) o[i] = 0.f;
        weighted_row_sum(o, a, vrows, 3 * C, t + 1, hs);
      }
    }
  }
}

void attention_backward(float* dqkv, const float* dout, const float* qkv,
                        const float* att, int B, int T, int C, int NH) {
  const int hs = C / NH;
  const float scale = 1.f / std::sqrt(static_cast<float>(hs));
  const std::size_t Tp = round_up_lanes(T);
  std::vector<float> vt(hs * Tp, 0.f), dvt(hs * Tp), dkt(hs * Tp);
  std::vector<float> acc(Tp), na(Tp + kSoftmaxBlock), g(Tp);
  // One query row's score gradients (through the weighted sum, then
  // through softmax): scratch that no other row reads.
  std::vector<float> da(Tp), dpre(Tp);
  for (int b = 0; b < B; ++b) {
    for (int h = 0; h < NH; ++h) {
      gather_head(vt.data(), Tp, qkv, b, h, 2, T, C, hs);
      gather_head(dvt.data(), Tp, dqkv, b, h, 2, T, C, hs);
      gather_head(dkt.data(), Tp, dqkv, b, h, 1, T, C, hs);
      const float* krows =
          qkv + static_cast<std::size_t>(b) * T * 3 * C + C + h * hs;
      for (int t = 0; t < T; ++t) {
        const float* a = att + ((b * NH + h) * T + t) * T;
        const float* d = dout + (b * T + t) * C + h * hs;
        const int n = t + 1;
        std::fill_n(da.begin(), n, 0.f);
        std::fill_n(dpre.begin(), n, 0.f);
        // through weighted sum of V
        dots_across_keys(acc.data(), d, vt.data(), Tp, round_up_lanes(n), hs);
        for (int t2 = 0; t2 < n; ++t2) da[t2] += acc[t2];
        rank1_across_keys(dvt.data(), Tp, a, d, n, hs);
        // through softmax
        softmax_backward_row(dpre.data(), na.data(), a, da.data(), n);
        // through q.k
        const float* q = qkv + (b * T + t) * 3 * C + h * hs;
        float* dq = dqkv + (b * T + t) * 3 * C + h * hs;
        for (int t2 = 0; t2 < n; ++t2) g[t2] = dpre[t2] * scale;
        weighted_row_sum(dq, g.data(), krows, 3 * C, n, hs);
        rank1_across_keys(dkt.data(), Tp, g.data(), q, n, hs);
      }
      scatter_head(dqkv, dvt.data(), Tp, b, h, 2, T, C, hs);
      scatter_head(dqkv, dkt.data(), Tp, b, h, 1, T, C, hs);
    }
  }
}

void residual_forward(float* out, const float* a, const float* b, int N) {
  for (int n = 0; n < N; ++n) out[n] = a[n] + b[n];
}

void softmax_forward(float* probs, const float* logits, int N, int V) {
  for (int n = 0; n < N; ++n) {
    const float* l = logits + n * V;
    float* p = probs + n * V;
    float maxv = -1e30f;
    for (int v = 0; v < V; ++v) maxv = l[v] > maxv ? l[v] : maxv;
    float sum = 0.f;
    for (int v = 0; v < V; ++v) {
      p[v] = std::exp(l[v] - maxv);
      sum += p[v];
    }
    const float inv = 1.f / sum;
    for (int v = 0; v < V; ++v) p[v] *= inv;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Activation arena layout (depends on B, T).
// ---------------------------------------------------------------------------
namespace {
struct ActLayout {
  // per-layer strides
  std::size_t ln1, ln1_mean, ln1_rstd, qkv, atty, preatt, att, attproj,
      res2, ln2, ln2_mean, ln2_rstd, fch, fch_gelu, fcproj, res3, per_layer;
  // globals
  std::size_t encoded, lnf, lnf_mean, lnf_rstd, logits, probs, values, total;
  std::size_t layer_base;

  static ActLayout make(const GptConfig& c, int B, int T) {
    const std::size_t BT = static_cast<std::size_t>(B) * T;
    const std::size_t C = c.n_embd, V = c.vocab, NH = c.n_head;
    ActLayout o{};
    std::size_t at = 0;
    o.encoded = at; at += BT * C;
    o.layer_base = at;
    std::size_t l = 0;
    o.ln1 = l; l += BT * C;
    o.ln1_mean = l; l += BT;
    o.ln1_rstd = l; l += BT;
    o.qkv = l; l += BT * 3 * C;
    o.atty = l; l += BT * C;
    o.preatt = l; l += static_cast<std::size_t>(B) * NH * T * T;
    o.att = l; l += static_cast<std::size_t>(B) * NH * T * T;
    o.attproj = l; l += BT * C;
    o.res2 = l; l += BT * C;
    o.ln2 = l; l += BT * C;
    o.ln2_mean = l; l += BT;
    o.ln2_rstd = l; l += BT;
    o.fch = l; l += BT * 4 * C;
    o.fch_gelu = l; l += BT * 4 * C;
    o.fcproj = l; l += BT * C;
    o.res3 = l; l += BT * C;
    o.per_layer = l;
    at += o.per_layer * c.n_layer;
    o.lnf = at; at += BT * C;
    o.lnf_mean = at; at += BT;
    o.lnf_rstd = at; at += BT;
    o.logits = at; at += BT * V;
    o.probs = at; at += BT * V;
    o.values = at; at += BT;
    o.total = at;
    return o;
  }
};
}  // namespace

Gpt::Gpt(GptConfig cfg, std::uint64_t seed) : cfg_(cfg) {
  // Hard config validation (kept in release builds): every downstream
  // buffer — KV caches, generation scratch, the attention-score buffer —
  // is sized from these fields, so a bad config must fail here, loudly,
  // not as an out-of-bounds write deep inside gen_step.
  if (cfg_.ctx <= 0 || cfg_.vocab <= 0 || cfg_.n_layer < 0 ||
      cfg_.n_head <= 0 || cfg_.n_embd <= 0 || cfg_.n_embd % cfg_.n_head != 0) {
    std::fprintf(stderr,
                 "Gpt: invalid config (vocab=%d ctx=%d n_layer=%d n_head=%d "
                 "n_embd=%d); ctx/vocab/n_embd must be positive and n_embd "
                 "divisible by n_head\n",
                 cfg_.vocab, cfg_.ctx, cfg_.n_layer, cfg_.n_head, cfg_.n_embd);
    std::abort();
  }
  const Layout lay = Layout::make(cfg_);
  params_.assign(lay.total, 0.f);
  grads_.assign(lay.total, 0.f);

  Rng rng(seed);
  auto gauss = [&rng] {
    // Box-Muller
    const double u1 = rng.uniform() + 1e-12;
    const double u2 = rng.uniform();
    return static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                              std::cos(6.283185307179586 * u2));
  };
  auto fill = [&](std::size_t off, std::size_t n, float stddev) {
    for (std::size_t i = 0; i < n; ++i) params_[off + i] = gauss() * stddev;
  };
  const std::size_t C = cfg_.n_embd;
  const float res_scale =
      0.02f / std::sqrt(2.f * static_cast<float>(cfg_.n_layer));
  fill(lay.wte, static_cast<std::size_t>(cfg_.vocab) * C, 0.02f);
  fill(lay.wpe, static_cast<std::size_t>(cfg_.ctx) * C, 0.01f);
  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t base = lay.layer_base + l * lay.per_layer;
    for (std::size_t i = 0; i < C; ++i) params_[base + lay.ln1w + i] = 1.f;
    for (std::size_t i = 0; i < C; ++i) params_[base + lay.ln2w + i] = 1.f;
    fill(base + lay.qkvw, 3 * C * C, 0.02f);
    fill(base + lay.attprojw, C * C, res_scale);
    fill(base + lay.fcw, 4 * C * C, 0.02f);
    fill(base + lay.fcprojw, 4 * C * C, res_scale);
  }
  for (std::size_t i = 0; i < C; ++i) params_[lay.lnfw + i] = 1.f;
  fill(lay.valw, C, 0.02f);
}

void Gpt::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.f); }

void Gpt::copy_params_from(const Gpt& other) {
  assert(params_.size() == other.params_.size());
  params_ = other.params_;
}

void Gpt::ensure_acts(int B, int T) {
  if (B == B_ && T == T_ && !acts_.empty()) return;
  B_ = B;
  T_ = T;
  const ActLayout a = ActLayout::make(cfg_, B, T);
  acts_.assign(a.total, 0.f);
  dacts_.assign(a.total, 0.f);
}

const float* Gpt::acts_ptr(ActName which) const {
  const ActLayout a = ActLayout::make(cfg_, B_, T_);
  switch (which) {
    case kActEncoded: return acts_.data() + a.encoded;
    case kActLnf: return acts_.data() + a.lnf;
    case kActLnfMean: return acts_.data() + a.lnf_mean;
    case kActLnfRstd: return acts_.data() + a.lnf_rstd;
    case kActLogits: return acts_.data() + a.logits;
    case kActProbs: return acts_.data() + a.probs;
    case kActValues: return acts_.data() + a.values;
  }
  return nullptr;
}

void Gpt::forward(const int* tokens, int B, int T) {
  assert(T <= cfg_.ctx);
  ensure_acts(B, T);
  const Layout p = Layout::make(cfg_);
  const ActLayout a = ActLayout::make(cfg_, B, T);
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const int BT = B * T;
  float* acts = acts_.data();
  const float* prm = params_.data();

  encoder_forward(acts + a.encoded, tokens, prm + p.wte, prm + p.wpe, B, T, C);
  const float* residual = acts + a.encoded;
  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    const std::size_t ab = a.layer_base + l * a.per_layer;
    layernorm_forward(acts + ab + a.ln1, acts + ab + a.ln1_mean,
                      acts + ab + a.ln1_rstd, residual, prm + pb + p.ln1w,
                      prm + pb + p.ln1b, BT, C);
    kern::matmul_forward(acts + ab + a.qkv, acts + ab + a.ln1,
                         prm + pb + p.qkvw, prm + pb + p.qkvb, BT, C, 3 * C);
    attention_forward(acts + ab + a.atty, acts + ab + a.preatt,
                      acts + ab + a.att, acts + ab + a.qkv, B, T, C, NH);
    kern::matmul_forward(acts + ab + a.attproj, acts + ab + a.atty,
                         prm + pb + p.attprojw, prm + pb + p.attprojb, BT, C,
                         C);
    residual_forward(acts + ab + a.res2, residual, acts + ab + a.attproj,
                     BT * C);
    layernorm_forward(acts + ab + a.ln2, acts + ab + a.ln2_mean,
                      acts + ab + a.ln2_rstd, acts + ab + a.res2,
                      prm + pb + p.ln2w, prm + pb + p.ln2b, BT, C);
    kern::matmul_bias_gelu_forward(acts + ab + a.fch, acts + ab + a.fch_gelu,
                                   acts + ab + a.ln2, prm + pb + p.fcw,
                                   prm + pb + p.fcb, BT, C, 4 * C);
    kern::matmul_forward(acts + ab + a.fcproj, acts + ab + a.fch_gelu,
                         prm + pb + p.fcprojw, prm + pb + p.fcprojb, BT, 4 * C,
                         C);
    residual_forward(acts + ab + a.res3, acts + ab + a.res2,
                     acts + ab + a.fcproj, BT * C);
    residual = acts + ab + a.res3;
  }
  layernorm_forward(acts + a.lnf, acts + a.lnf_mean, acts + a.lnf_rstd,
                    residual, prm + p.lnfw, prm + p.lnfb, BT, C);
  // tied LM head: logits = lnf @ wte^T
  kern::matmul_forward(acts + a.logits, acts + a.lnf, prm + p.wte, nullptr, BT,
                       C, V);
  softmax_forward(acts + a.probs, acts + a.logits, BT, V);
  // value head
  kern::matmul_forward(acts + a.values, acts + a.lnf, prm + p.valw,
                       prm + p.valb, BT, C, 1);
}

float Gpt::logprob(int b, int t, int tok) const {
  const ActLayout a = ActLayout::make(cfg_, B_, T_);
  const float pr = acts_[a.probs + (static_cast<std::size_t>(b) * T_ + t) *
                                       cfg_.vocab + tok];
  return std::log(pr + 1e-10f);
}

void Gpt::backward_from(const int* tokens, const float* dlogits,
                        const float* dvalues, int B, int T) {
  assert(B == B_ && T == T_);
  const Layout p = Layout::make(cfg_);
  const ActLayout a = ActLayout::make(cfg_, B, T);
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const int BT = B * T;
  const float* acts = acts_.data();
  float* dacts = dacts_.data();
  const float* prm = params_.data();
  float* grd = grads_.data();
  // Zero only what the passes below accumulate into: the residual stream
  // and each layer's input gradients. The logits/probs/values gradients are
  // never formed (dlogits and dvalues come from the caller), and the
  // attention-score gradients live in attention_backward's row scratch.
  // Each layer's fill runs up to preatt and on from attproj; the small
  // mean/rstd slices inside those ranges are zeroed along with them.
  const std::size_t BTC = static_cast<std::size_t>(BT) * C;
  std::fill_n(dacts + a.encoded, BTC, 0.f);
  for (int l = 0; l < cfg_.n_layer; ++l) {
    float* dl = dacts + a.layer_base + l * a.per_layer;
    std::fill(dl, dl + a.preatt, 0.f);
    std::fill(dl + a.attproj, dl + a.per_layer, 0.f);
  }
  std::fill_n(dacts + a.lnf, BTC, 0.f);

  // value head backward: dlnf += dvalues * valw; dvalw += sum dvalues*lnf
  if (dvalues != nullptr) {
    for (int n = 0; n < BT; ++n) {
      const float g = dvalues[n];
      if (g == 0.f) continue;
      grd[p.valb] += g;
      const float* lnfx = acts + a.lnf + static_cast<std::size_t>(n) * C;
      float* dlnfx = dacts + a.lnf + static_cast<std::size_t>(n) * C;
      for (int c = 0; c < C; ++c) {
        grd[p.valw + c] += g * lnfx[c];
        dlnfx[c] += g * prm[p.valw + c];
      }
    }
  }
  // LM head backward (tied weights): dlnf += dlogits @ wte; dwte += ...
  kern::matmul_backward(dacts + a.lnf, grd + p.wte, nullptr, dlogits,
                        acts + a.lnf, prm + p.wte, BT, C, V);

  // final layernorm
  const std::size_t last_ab = a.layer_base + (cfg_.n_layer - 1) * a.per_layer;
  const float* residual = cfg_.n_layer > 0 ? acts + last_ab + a.res3
                                           : acts + a.encoded;
  float* dresidual = cfg_.n_layer > 0 ? dacts + last_ab + a.res3
                                      : dacts + a.encoded;
  layernorm_backward(dresidual, grd + p.lnfw, grd + p.lnfb, dacts + a.lnf,
                     residual, acts + a.lnf_mean, acts + a.lnf_rstd,
                     prm + p.lnfw, BT, C);

  for (int l = cfg_.n_layer - 1; l >= 0; --l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    const std::size_t ab = a.layer_base + l * a.per_layer;
    const float* res_in =
        l == 0 ? acts + a.encoded : acts + a.layer_base + (l - 1) * a.per_layer + a.res3;
    float* dres_in =
        l == 0 ? dacts + a.encoded
               : dacts + a.layer_base + (l - 1) * a.per_layer + a.res3;
    float* dres3 = dacts + ab + a.res3;
    // res3 = res2 + fcproj
    float* dres2 = dacts + ab + a.res2;
    float* dfcproj = dacts + ab + a.fcproj;
    for (int n = 0; n < BT * C; ++n) {
      dres2[n] += dres3[n];
      dfcproj[n] += dres3[n];
    }
    kern::matmul_backward(dacts + ab + a.fch_gelu, grd + pb + p.fcprojw,
                          grd + pb + p.fcprojb, dfcproj, acts + ab + a.fch_gelu,
                          prm + pb + p.fcprojw, BT, 4 * C, C);
    kern::gelu_backward(dacts + ab + a.fch, acts + ab + a.fch,
                        dacts + ab + a.fch_gelu, BT * 4 * C);
    kern::matmul_backward(dacts + ab + a.ln2, grd + pb + p.fcw,
                          grd + pb + p.fcb, dacts + ab + a.fch,
                          acts + ab + a.ln2, prm + pb + p.fcw, BT, C, 4 * C);
    layernorm_backward(dres2, grd + pb + p.ln2w, grd + pb + p.ln2b,
                       dacts + ab + a.ln2, acts + ab + a.res2,
                       acts + ab + a.ln2_mean, acts + ab + a.ln2_rstd,
                       prm + pb + p.ln2w, BT, C);
    // res2 = residual_in + attproj
    float* dattproj = dacts + ab + a.attproj;
    for (int n = 0; n < BT * C; ++n) {
      dres_in[n] += dres2[n];
      dattproj[n] += dres2[n];
    }
    kern::matmul_backward(dacts + ab + a.atty, grd + pb + p.attprojw,
                          grd + pb + p.attprojb, dattproj, acts + ab + a.atty,
                          prm + pb + p.attprojw, BT, C, C);
    attention_backward(dacts + ab + a.qkv, dacts + ab + a.atty,
                       acts + ab + a.qkv, acts + ab + a.att, B, T, C, NH);
    kern::matmul_backward(dacts + ab + a.ln1, grd + pb + p.qkvw,
                          grd + pb + p.qkvb, dacts + ab + a.qkv,
                          acts + ab + a.ln1, prm + pb + p.qkvw, BT, C, 3 * C);
    layernorm_backward(dres_in, grd + pb + p.ln1w, grd + pb + p.ln1b,
                       dacts + ab + a.ln1, res_in, acts + ab + a.ln1_mean,
                       acts + ab + a.ln1_rstd, prm + pb + p.ln1w, BT, C);
  }
  encoder_backward(grd + p.wte, grd + p.wpe, dacts + a.encoded, tokens, B, T,
                   C);
}

float Gpt::backward_lm(const int* tokens, const int* targets, int B, int T) {
  const ActLayout a = ActLayout::make(cfg_, B, T);
  const int V = cfg_.vocab;
  const int BT = B * T;
  // count valid targets
  int count = 0;
  for (int n = 0; n < BT; ++n) count += targets[n] >= 0 ? 1 : 0;
  if (count == 0) return 0.f;

  std::vector<float> dlogits(static_cast<std::size_t>(BT) * V, 0.f);
  const float* probs = acts_.data() + a.probs;
  float loss = 0.f;
  const float inv = 1.f / static_cast<float>(count);
  for (int n = 0; n < BT; ++n) {
    const int tgt = targets[n];
    if (tgt < 0) continue;
    const float* pr = probs + static_cast<std::size_t>(n) * V;
    loss += -std::log(pr[tgt] + 1e-10f);
    float* dl = dlogits.data() + static_cast<std::size_t>(n) * V;
    for (int v = 0; v < V; ++v) dl[v] = pr[v] * inv;
    dl[tgt] -= inv;
  }
  backward_from(tokens, dlogits.data(), nullptr, B, T);
  return loss * inv;
}

// ---------------------------------------------------------------------------
// Incremental generation with KV caches.
// ---------------------------------------------------------------------------
Gpt::GenState Gpt::gen_begin(int B) const {
  assert(B > 0);
  GenState s;
  s.B = B;
  s.t = 0;
  const std::size_t cache =
      static_cast<std::size_t>(cfg_.n_layer) * B * cfg_.ctx * cfg_.n_embd;
  s.kcache.assign(cache, 0.f);
  s.vcache.assign(cache, 0.f);
  // scratch: x, ln, qkv, atty, proj, fch, fgel per batch row
  const std::size_t C = cfg_.n_embd;
  s.scratch.assign(static_cast<std::size_t>(B) * (C * 5 + 3 * C + 8 * C), 0.f);
  // Attention-score and layernorm scratch, sized from the config (the seed
  // used a fixed float[512] stack buffer here, which a large-ctx config
  // would silently overrun).
  s.att.assign(static_cast<std::size_t>(cfg_.ctx), 0.f);
  s.norm.assign(static_cast<std::size_t>(2) * B, 0.f);
  // Packed (transposed) weight views: one pack per generation, then every
  // per-token matvec streams weights linearly (see kern::PackedMat). Pack
  // cost is one pass over the parameters — amortized across ctx tokens.
  const Layout p = Layout::make(cfg_);
  const float* prm = params_.data();
  const int Ci = cfg_.n_embd;
  s.wpack.resize(static_cast<std::size_t>(cfg_.n_layer) * 4 + 1);
  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    kern::pack_transpose(s.wpack[l * 4 + 0], prm + pb + p.qkvw, 3 * Ci, Ci);
    kern::pack_transpose(s.wpack[l * 4 + 1], prm + pb + p.attprojw, Ci, Ci);
    kern::pack_transpose(s.wpack[l * 4 + 2], prm + pb + p.fcw, 4 * Ci, Ci);
    kern::pack_transpose(s.wpack[l * 4 + 3], prm + pb + p.fcprojw, Ci, 4 * Ci);
  }
  kern::pack_transpose(s.wpack.back(), prm + p.wte, cfg_.vocab, Ci);
  return s;
}

void Gpt::gen_step(GenState& s, const int* tokens_t, float* logits_out) const {
  OBS_SPAN("ml.gen_step");
  const Layout p = Layout::make(cfg_);
  const int C = cfg_.n_embd, NH = cfg_.n_head, V = cfg_.vocab;
  const int hs = C / NH;
  const int B = s.B;
  const int pos = s.t;
  const std::size_t ctx = cfg_.ctx;
  assert(pos < cfg_.ctx);
  const float* prm = params_.data();
  const float scale = 1.f / std::sqrt(static_cast<float>(hs));

  float* x = s.scratch.data();               // [B, C]
  float* ln = x + static_cast<std::size_t>(B) * C;       // [B, C]
  float* qkv = ln + static_cast<std::size_t>(B) * C;     // [B, 3C]
  float* atty = qkv + static_cast<std::size_t>(B) * 3 * C;  // [B, C]
  float* proj = atty + static_cast<std::size_t>(B) * C;     // [B, C]
  float* fch = proj + static_cast<std::size_t>(B) * C;      // [B, 4C]
  float* fgel = fch + static_cast<std::size_t>(B) * 4 * C;  // [B, 4C]
  float* att = s.att.data();                                // [ctx]
  float* mean = s.norm.data();                              // [B]
  float* rstd = mean + B;                                   // [B]

  for (int b = 0; b < B; ++b) {
    if (tokens_t[b] < 0 || tokens_t[b] >= V) {
      throw std::out_of_range("Gpt::gen_step: token id " +
                              std::to_string(tokens_t[b]) +
                              " outside the vocabulary");
    }
    const float* we = prm + p.wte + static_cast<std::size_t>(tokens_t[b]) * C;
    const float* pe = prm + p.wpe + static_cast<std::size_t>(pos) * C;
    for (int c = 0; c < C; ++c) x[b * C + c] = we[c] + pe[c];
  }

  for (int l = 0; l < cfg_.n_layer; ++l) {
    const std::size_t pb = p.layer_base + l * p.per_layer;
    layernorm_forward(ln, mean, rstd, x, prm + pb + p.ln1w,
                      prm + pb + p.ln1b, B, C);
    kern::matmul_forward_packed(qkv, ln, s.wpack[l * 4 + 0], prm + pb + p.qkvb,
                                B);
    // Append k/v to the caches: K transposed ([C, ctx] per lane, so the
    // q.k dots run across cached positions), V row-major ([ctx, C]).
    for (int b = 0; b < B; ++b) {
      const std::size_t lane = (static_cast<std::size_t>(l) * B + b) * ctx * C;
      float* kc = s.kcache.data() + lane;
      float* vc = s.vcache.data() + lane + pos * static_cast<std::size_t>(C);
      const float* k = qkv + b * 3 * C + C;
      for (int c = 0; c < C; ++c) kc[c * ctx + pos] = k[c];
      std::memcpy(vc, qkv + b * 3 * C + 2 * C, sizeof(float) * C);
    }
    // attention over cache
    for (int b = 0; b < B; ++b) {
      const std::size_t lane = (static_cast<std::size_t>(l) * B + b) * ctx * C;
      const float* kbase = s.kcache.data() + lane;
      const float* vbase = s.vcache.data() + lane;
      for (int h = 0; h < NH; ++h) {
        const float* q = qkv + b * 3 * C + h * hs;
        dots_across_keys(att, q, kbase + h * hs * ctx, ctx, pos + 1, hs);
        float maxv = -1e30f;
        for (int t2 = 0; t2 <= pos; ++t2) {
          const float dot = att[t2] * scale;
          att[t2] = dot;
          maxv = dot > maxv ? dot : maxv;
        }
        float sum = 0.f;
        for (int t2 = 0; t2 <= pos; ++t2) {
          att[t2] = std::exp(att[t2] - maxv);
          sum += att[t2];
        }
        const float inv = 1.f / sum;
        for (int t2 = 0; t2 <= pos; ++t2) att[t2] *= inv;
        float* o = atty + b * C + h * hs;
        for (int i = 0; i < hs; ++i) o[i] = 0.f;
        weighted_row_sum(o, att, vbase + h * hs, C, pos + 1, hs);
      }
    }
    kern::matmul_forward_packed(proj, atty, s.wpack[l * 4 + 1],
                                prm + pb + p.attprojb, B);
    for (int n = 0; n < B * C; ++n) x[n] += proj[n];
    layernorm_forward(ln, mean, rstd, x, prm + pb + p.ln2w,
                      prm + pb + p.ln2b, B, C);
    kern::matmul_bias_gelu_forward_packed(fch, fgel, ln, s.wpack[l * 4 + 2],
                                          prm + pb + p.fcb, B);
    kern::matmul_forward_packed(proj, fgel, s.wpack[l * 4 + 3],
                                prm + pb + p.fcprojb, B);
    for (int n = 0; n < B * C; ++n) x[n] += proj[n];
  }
  layernorm_forward(ln, mean, rstd, x, prm + p.lnfw, prm + p.lnfb, B, C);
  kern::matmul_forward_packed(logits_out, ln, s.wpack.back(), nullptr, B);
  ++s.t;
}

// ---------------------------------------------------------------------------
// Persistence.
// ---------------------------------------------------------------------------
namespace {
constexpr std::uint32_t kModelMagic = 0x43465A4D;  // "CFZM"
constexpr std::uint32_t kModelVersion = 1;
}  // namespace

void Gpt::save_state(ser::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(cfg_.vocab));
  w.u32(static_cast<std::uint32_t>(cfg_.ctx));
  w.u32(static_cast<std::uint32_t>(cfg_.n_layer));
  w.u32(static_cast<std::uint32_t>(cfg_.n_head));
  w.u32(static_cast<std::uint32_t>(cfg_.n_embd));
  w.vec_f32(params_);
}

bool Gpt::restore_state(ser::Reader& r) {
  const std::uint32_t vocab = r.u32();
  const std::uint32_t ctx = r.u32();
  const std::uint32_t n_layer = r.u32();
  const std::uint32_t n_head = r.u32();
  const std::uint32_t n_embd = r.u32();
  std::vector<float> params = r.vec_f32();
  if (!r.ok() || static_cast<int>(vocab) != cfg_.vocab ||
      static_cast<int>(ctx) != cfg_.ctx ||
      static_cast<int>(n_layer) != cfg_.n_layer ||
      static_cast<int>(n_head) != cfg_.n_head ||
      static_cast<int>(n_embd) != cfg_.n_embd ||
      params.size() != params_.size()) {
    r.fail();
    return false;
  }
  params_ = std::move(params);
  return true;
}

ser::Status Gpt::save(const std::string& path) const {
  ser::Writer w;
  save_state(w);
  return ser::write_file(path, kModelMagic, kModelVersion, w.buffer());
}

ser::Status Gpt::load(const std::string& path) {
  std::string payload;
  ser::Status s =
      ser::read_file(path, kModelMagic, kModelVersion, "model", &payload);
  if (!s.ok()) return s;
  ser::Reader r(payload);
  if (!restore_state(r)) {
    return ser::Status::error(
        path + ": model config does not match this build (want vocab=" +
        std::to_string(cfg_.vocab) + " ctx=" + std::to_string(cfg_.ctx) +
        " layers=" + std::to_string(cfg_.n_layer) +
        " heads=" + std::to_string(cfg_.n_head) +
        " embd=" + std::to_string(cfg_.n_embd) + ", or payload is truncated)");
  }
  return {};
}

}  // namespace chatfuzz::ml
