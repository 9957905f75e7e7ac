#include "ml/kernels.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

#include "util/parse.h"
#include "util/pool.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace chatfuzz::ml::kern {

// ===========================================================================
// Thread splitter over the process-wide pool (util/pool.h). Work is
// dispatched as a fixed list of disjoint [lo, hi) ranges — one per
// participant, computed from the range arithmetic alone — so the
// partitioning (and therefore every output bit) is independent of
// scheduling. The calling thread always executes partition 0 itself.
// ===========================================================================
namespace {

int g_threads = 0;  // 0 = not yet initialized from the environment

/// Deterministic contiguous partition of [0, total) into `parts` ranges.
std::pair<int, int> partition(int total, int parts, int part) {
  const int base = total / parts, rem = total % parts;
  const int lo = part * base + (part < rem ? part : rem);
  return {lo, lo + base + (part < rem ? 1 : 0)};
}

/// Split [0, total) across the configured threads and run body(lo, hi) on
/// each range. Falls back to a single inline call when the work is too small
/// to amortize the dispatch or threading is off.
template <typename Body>
void parallel_ranges(int total, std::size_t work_per_item, const Body& body) {
  const int nt = num_threads();
  constexpr std::size_t kMinWorkPerThread = 1 << 15;
  int parts = nt;
  if (parts > total) parts = total;
  if (parts > 1 &&
      static_cast<std::size_t>(total) * work_per_item / parts < kMinWorkPerThread) {
    parts = 1;
  }
  if (parts <= 1) {
    body(0, total);
    return;
  }
  const std::function<void(int)> fn = [&](int part) {
    const auto [lo, hi] = partition(total, parts, part);
    body(lo, hi);
  };
  Pool::instance().run(parts, fn);
}

// ---- fast GELU for the incremental-decode path ------------------------------
// libm tanhf is slow and dominates gen_step once the matmuls are packed
// (4C GELUs per layer per lane per token). This polynomial tanh —
// exp2-style range reduction, degree-5 e^r polynomial, bit-trick scale —
// is pure float arithmetic with no libm call. |rel err| < 3e-6, far inside
// the generation path's parity tolerance. Training keeps exact libm GELU
// (gelu_scalar) so gradients and the *_ref parity stay bit-comparable.

inline float fast_exp(float x) {
  x = x < -87.f ? -87.f : x;
  x = x > 88.f ? 88.f : x;
  // floor() of the rounded exponent, |y| < 2^7: truncate, then step down
  // for negative non-integers. Exact, and cheaper than libm's floorf.
  const float y = x * 1.44269504089f + 0.5f;
  const float yt = static_cast<float>(static_cast<std::int32_t>(y));
  const float nf = yt > y ? yt - 1.f : yt;
  const float r = x - nf * 0.69314718056f;
  float p = 0.008333333f;
  p = p * r + 0.041666667f;
  p = p * r + 0.166666667f;
  p = p * r + 0.5f;
  p = p * r + 1.f;
  p = p * r + 1.f;
  const std::int32_t bits = (static_cast<std::int32_t>(nf) + 127) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof scale);
  return p * scale;
}

inline float fast_tanh(float x) {
  const float xc = x < -9.f ? -9.f : (x > 9.f ? 9.f : x);
  const float e = fast_exp(2.f * xc);
  return (e - 1.f) / (e + 1.f);
}

inline float gelu_fast(float x) {
  constexpr float kS = 0.7978845608028654f;  // sqrt(2/pi)
  const float cube = 0.044715f * x * x * x;
  return 0.5f * x * (1.f + fast_tanh(kS * (x + cube)));
}

#if defined(__AVX2__) && defined(__FMA__)
// ---- register-tiled FMA micro-kernels ---------------------------------------
// Every matmul here is one shape of
//   c(r, j) = init(r, j);  for k ascending: c(r, j) = fma(a(r, k), b(k, j), c)
// with a(r, k) = a[r*ars + k*aks], b(k, j) = b[k*bks + j] (unit stride over
// j) and init either a row (stride irs; 0 broadcasts one row, e.g. a bias),
// c itself (accumulate), or zero. A tile holds R rows x 16 columns in 2R ymm
// accumulators across the whole reduction, so each output element is one
// fused multiply-add chain in ascending k (bit for bit a scalar std::fma
// chain) without the output rows being reloaded and stored on every step.
// Columns past the last full tile run the same chain with scalar std::fma.
struct Gemm {
  const float* a;
  std::size_t ars, aks;
  const float* b;
  std::size_t bks;
  float* c;
  std::size_t crs;
  const float* init;  // nullptr = start from zero
  std::size_t irs;
  int K;  // reduction length
};

constexpr int kTileRows = 6;  // 12 accumulators + 2 B vectors + 1 broadcast

template <int R>
void tile16(const Gemm& g, const float* a, const float* b, float* c,
            const float* init) {
  __m256 lo[R], hi[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    if (init != nullptr) {
      lo[r] = _mm256_loadu_ps(init + r * g.irs);
      hi[r] = _mm256_loadu_ps(init + r * g.irs + 8);
    } else {
      lo[r] = _mm256_setzero_ps();
      hi[r] = _mm256_setzero_ps();
    }
  }
  for (int k = 0; k < g.K; ++k) {
    const float* bk = b + static_cast<std::size_t>(k) * g.bks;
    const __m256 b0 = _mm256_loadu_ps(bk);
    const __m256 b1 = _mm256_loadu_ps(bk + 8);
    const float* ak = a + static_cast<std::size_t>(k) * g.aks;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ak + r * g.ars);
      lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
      hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_ps(c + r * g.crs, lo[r]);
    _mm256_storeu_ps(c + r * g.crs + 8, hi[r]);
  }
}

/// Columns [j0, j1) of R rows, one scalar chain per element (R interleaved).
template <int R>
void tile_tail(const Gemm& g, const float* a, const float* b, float* c,
               const float* init, int j0, int j1) {
  for (int j = j0; j < j1; ++j) {
    float acc[R];
    for (int r = 0; r < R; ++r) {
      acc[r] = init != nullptr ? init[r * g.irs + j] : 0.f;
    }
    for (int k = 0; k < g.K; ++k) {
      const float bv = b[static_cast<std::size_t>(k) * g.bks + j];
      const float* ak = a + static_cast<std::size_t>(k) * g.aks;
      for (int r = 0; r < R; ++r) acc[r] = std::fma(ak[r * g.ars], bv, acc[r]);
    }
    for (int r = 0; r < R; ++r) c[r * g.crs + j] = acc[r];
  }
}

template <int R>
void block_rows(const Gemm& g, int r0, int ncols) {
  const float* a = g.a + static_cast<std::size_t>(r0) * g.ars;
  float* c = g.c + static_cast<std::size_t>(r0) * g.crs;
  const float* init = g.init != nullptr
                          ? g.init + static_cast<std::size_t>(r0) * g.irs
                          : nullptr;
  int j = 0;
  for (; j + 16 <= ncols; j += 16) {
    tile16<R>(g, a, g.b + j, c + j, init != nullptr ? init + j : nullptr);
  }
  if (j < ncols) tile_tail<R>(g, a, g.b, c, init, j, ncols);
}

/// Rows [r0, r1) x columns [0, ncols) of `g`.
void gemm_rows(const Gemm& g, int r0, int r1, int ncols) {
  int r = r0;
  for (; r + kTileRows <= r1; r += kTileRows) {
    block_rows<kTileRows>(g, r, ncols);
  }
  switch (r1 - r) {
    case 5: block_rows<5>(g, r, ncols); break;
    case 4: block_rows<4>(g, r, ncols); break;
    case 3: block_rows<3>(g, r, ncols); break;
    case 2: block_rows<2>(g, r, ncols); break;
    case 1: block_rows<1>(g, r, ncols); break;
    default: break;
  }
}

/// Forward rows [n0, n1): out = bias + inp @ wt, wt packed [Cin, Cout].
void range_forward_packed(float* out, const float* inp, const float* wt,
                          const float* bias, int n0, int n1, int Cin,
                          int Cout) {
  const Gemm g{inp, static_cast<std::size_t>(Cin), 1, wt,
               static_cast<std::size_t>(Cout), out,
               static_cast<std::size_t>(Cout), bias, 0, Cin};
  gemm_rows(g, n0, n1, Cout);
}

/// dinp rows [n0, n1) += dout @ w, reduction over ascending oc.
void range_backward_dinp(float* dinp, const float* dout, const float* w,
                         int n0, int n1, int Cin, int Cout) {
  const Gemm g{dout, static_cast<std::size_t>(Cout), 1, w,
               static_cast<std::size_t>(Cin), dinp,
               static_cast<std::size_t>(Cin), dinp,
               static_cast<std::size_t>(Cin), Cout};
  gemm_rows(g, n0, n1, Cin);
}

/// dw rows [o0, o1) += dout^T @ inp, reduction over ascending n. The
/// reduction is cut into chunks of rows so the inp/dout slices stay in
/// cache across tiles; each chunk resumes every chain from dw, which keeps
/// the per-element order.
void range_backward_dw(float* dw, const float* dout, const float* inp,
                       int o0, int o1, int N, int Cin, int Cout) {
  constexpr int kChunk = 256;
  for (int n0 = 0; n0 < N; n0 += kChunk) {
    const int len = N - n0 < kChunk ? N - n0 : kChunk;
    const Gemm g{dout + static_cast<std::size_t>(n0) * Cout, 1,
                 static_cast<std::size_t>(Cout),
                 inp + static_cast<std::size_t>(n0) * Cin,
                 static_cast<std::size_t>(Cin), dw,
                 static_cast<std::size_t>(Cin), dw,
                 static_cast<std::size_t>(Cin), len};
    gemm_rows(g, o0, o1, Cin);
  }
}
#else
// ---- generic SAXPY loops (no AVX2/FMA) --------------------------------------
/// NB output rows in SAXPY order: each row starts at bias and accumulates
/// x[n, i] * wt_row_i with ascending i. Unit stride on every stream and no
/// loop-carried dependence in the oc loop, so it vectorizes as-is, and
/// blocking NB rows per weight pass streams the packed matrix once per
/// block instead of once per row. Accumulation order per output element is
/// ascending i for every NB, so results do not depend on the blocking.
template <int NB>
void rows_forward_packed(float* out, const float* inp, const float* wt,
                         const float* bias, int Cin, int Cout) {
  for (int n = 0; n < NB; ++n) {
    float* o = out + static_cast<std::size_t>(n) * Cout;
    if (bias != nullptr) {
      for (int oc = 0; oc < Cout; ++oc) o[oc] = bias[oc];
    } else {
      for (int oc = 0; oc < Cout; ++oc) o[oc] = 0.f;
    }
  }
  for (int i = 0; i < Cin; ++i) {
    const float* wr = wt + static_cast<std::size_t>(i) * Cout;
    for (int n = 0; n < NB; ++n) {
      const float a = inp[static_cast<std::size_t>(n) * Cin + i];
      float* o = out + static_cast<std::size_t>(n) * Cout;
      for (int oc = 0; oc < Cout; ++oc) o[oc] += a * wr[oc];
    }
  }
}

/// Forward rows [n0, n1) against a packed matrix, blocked 8/4/1.
void range_forward_packed(float* out, const float* inp, const float* wt,
                          const float* bias, int n0, int n1, int Cin,
                          int Cout) {
  int n = n0;
  for (; n + 8 <= n1; n += 8) {
    rows_forward_packed<8>(out + static_cast<std::size_t>(n) * Cout,
                           inp + static_cast<std::size_t>(n) * Cin, wt, bias,
                           Cin, Cout);
  }
  for (; n + 4 <= n1; n += 4) {
    rows_forward_packed<4>(out + static_cast<std::size_t>(n) * Cout,
                           inp + static_cast<std::size_t>(n) * Cin, wt, bias,
                           Cin, Cout);
  }
  for (; n < n1; ++n) {
    rows_forward_packed<1>(out + static_cast<std::size_t>(n) * Cout,
                           inp + static_cast<std::size_t>(n) * Cin, wt, bias,
                           Cin, Cout);
  }
}

/// dinp[n, :] += sum_oc dout[n, oc] * w[oc, :], SAXPY over i, ascending oc.
void range_backward_dinp(float* dinp, const float* dout, const float* w,
                         int n0, int n1, int Cin, int Cout) {
  for (int n = n0; n < n1; ++n) {
    const float* d = dout + static_cast<std::size_t>(n) * Cout;
    float* di = dinp + static_cast<std::size_t>(n) * Cin;
    for (int oc = 0; oc < Cout; ++oc) {
      const float* wr = w + static_cast<std::size_t>(oc) * Cin;
      const float g = d[oc];
      for (int i = 0; i < Cin; ++i) di[i] += g * wr[i];
    }
  }
}

/// dw[oc, :] += sum_n dout[n, oc] * inp[n, :] for oc in [o0, o1), ascending n.
void range_backward_dw(float* dw, const float* dout, const float* inp,
                       int o0, int o1, int N, int Cin, int Cout) {
  for (int n = 0; n < N; ++n) {
    const float* d = dout + static_cast<std::size_t>(n) * Cout;
    const float* x = inp + static_cast<std::size_t>(n) * Cin;
    for (int oc = o0; oc < o1; ++oc) {
      float* dwr = dw + static_cast<std::size_t>(oc) * Cin;
      const float g = d[oc];
      for (int i = 0; i < Cin; ++i) dwr[i] += g * x[i];
    }
  }
}
#endif

/// Per-thread transpose scratch. Each campaign/training thread that calls
/// matmul_forward keeps its own buffer, so concurrent models never share.
std::vector<float>& transpose_scratch() {
  static thread_local std::vector<float> scratch;
  return scratch;
}

/// Transpose w [Cout, Cin] into scratch [Cin, Cout], blocked so each tile's
/// source and destination lines stay cache-resident; the inner loop walks
/// the destination contiguously (strided reads prefetch much better than
/// strided writes).
void transpose_into(float* dst, const float* w, int Cout, int Cin) {
  constexpr int kB = 32;
  for (int i0 = 0; i0 < Cin; i0 += kB) {
    const int i1 = i0 + kB < Cin ? i0 + kB : Cin;
    for (int o0 = 0; o0 < Cout; o0 += kB) {
      const int o1 = o0 + kB < Cout ? o0 + kB : Cout;
      for (int i = i0; i < i1; ++i) {
        float* drow = dst + static_cast<std::size_t>(i) * Cout;
        for (int oc = o0; oc < o1; ++oc) {
          drow[oc] = w[static_cast<std::size_t>(oc) * Cin + i];
        }
      }
    }
  }
}

}  // namespace

int env_threads() {
  const char* env = std::getenv("CHATFUZZ_ML_THREADS");
  if (env == nullptr) return 1;
  const auto parsed = parse_count(env);
  if (!parsed) {
    std::fprintf(stderr,
                 "[kernels] ignoring malformed CHATFUZZ_ML_THREADS=\"%s\" "
                 "(using 1 thread)\n",
                 env);
    return 1;
  }
  if (*parsed == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }
  return static_cast<int>(*parsed);
}

int num_threads() {
  if (g_threads == 0) g_threads = env_threads();
  return g_threads;
}

void set_num_threads(int n) { g_threads = n < 1 ? 1 : n; }

// ===========================================================================
// Optimized kernels.
// ===========================================================================
void pack_transpose(PackedMat& dst, const float* w, int Cout, int Cin) {
  dst.cout = Cout;
  dst.cin = Cin;
  dst.t.resize(static_cast<std::size_t>(Cout) * Cin);
  transpose_into(dst.t.data(), w, Cout, Cin);
}

void matmul_forward_packed(float* out, const float* inp, const PackedMat& wt,
                           const float* bias, int N) {
  const int Cin = wt.cin, Cout = wt.cout;
  parallel_ranges(N, static_cast<std::size_t>(Cin) * Cout, [&](int n0, int n1) {
    range_forward_packed(out, inp, wt.t.data(), bias, n0, n1, Cin, Cout);
  });
}

void matmul_bias_gelu_forward_packed(float* pre, float* post, const float* inp,
                                     const PackedMat& wt, const float* bias,
                                     int N) {
  const int Cin = wt.cin, Cout = wt.cout;
  parallel_ranges(N, static_cast<std::size_t>(Cin) * Cout, [&](int n0, int n1) {
    range_forward_packed(pre, inp, wt.t.data(), bias, n0, n1, Cin, Cout);
    float* p = pre + static_cast<std::size_t>(n0) * Cout;
    float* g = post + static_cast<std::size_t>(n0) * Cout;
    const std::size_t cnt = static_cast<std::size_t>(n1 - n0) * Cout;
    for (std::size_t k = 0; k < cnt; ++k) g[k] = gelu_fast(p[k]);
  });
}

void matmul_forward(float* out, const float* inp, const float* w,
                    const float* bias, int N, int Cin, int Cout) {
  std::vector<float>& wt = transpose_scratch();
  wt.resize(static_cast<std::size_t>(Cout) * Cin);
  transpose_into(wt.data(), w, Cout, Cin);
  parallel_ranges(N, static_cast<std::size_t>(Cin) * Cout, [&](int n0, int n1) {
    range_forward_packed(out, inp, wt.data(), bias, n0, n1, Cin, Cout);
  });
}

void matmul_bias_gelu_forward(float* pre, float* post, const float* inp,
                              const float* w, const float* bias, int N,
                              int Cin, int Cout) {
  std::vector<float>& wt = transpose_scratch();
  wt.resize(static_cast<std::size_t>(Cout) * Cin);
  transpose_into(wt.data(), w, Cout, Cin);
  parallel_ranges(N, static_cast<std::size_t>(Cin) * Cout, [&](int n0, int n1) {
    range_forward_packed(pre, inp, wt.data(), bias, n0, n1, Cin, Cout);
    float* p = pre + static_cast<std::size_t>(n0) * Cout;
    float* g = post + static_cast<std::size_t>(n0) * Cout;
    const std::size_t cnt = static_cast<std::size_t>(n1 - n0) * Cout;
    for (std::size_t k = 0; k < cnt; ++k) g[k] = gelu_scalar(p[k]);
  });
}

void matmul_backward(float* dinp, float* dw, float* dbias, const float* dout,
                     const float* inp, const float* w, int N, int Cin,
                     int Cout) {
  // dinp rows are independent, so split by n.
  parallel_ranges(N, static_cast<std::size_t>(Cin) * Cout, [&](int n0, int n1) {
    range_backward_dinp(dinp, dout, w, n0, n1, Cin, Cout);
  });
  // Each thread owns a contiguous oc range of dw/dbias and walks n in
  // ascending order, so every element sees the same accumulation order no
  // matter how many threads run.
  parallel_ranges(Cout, static_cast<std::size_t>(Cin) * N, [&](int o0, int o1) {
    range_backward_dw(dw, dout, inp, o0, o1, N, Cin, Cout);
    if (dbias == nullptr) return;
    for (int n = 0; n < N; ++n) {
      const float* d = dout + static_cast<std::size_t>(n) * Cout;
      for (int oc = o0; oc < o1; ++oc) dbias[oc] += d[oc];
    }
  });
}

void gelu_forward(float* out, const float* inp, int N) {
  gelu_forward_ref(out, inp, N);
}

void gelu_backward(float* dinp, const float* inp, const float* dout, int N) {
  gelu_backward_ref(dinp, inp, dout, N);
}

}  // namespace chatfuzz::ml::kern
