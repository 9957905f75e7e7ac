// Vectorized CPU kernel subsystem backing the GPT hot paths (forward,
// backward, incremental gen_step). Two implementations of every kernel live
// here side by side:
//
//   *_ref    — the seed's naive triple loops, kept verbatim as the semantic
//              reference for parity tests and speedup benches;
//   the rest — cache-friendly, compiler-vectorizable rewrites. The key
//              transform is the SAXPY loop order (accumulate whole output
//              rows with unit stride) which the compiler vectorizes without
//              -ffast-math, because no floating-point reduction has to be
//              reassociated.
//
// Determinism contract: for a given build, every kernel accumulates each
// output element in a fixed order (ascending reduction index) that does not
// depend on the thread count, so results are bit-identical run to run and
// for any set_num_threads() value. Threads only ever split work across
// *disjoint* output ranges (rows for forward/dinp, output channels for
// dweight/dbias), never across a reduction.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

namespace chatfuzz::ml::kern {

// ---- intra-batch thread splitter -------------------------------------------
// Kernel calls split across the process-wide worker pool (util/pool.h),
// which the campaign engine's simulation fan-out shares. Default is
// single-threaded; CHATFUZZ_ML_THREADS seeds the initial value ("0" = all
// hardware threads). Campaign workers already
// parallelize across tests, so kernel threading is opt-in for the training
// benches that run one big model on an otherwise idle machine.

/// Current kernel thread count (>= 1).
int num_threads();

/// Set the kernel thread count (clamped to >= 1). Thread-safe with respect
/// to concurrent kernel calls is NOT guaranteed; configure at startup or
/// between training phases.
void set_num_threads(int n);

/// Thread count requested by CHATFUZZ_ML_THREADS (default 1, "0" = all
/// hardware threads, malformed values fall back to 1).
int env_threads();

// ---- scalar GELU (shared by both implementations) ---------------------------
inline float gelu_scalar(float x) {
  constexpr float kS = 0.7978845608028654f;  // sqrt(2/pi)
  const float cube = 0.044715f * x * x * x;
  return 0.5f * x * (1.f + std::tanh(kS * (x + cube)));
}

// ---- reference kernels (seed-naive; parity baseline) ------------------------
// Live in kernels_ref.cpp, which is compiled at the project's base
// optimization level on purpose: the bench speedups are measured against
// the seed's kernels as the seed built them, not against a turbo-charged
// copy of the naive loops.
// out[n, o] = bias[o] + sum_i inp[n, i] * w[o, i]   (w is [Cout, Cin] rows)
void matmul_forward_ref(float* out, const float* inp, const float* w,
                        const float* bias, int N, int Cin, int Cout);
void matmul_backward_ref(float* dinp, float* dw, float* dbias,
                         const float* dout, const float* inp, const float* w,
                         int N, int Cin, int Cout);
void gelu_forward_ref(float* out, const float* inp, int N);
void gelu_backward_ref(float* dinp, const float* inp, const float* dout,
                       int N);

// ---- optimized kernels -------------------------------------------------------
/// Row-blocked, vectorizable matmul. Same signature and math as the
/// reference; internally transposes `w` into a per-thread scratch so the
/// inner loop streams both operands with unit stride.
void matmul_forward(float* out, const float* inp, const float* w,
                    const float* bias, int N, int Cin, int Cout);

/// dinp += dout @ w, dw += dout^T @ inp, dbias += colsum(dout).
/// Accumulation order per element matches the reference exactly.
void matmul_backward(float* dinp, float* dw, float* dbias, const float* dout,
                     const float* inp, const float* w, int N, int Cin,
                     int Cout);

/// Fused bias + GELU epilogue: pre = inp @ w^T + bias, post = gelu(pre),
/// computed row by row so `pre` is still hot in cache when the activation
/// runs. Both buffers are written (backward needs the pre-activation).
void matmul_bias_gelu_forward(float* pre, float* post, const float* inp,
                              const float* w, const float* bias, int N,
                              int Cin, int Cout);

void gelu_forward(float* out, const float* inp, int N);
void gelu_backward(float* dinp, const float* inp, const float* dout, int N);

// ---- packed weights for incremental decode -----------------------------------
/// A transposed ([Cin, Cout], unit stride over Cout) copy of a [Cout, Cin]
/// weight matrix. gen_step packs every weight once per generation so each
/// per-token matvec streams the packed buffer linearly front to back —
/// exactly the access pattern hardware prefetchers are built for.
struct PackedMat {
  int cout = 0, cin = 0;
  std::vector<float> t;  // [cin, cout]

  bool empty() const { return t.empty(); }
};

/// Fill `dst` with the transpose of w ([Cout, Cin] row-major).
void pack_transpose(PackedMat& dst, const float* w, int Cout, int Cin);

/// out[n, o] = bias[o] + sum_i inp[n, i] * W[o, i], with W pre-packed.
void matmul_forward_packed(float* out, const float* inp, const PackedMat& wt,
                           const float* bias, int N);

/// Fused packed matmul + bias + GELU (see matmul_bias_gelu_forward).
/// Inference-only: the activation uses a vectorizable polynomial tanh
/// (|rel err| < 3e-6) instead of libm — training paths keep exact GELU.
void matmul_bias_gelu_forward_packed(float* pre, float* post, const float* inp,
                                     const PackedMat& wt, const float* bias,
                                     int N);

}  // namespace chatfuzz::ml::kern
