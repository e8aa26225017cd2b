#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/dispatch/builtin_kernels.h"
#include "tensor/dispatch/matmul_impl.h"
#include "tensor/dispatch/registry.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace umgad {
namespace dispatch {
namespace {

// The portable tier (baseline ISA, whatever the build's default target
// offers): B packed into zero-padded kPanelCols-wide panels, rows of C in
// kMicroRows strips across the pool. Every accumulator advances in
// ascending-k order, so this tier is bit-identical to the naive floor.
constexpr int kPanelCols = 64;  // packed-panel width

/// 8 x kPanelCols register tile: 8 rows of A against one packed B panel,
/// full-depth accumulation; `w` columns (<= kPanelCols) are stored. Written
/// in the unrolled hand style on purpose — GCC/Clang keep the named
/// accumulator arrays in vector registers, which a 2-D array version
/// defeats.
void MicroKernel8(const float* a, int64_t lda, const float* bp, float* c,
                  int64_t ldc, int k, int w) {
  float acc0[kPanelCols] = {0.0f}, acc1[kPanelCols] = {0.0f},
        acc2[kPanelCols] = {0.0f}, acc3[kPanelCols] = {0.0f},
        acc4[kPanelCols] = {0.0f}, acc5[kPanelCols] = {0.0f},
        acc6[kPanelCols] = {0.0f}, acc7[kPanelCols] = {0.0f};
  for (int p = 0; p < k; ++p) {
    const float* b = bp + static_cast<int64_t>(p) * kPanelCols;
    const float v0 = a[p];
    const float v1 = a[lda + p];
    const float v2 = a[2 * lda + p];
    const float v3 = a[3 * lda + p];
    const float v4 = a[4 * lda + p];
    const float v5 = a[5 * lda + p];
    const float v6 = a[6 * lda + p];
    const float v7 = a[7 * lda + p];
    for (int j = 0; j < kPanelCols; ++j) {
      const float bv = b[j];
      acc0[j] += v0 * bv;
      acc1[j] += v1 * bv;
      acc2[j] += v2 * bv;
      acc3[j] += v3 * bv;
      acc4[j] += v4 * bv;
      acc5[j] += v5 * bv;
      acc6[j] += v6 * bv;
      acc7[j] += v7 * bv;
    }
  }
  float* crow = c;
  for (int j = 0; j < w; ++j) crow[j] = acc0[j];
  crow += ldc;
  for (int j = 0; j < w; ++j) crow[j] = acc1[j];
  crow += ldc;
  for (int j = 0; j < w; ++j) crow[j] = acc2[j];
  crow += ldc;
  for (int j = 0; j < w; ++j) crow[j] = acc3[j];
  crow += ldc;
  for (int j = 0; j < w; ++j) crow[j] = acc4[j];
  crow += ldc;
  for (int j = 0; j < w; ++j) crow[j] = acc5[j];
  crow += ldc;
  for (int j = 0; j < w; ++j) crow[j] = acc6[j];
  crow += ldc;
  for (int j = 0; j < w; ++j) crow[j] = acc7[j];
}

/// Single-row edge kernel for the m % kMicroRows remainder.
void MicroKernel1(const float* a, const float* bp, float* c, int k, int w) {
  float acc[kPanelCols] = {0.0f};
  for (int p = 0; p < k; ++p) {
    const float* b = bp + static_cast<int64_t>(p) * kPanelCols;
    const float v = a[p];
    for (int j = 0; j < kPanelCols; ++j) acc[j] += v * b[j];
  }
  for (int j = 0; j < w; ++j) c[j] = acc[j];
}

/// The blocked driver: packs B into zero-padded kPanelCols panels, then
/// partitions rows of C across the pool. Small products short-circuit to
/// MatMulNaive.
Tensor BlockedMatMul(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.rows());
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  if (static_cast<int64_t>(m) * k * n < kSmallMatMulMuls) {
    return MatMulNaive(a, b);
  }
  Tensor c(m, n);

  // Pack B once into zero-padded panels: panel t holds columns
  // [t*kPanelCols, t*kPanelCols + w) contiguously per k-row, so the
  // micro-kernel streams it with unit stride and needs no column tail logic.
  // Pooled + uninitialised: the buffer is fully overwritten below and the
  // same pack shape recurs every step, so steady state pays neither a malloc
  // nor a value-initialisation pass over up to O(k*n) memory.
  const int panels = (n + kPanelCols - 1) / kPanelCols;
  PooledBuffer packed(static_cast<size_t>(panels) * k * kPanelCols);
  for (int t = 0; t < panels; ++t) {
    const int j0 = t * kPanelCols;
    const int w = std::min(kPanelCols, n - j0);
    float* panel = packed.get() + static_cast<size_t>(t) * k * kPanelCols;
    for (int p = 0; p < k; ++p) {
      const float* brow = b.row(p) + j0;
      float* dst = panel + static_cast<int64_t>(p) * kPanelCols;
      int j = 0;
      for (; j < w; ++j) dst[j] = brow[j];
      for (; j < kPanelCols; ++j) dst[j] = 0.0f;
    }
  }

  ParallelFor(m, kMicroRows, [&](int64_t r0, int64_t r1) {
    for (int t = 0; t < panels; ++t) {
      const int j0 = t * kPanelCols;
      const int w = std::min(kPanelCols, n - j0);
      const float* panel =
          packed.get() + static_cast<size_t>(t) * k * kPanelCols;
      int64_t i = r0;
      for (; i + kMicroRows <= r1; i += kMicroRows) {
        MicroKernel8(a.row(static_cast<int>(i)), k, panel,
                     c.row(static_cast<int>(i)) + j0, n, k, w);
      }
      for (; i < r1; ++i) {
        MicroKernel1(a.row(static_cast<int>(i)), panel,
                     c.row(static_cast<int>(i)) + j0, k, w);
      }
    }
  });
  return c;
}

// kMatMul variants. "naive" is the public serial oracle; "blocked" is the
// packed register-tiled core. Both accumulate each C element in ascending-k
// order, so they are bit-identical (the registry invariant).
Tensor MatMulVariantNaive(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.rows());
  return MatMulNaive(a, b);
}

Tensor MatMulVariantBlocked(const Tensor& a, const Tensor& b) {
  return BlockedMatMul(a, b);
}

// kMatMulTransB variants: one cheap transpose away from the plain product.
// Both run the *float* ascending-k accumulation, so "naive" here matches
// "blocked" bitwise; the double-accumulating MatMulTransBNaive oracle stays
// a separate, unregistered function (tensor.cc).
Tensor MatMulTransBVariantNaive(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.cols());
  return MatMulNaive(a, Transpose(b));
}

Tensor MatMulTransBVariantBlocked(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.cols());
  return BlockedMatMul(a, Transpose(b));
}

// kMatMulTransA variants (the weight gradient A^T G). "naive" is the serial
// p-outer oracle; "blocked" transposes A and runs the plain blocked core.
// Both add each C element's terms in ascending p.
Tensor MatMulTransAVariantNaive(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.rows(), b.rows());
  return MatMulTransANaive(a, b);
}

Tensor MatMulTransAVariantBlocked(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.rows(), b.rows());
  return BlockedMatMul(Transpose(a), b);
}

}  // namespace

void RegisterBuiltinMatMul(KernelRegistry* r) {
  r->Register(KernelOp::kMatMul,
              {"naive", /*priority=*/0, /*required_features=*/0,
               reinterpret_cast<KernelFn>(&MatMulVariantNaive)});
  r->Register(KernelOp::kMatMul,
              {"blocked", /*priority=*/10, /*required_features=*/0,
               reinterpret_cast<KernelFn>(&MatMulVariantBlocked)});
  r->Register(KernelOp::kMatMulTransB,
              {"naive", /*priority=*/0, /*required_features=*/0,
               reinterpret_cast<KernelFn>(&MatMulTransBVariantNaive)});
  r->Register(KernelOp::kMatMulTransB,
              {"blocked", /*priority=*/10, /*required_features=*/0,
               reinterpret_cast<KernelFn>(&MatMulTransBVariantBlocked)});
  r->Register(KernelOp::kMatMulTransA,
              {"naive", /*priority=*/0, /*required_features=*/0,
               reinterpret_cast<KernelFn>(&MatMulTransAVariantNaive)});
  r->Register(KernelOp::kMatMulTransA,
              {"blocked", /*priority=*/10, /*required_features=*/0,
               reinterpret_cast<KernelFn>(&MatMulTransAVariantBlocked)});
}

}  // namespace dispatch
}  // namespace umgad
