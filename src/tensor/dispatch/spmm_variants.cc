#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/dispatch/builtin_kernels.h"
#include "tensor/dispatch/registry.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace umgad {
namespace dispatch {
namespace {

constexpr int64_t kSpmmRowGrain = 64;

/// The seed's serial CSR row sweep — the oracle every other Spmm variant is
/// pinned against.
Tensor SpmmVariantSerial(const SparseMatrix& s, const Tensor& x) {
  UMGAD_CHECK_EQ(s.cols(), x.rows());
  const int d = x.cols();
  Tensor y(s.rows(), d);
  const ConstSpan<int64_t> row_ptr = s.row_ptr();
  const ConstSpan<int> col_idx = s.col_idx();
  const ConstSpan<float> values = s.values();
  for (int i = 0; i < s.rows(); ++i) {
    float* yrow = y.row(i);
    for (int64_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const float v = values[k];
      const float* xrow = x.row(col_idx[k]);
      for (int j = 0; j < d; ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

/// Row-partitioned: each output row is produced by exactly one task with
/// the same nonzero order, so results are invariant to the thread count.
Tensor SpmmVariantBlocked(const SparseMatrix& s, const Tensor& x) {
  UMGAD_CHECK_EQ(s.cols(), x.rows());
  const int d = x.cols();
  Tensor y(s.rows(), d);
  const ConstSpan<int64_t> row_ptr = s.row_ptr();
  const ConstSpan<int> col_idx = s.col_idx();
  const ConstSpan<float> values = s.values();
  ParallelFor(s.rows(), kSpmmRowGrain, [&](int64_t i0, int64_t i1) {
    for (int i = static_cast<int>(i0); i < i1; ++i) {
      float* yrow = y.row(i);
      for (int64_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        const float v = values[k];
        const float* xrow = x.row(col_idx[k]);
        for (int j = 0; j < d; ++j) yrow[j] += v * xrow[j];
      }
    }
  });
  return y;
}

}  // namespace

void RegisterBuiltinSpmm(KernelRegistry* r) {
  r->Register(KernelOp::kSpmm,
              {"naive", /*priority=*/0, /*required_features=*/0,
               reinterpret_cast<KernelFn>(&SpmmVariantSerial)});
  r->Register(KernelOp::kSpmm,
              {"blocked", /*priority=*/10, /*required_features=*/0,
               reinterpret_cast<KernelFn>(&SpmmVariantBlocked)});
}

}  // namespace dispatch
}  // namespace umgad
