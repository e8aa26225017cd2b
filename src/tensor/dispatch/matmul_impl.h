#ifndef UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_
#define UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_

#include <cstdint>

namespace umgad {
namespace dispatch {

/// Rows of C per portable-tier micro-kernel call (matmul_variants.cc).
inline constexpr int kMicroRows = 8;

/// Below this many multiply-adds, packing and dispatch cost more than the
/// whole product; every tiled dense variant falls through to its naive loop.
inline constexpr int64_t kSmallMatMulMuls = 1 << 15;

}  // namespace dispatch
}  // namespace umgad

#endif  // UMGAD_TENSOR_DISPATCH_MATMUL_IMPL_H_
