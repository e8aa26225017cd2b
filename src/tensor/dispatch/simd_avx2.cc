// AVX2-tier dense GEMM variants, compiled with a function-level target
// attribute so the baseline build stays portable while capable hosts get
// 256-bit vectors at runtime.
//
// The training tape's products are tall-skinny: tens of thousands of rows
// against widths of 16-64. Two register-resident tiles serve them:
//
//  - C = A * B (matmul, and matmul_transb through a transposing pack): a
//    6 x 16 tile, 12 ymm accumulators + 2 B vectors + 1 broadcast = 15 of
//    the 16 ymm registers. B is packed into 16-column panels, so the panel
//    count follows the real output width and only n mod 16 columns are
//    padding. Parallel over rows of C.
//  - C = A^T * G (matmul_transa, the weight gradient): a 4 x 16 tile read
//    straight from A's and G's rows — no transpose, no pack. The reduction
//    dimension p is walked in L2-sized chunks; each tile reloads its C
//    values at a chunk boundary, so every element still sums in ascending
//    p. Parallel over C tiles only: p is never split across threads.
//
// Exactness: every step is a separate _mm256_mul_ps and _mm256_add_ps, and
// each C element is owned by one thread and advances in ascending k, so
// these kernels round exactly like the scalar naive floors (bit-identical,
// for any thread count). Products with a zero A value add ±0, which leaves
// a running sum that started at +0 unchanged, so skipping zeros (as the
// naive floors do) and not skipping give the same bits for finite inputs.
//
// Registered only in non--march=native builds: a native build compiles
// every TU for the host's widest ISA with FMA contraction, and the compiler
// may contract even intrinsic mul/add pairs there. The target attribute
// enables avx2 but NOT fma, so this tier cannot contract.

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/dispatch/builtin_kernels.h"
#include "tensor/dispatch/matmul_impl.h"
#include "tensor/dispatch/registry.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(UMGAD_MARCH_NATIVE)

#include <immintrin.h>

namespace umgad {
namespace dispatch {
namespace {

#define UMGAD_AVX2 __attribute__((target("avx2")))

constexpr int kTileCols = 16;        // two ymm vectors of C per tile row
constexpr int kFwdTileRows = 6;      // rows of C per forward tile
constexpr int kTransATileRows = 4;   // rows of C per weight-gradient tile
/// Bytes of A and G rows one weight-gradient p-chunk spans: small enough to
/// stay in a core's L2 while every tile of the chunk re-reads it.
constexpr int64_t kTransAChunkBytes = int64_t{512} << 10;

/// Lanes [0, w) set, w clamped to [0, 8].
UMGAD_AVX2 inline __m256i LaneMask(int w) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(w),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Offset of a w-column tile's high vector. A tile with w <= 8 has an
/// all-false high mask; pointing it at column 0 instead of 8 keeps every
/// pointer formed inside the row even at the end of the buffer.
inline int HighOffset(int w) { return w > 8 ? 8 : 0; }

/// Stores an R x 16 accumulator tile into C's first w (<= 16) columns.
template <int R>
UMGAD_AVX2 inline void StoreTile(const __m256 (&lo)[R], const __m256 (&hi)[R],
                                 float* c, int64_t ldc, int w) {
  if (w == kTileCols) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(c + r * ldc, lo[r]);
      _mm256_storeu_ps(c + r * ldc + 8, hi[r]);
    }
    return;
  }
  const __m256i m0 = LaneMask(w);
  const __m256i m1 = LaneMask(w - 8);
  const int h = HighOffset(w);
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    _mm256_maskstore_ps(c + r * ldc, m0, lo[r]);
    _mm256_maskstore_ps(c + r * ldc + h, m1, hi[r]);
  }
}

// ----------------------------- C = A * B ----------------------------------

/// R rows of A (row stride lda) against one packed k x 16 panel, full depth;
/// writes w columns of C.
template <int R>
UMGAD_AVX2 void FwdTile(const float* a, int64_t lda, const float* panel,
                        int k, float* c, int64_t ldc, int w) {
  __m256 lo[R], hi[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) lo[r] = hi[r] = _mm256_setzero_ps();
  for (int p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_loadu_ps(panel + p * kTileCols);
    const __m256 b1 = _mm256_loadu_ps(panel + p * kTileCols + 8);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
      lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, b0));
      hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, b1));
    }
  }
  StoreTile<R>(lo, hi, c, ldc, w);
}

/// One R-row strip of C across every panel: the strip's A rows stay in L1
/// while the panels stream past.
template <int R>
UMGAD_AVX2 void FwdStrip(const float* a, int k, const float* packed, float* c,
                         int n) {
  const int panels = (n + kTileCols - 1) / kTileCols;
  for (int t = 0; t < panels; ++t) {
    const int j0 = t * kTileCols;
    FwdTile<R>(a, k, packed + static_cast<int64_t>(t) * k * kTileCols, k,
               c + j0, n, std::min(kTileCols, n - j0));
  }
}

/// Rows [r0, r1) of C.
UMGAD_AVX2 void FwdRows(const float* a, int k, const float* packed, float* c,
                        int n, int64_t r0, int64_t r1) {
  int64_t i = r0;
  for (; i + kFwdTileRows <= r1; i += kFwdTileRows) {
    FwdStrip<kFwdTileRows>(a + i * k, k, packed, c + i * n, n);
  }
  const float* ai = a + i * k;
  float* ci = c + i * n;
  switch (r1 - i) {
    case 5: FwdStrip<5>(ai, k, packed, ci, n); break;
    case 4: FwdStrip<4>(ai, k, packed, ci, n); break;
    case 3: FwdStrip<3>(ai, k, packed, ci, n); break;
    case 2: FwdStrip<2>(ai, k, packed, ci, n); break;
    case 1: FwdStrip<1>(ai, k, packed, ci, n); break;
    default: break;
  }
}

/// C = A * op(B), where op(B)(p, j) = b_data[p * sp + j * sj] is k x n.
/// Packs op(B) into zero-padded 16-column panels (panel t holds columns
/// [16t, 16t + 16) contiguously per p), then runs the 6 x 16 tile over rows
/// of C in parallel.
Tensor PackedMatMul(const Tensor& a, const float* b_data, int64_t sp,
                    int64_t sj, int n) {
  const int m = a.rows();
  const int k = a.cols();
  Tensor c(m, n);
  const int panels = (n + kTileCols - 1) / kTileCols;
  // Pooled + uninitialised: every slot is written below.
  PooledBuffer packed(static_cast<size_t>(panels) * k * kTileCols);
  for (int t = 0; t < panels; ++t) {
    const int j0 = t * kTileCols;
    const int w = std::min(kTileCols, n - j0);
    float* panel = packed.get() + static_cast<size_t>(t) * k * kTileCols;
    for (int p = 0; p < k; ++p) {
      const float* src = b_data + p * sp + j0 * sj;
      float* dst = panel + static_cast<int64_t>(p) * kTileCols;
      int j = 0;
      for (; j < w; ++j) dst[j] = src[j * sj];
      for (; j < kTileCols; ++j) dst[j] = 0.0f;
    }
  }
  const float* pa = a.data();
  const float* pp = packed.get();
  float* pc = c.data();
  ParallelFor(m, kFwdTileRows, [&](int64_t r0, int64_t r1) {
    FwdRows(pa, k, pp, pc, n, r0, r1);
  });
  return c;
}

Tensor MatMulBlockedAvx2(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.rows());
  if (static_cast<int64_t>(a.rows()) * a.cols() * b.cols() < kSmallMatMulMuls) {
    return MatMulNaive(a, b);
  }
  return PackedMatMul(a, b.data(), /*sp=*/b.cols(), /*sj=*/1, b.cols());
}

Tensor MatMulTransBBlockedAvx2(const Tensor& a, const Tensor& b) {
  UMGAD_CHECK_EQ(a.cols(), b.cols());
  if (static_cast<int64_t>(a.rows()) * a.cols() * b.rows() < kSmallMatMulMuls) {
    return MatMulNaive(a, Transpose(b));
  }
  // op(B) = B^T: element (p, j) is b(j, p).
  return PackedMatMul(a, b.data(), /*sp=*/1, /*sj=*/b.cols(), b.rows());
}

// ----------------------------- C = A^T * G --------------------------------

/// C[0:R, 0:w) += sum over p in [p0, p1) of A[p, 0:R]^T * G[p, 0:w), with
/// a / g / c already offset to the tile's first row and column. The C tile
/// is loaded (the chunk before left its partial sums there; C starts at
/// zero) and stored back, so across chunks each element sums in ascending
/// p. kMasked tiles (w < 16) use masked loads and stores that never touch
/// memory past column w.
template <int R, bool kMasked>
UMGAD_AVX2 void TransATile(const float* a, int64_t lda, const float* g,
                           int64_t ldg, float* c, int64_t ldc, int64_t p0,
                           int64_t p1, int w) {
  const __m256i m0 = LaneMask(w);
  const __m256i m1 = LaneMask(w - 8);
  const int h = HighOffset(w);
  __m256 lo[R], hi[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    lo[r] = kMasked ? _mm256_maskload_ps(c + r * ldc, m0)
                    : _mm256_loadu_ps(c + r * ldc);
    hi[r] = kMasked ? _mm256_maskload_ps(c + r * ldc + h, m1)
                    : _mm256_loadu_ps(c + r * ldc + 8);
  }
  for (int64_t p = p0; p < p1; ++p) {
    const float* ap = a + p * lda;
    const float* gp = g + p * ldg;
    const __m256 g0 =
        kMasked ? _mm256_maskload_ps(gp, m0) : _mm256_loadu_ps(gp);
    const __m256 g1 =
        kMasked ? _mm256_maskload_ps(gp + h, m1) : _mm256_loadu_ps(gp + 8);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r);
      lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, g0));
      hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, g1));
    }
  }
  StoreTile<R>(lo, hi, c, ldc, w);
}

template <bool kMasked>
UMGAD_AVX2 void TransATileRows(int rows, const float* a, int64_t lda,
                               const float* g, int64_t ldg, float* c,
                               int64_t ldc, int64_t p0, int64_t p1, int w) {
  switch (rows) {
    case 4: TransATile<4, kMasked>(a, lda, g, ldg, c, ldc, p0, p1, w); break;
    case 3: TransATile<3, kMasked>(a, lda, g, ldg, c, ldc, p0, p1, w); break;
    case 2: TransATile<2, kMasked>(a, lda, g, ldg, c, ldc, p0, p1, w); break;
    default: TransATile<1, kMasked>(a, lda, g, ldg, c, ldc, p0, p1, w); break;
  }
}

/// Tiles [t0, t1) of C = A^T * G (A is k x m, G is k x n, C is m x n; tile
/// t covers rows 4 * (t / col_tiles) and columns 16 * (t % col_tiles)).
/// The p-chunk loop is outermost so all of this range's tiles reuse one
/// chunk of A and G rows while it is in L2.
UMGAD_AVX2 void TransATiles(const float* a, const float* g, float* c, int k,
                            int m, int n, int64_t t0, int64_t t1,
                            int64_t chunk) {
  const int col_tiles = (n + kTileCols - 1) / kTileCols;
  for (int64_t p0 = 0; p0 < k; p0 += chunk) {
    const int64_t p1 = std::min<int64_t>(k, p0 + chunk);
    for (int64_t t = t0; t < t1; ++t) {
      const int i0 = static_cast<int>(t / col_tiles) * kTransATileRows;
      const int j0 = static_cast<int>(t % col_tiles) * kTileCols;
      const int rows = std::min(kTransATileRows, m - i0);
      const int w = std::min(kTileCols, n - j0);
      float* ct = c + static_cast<int64_t>(i0) * n + j0;
      if (w == kTileCols) {
        TransATileRows<false>(rows, a + i0, m, g + j0, n, ct, n, p0, p1, w);
      } else {
        TransATileRows<true>(rows, a + i0, m, g + j0, n, ct, n, p0, p1, w);
      }
    }
  }
}

Tensor MatMulTransABlockedAvx2(const Tensor& a, const Tensor& g) {
  UMGAD_CHECK_EQ(a.rows(), g.rows());
  const int k = a.rows();
  const int m = a.cols();
  const int n = g.cols();
  if (static_cast<int64_t>(m) * k * n < kSmallMatMulMuls) {
    return MatMulTransANaive(a, g);
  }
  Tensor c(m, n);  // zero: the first chunk accumulates onto +0
  const int64_t tiles =
      static_cast<int64_t>((m + kTransATileRows - 1) / kTransATileRows) *
      ((n + kTileCols - 1) / kTileCols);
  const int64_t chunk = std::max<int64_t>(
      64, kTransAChunkBytes / (static_cast<int64_t>(sizeof(float)) * (m + n)));
  // One contiguous tile range per lane, so each lane pulls every p-chunk
  // into its L2 once and reuses it across all of its tiles.
  const int64_t lanes = NumThreads();
  const int64_t grain = (tiles + lanes - 1) / lanes;
  const float* pa = a.data();
  const float* pg = g.data();
  float* pc = c.data();
  ParallelFor(tiles, grain, [&](int64_t t0, int64_t t1) {
    TransATiles(pa, pg, pc, k, m, n, t0, t1, chunk);
  });
  return c;
}

#undef UMGAD_AVX2

}  // namespace

void RegisterAvx2Kernels(KernelRegistry* r) {
  r->Register(KernelOp::kMatMul,
              {"blocked_avx2", /*priority=*/20, kFeatAvx2,
               reinterpret_cast<KernelFn>(&MatMulBlockedAvx2)});
  r->Register(KernelOp::kMatMulTransB,
              {"blocked_avx2", /*priority=*/20, kFeatAvx2,
               reinterpret_cast<KernelFn>(&MatMulTransBBlockedAvx2)});
  r->Register(KernelOp::kMatMulTransA,
              {"blocked_avx2", /*priority=*/20, kFeatAvx2,
               reinterpret_cast<KernelFn>(&MatMulTransABlockedAvx2)});
}

}  // namespace dispatch
}  // namespace umgad

#else  // non-x86-64 or -march=native build

namespace umgad {
namespace dispatch {

void RegisterAvx2Kernels(KernelRegistry*) {}

}  // namespace dispatch
}  // namespace umgad

#endif
