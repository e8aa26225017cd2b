// Kernel-dispatch registry contract (src/tensor/dispatch/registry.h):
// priority selection over CPU-feature-gated variants, per-op and global
// overrides (SetOverride is the same code path the UMGAD_KERNEL env var
// runs through at startup — the CI cli-smoke leg exercises the env var
// itself across a process boundary), graceful fallback when an override
// needs features the host lacks, and the central invariant that every
// variant of one op is bit-identical to the naive reference for any
// UMGAD_THREADS x arena combination. The feature mask is faked through
// SetDisabledCpuFeaturesForTest, so the fallback paths run even on
// machines that do have AVX2.

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "oracle_harness.h"
#include "tensor/dispatch/cpu_features.h"
#include "tensor/dispatch/registry.h"
#include "tensor/init.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace umgad {
namespace {

using dispatch::KernelOp;
using dispatch::KernelRegistry;
using dispatch::KernelSelection;
using ::umgad::testing::ExpectBitIdentical;
using ::umgad::testing::OracleSweep;
using ::umgad::testing::Tensors;

Tensor RandomTensor(int r, int c, uint64_t seed) {
  Rng rng(seed);
  return RandomNormal(r, c, 0.0, 1.0, &rng);
}

/// ReLU-style values: about half are exact zeros, a third -0.0. The naive
/// floors skip zero multipliers and the tiled kernels do not, so these
/// inputs check that both give the same bits.
Tensor ReluStyleTensor(int r, int c, uint64_t seed) {
  Tensor t = RandomTensor(r, c, seed);
  float* d = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    if (d[i] < -0.5f) {
      d[i] = -0.0f;
    } else if (d[i] < 0.0f) {
      d[i] = 0.0f;
    }
  }
  return t;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

SparseMatrix RandomSparse(int n, int edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> e;
  for (int i = 0; i < edges; ++i) {
    e.push_back(Edge{static_cast<int>(rng.UniformInt(n)),
                     static_cast<int>(rng.UniformInt(n))});
  }
  return SparseMatrix::FromEdges(n, e, /*symmetrize=*/true);
}

/// The registry is a process-wide singleton: every test restores the
/// no-override, no-masked-features state on exit so suites compose.
class KernelRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    KernelRegistry::Global()->ClearOverrides();
    dispatch::SetDisabledCpuFeaturesForTest(0);
  }
};

KernelSelection SelectionFor(KernelOp op) {
  for (KernelSelection& s : KernelRegistry::Global()->Selections()) {
    if (s.op == op) return s;
  }
  ADD_FAILURE() << "no selection for op " << dispatch::KernelOpName(op);
  return {};
}

bool HasVariant(const KernelSelection& sel, const std::string& name) {
  for (const auto& v : sel.variants) {
    if (v.name == name) return true;
  }
  return false;
}

// ------------------------- variant inventory ------------------------------

TEST_F(KernelRegistryTest, EveryOpHasANaiveFloorAndADefaultWinner) {
  const auto selections = KernelRegistry::Global()->Selections();
  ASSERT_EQ(dispatch::kNumKernelOps, 4);
  ASSERT_EQ(static_cast<int>(selections.size()), dispatch::kNumKernelOps);
  // The three dense products each have the naive floor and the portable
  // blocked tier; the weight gradient is an op of its own.
  for (KernelOp op :
       {KernelOp::kMatMul, KernelOp::kMatMulTransB, KernelOp::kMatMulTransA}) {
    EXPECT_TRUE(HasVariant(selections[static_cast<int>(op)], "blocked"))
        << dispatch::KernelOpName(op);
  }
  EXPECT_STREQ(dispatch::KernelOpName(KernelOp::kMatMulTransA),
               "matmul_transa");
  for (const KernelSelection& sel : selections) {
    const std::string op = dispatch::KernelOpName(sel.op);
    EXPECT_TRUE(HasVariant(sel, "naive")) << op;
    EXPECT_FALSE(sel.variant.empty()) << op;
    EXPECT_FALSE(sel.overridden) << op;
    EXPECT_FALSE(sel.fell_back) << op;
    // Variants are reported priority-descending, and the active one is the
    // best whose feature requirements the effective mask satisfies.
    const unsigned have = dispatch::EffectiveCpuFeatures();
    for (size_t i = 1; i < sel.variants.size(); ++i) {
      EXPECT_GE(sel.variants[i - 1].priority, sel.variants[i].priority) << op;
    }
    for (const auto& v : sel.variants) {
      if ((v.required_features & have) == v.required_features) {
        EXPECT_EQ(sel.variant, v.name)
            << op << ": best eligible variant is not the active one";
        break;
      }
    }
  }
}

TEST_F(KernelRegistryTest, ResolveReturnsNonNullForEveryOp) {
  KernelRegistry* reg = KernelRegistry::Global();
  for (int i = 0; i < dispatch::kNumKernelOps; ++i) {
    EXPECT_NE(reg->Resolve(static_cast<KernelOp>(i)), nullptr);
  }
}

// ------------------------- overrides --------------------------------------

TEST_F(KernelRegistryTest, BareNameOverridePinsEveryOpThatHasIt) {
  KernelRegistry* reg = KernelRegistry::Global();
  ASSERT_TRUE(reg->SetOverride("naive").ok());
  for (const KernelSelection& sel : reg->Selections()) {
    EXPECT_TRUE(sel.overridden) << dispatch::KernelOpName(sel.op);
    EXPECT_EQ(sel.variant, "naive") << dispatch::KernelOpName(sel.op);
    EXPECT_FALSE(sel.fell_back) << dispatch::KernelOpName(sel.op);
  }
  reg->ClearOverrides();
  for (const KernelSelection& sel : reg->Selections()) {
    EXPECT_FALSE(sel.overridden) << dispatch::KernelOpName(sel.op);
  }
}

TEST_F(KernelRegistryTest, PerOpOverrideListPinsOnlyNamedOps) {
  KernelRegistry* reg = KernelRegistry::Global();
  ASSERT_TRUE(reg->SetOverride("matmul=naive,spmm=naive").ok());
  for (const KernelSelection& sel : reg->Selections()) {
    const bool pinned =
        sel.op == KernelOp::kMatMul || sel.op == KernelOp::kSpmm;
    EXPECT_EQ(sel.overridden, pinned) << dispatch::KernelOpName(sel.op);
    if (pinned) {
      EXPECT_EQ(sel.variant, "naive");
    }
  }
}

TEST_F(KernelRegistryTest, InvalidOverrideRejectsWithoutStateChange) {
  KernelRegistry* reg = KernelRegistry::Global();
  // Unknown variant name (globally and per-op), unknown op name, and a
  // list whose *last* entry is bad — the valid prefix must not stick.
  for (const char* spec :
       {"no_such_variant", "matmul=no_such_variant", "no_such_op=naive",
        "matmul=naive,spmm=no_such_variant", "matmul"}) {
    const Status s = reg->SetOverride(spec);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << spec;
    for (const KernelSelection& sel : reg->Selections()) {
      EXPECT_FALSE(sel.overridden)
          << spec << " leaked into " << dispatch::KernelOpName(sel.op);
    }
  }
}

// ------------------------- feature gating ---------------------------------

TEST_F(KernelRegistryTest, DisablingAFeatureDemotesTheSelection) {
  const KernelSelection before = SelectionFor(KernelOp::kMatMul);
  if (!HasVariant(before, "blocked_avx2") ||
      !(dispatch::EffectiveCpuFeatures() & dispatch::kFeatAvx2)) {
    GTEST_SKIP() << "no feature-gated matmul tier on this build/host";
  }
  EXPECT_EQ(before.variant, "blocked_avx2");

  dispatch::SetDisabledCpuFeaturesForTest(dispatch::kFeatAvx2);
  const KernelSelection masked = SelectionFor(KernelOp::kMatMul);
  EXPECT_EQ(masked.variant, "blocked");
  EXPECT_FALSE(masked.fell_back);  // priority selection, not a fallback

  dispatch::SetDisabledCpuFeaturesForTest(0);
  EXPECT_EQ(SelectionFor(KernelOp::kMatMul).variant, "blocked_avx2");
}

TEST_F(KernelRegistryTest, UnusableOverrideFallsBackGracefully) {
  KernelRegistry* reg = KernelRegistry::Global();
  const KernelSelection sel = SelectionFor(KernelOp::kMatMul);
  if (!HasVariant(sel, "blocked_avx2")) {
    GTEST_SKIP() << "no feature-gated matmul tier on this build";
  }
  // Pinning a variant the (masked) CPU cannot run is accepted — think of a
  // config file shared across heterogeneous hosts — and resolution warns
  // and falls back to the best eligible variant instead of crashing.
  dispatch::SetDisabledCpuFeaturesForTest(dispatch::kFeatAvx2);
  ASSERT_TRUE(reg->SetOverride("matmul=blocked_avx2").ok());

  Tensor a = RandomTensor(19, 23, 11);
  Tensor b = RandomTensor(23, 17, 12);
  const Tensor got = MatMul(a, b);  // must not execute AVX2 code
  EXPECT_EQ(MaxAbsDiff(got, MatMulNaive(a, b)), 0.0);

  // A fell-back pin reports fell_back, not overridden: the active variant
  // is NOT the requested one (inspect --kernels shows "(fallback)").
  const KernelSelection after = SelectionFor(KernelOp::kMatMul);
  EXPECT_FALSE(after.overridden);
  EXPECT_TRUE(after.fell_back);
  EXPECT_EQ(after.variant, "blocked");

  // Restoring the feature makes the pinned variant take effect for real.
  dispatch::SetDisabledCpuFeaturesForTest(0);
  const KernelSelection restored = SelectionFor(KernelOp::kMatMul);
  EXPECT_EQ(restored.variant, "blocked_avx2");
  EXPECT_FALSE(restored.fell_back);
}

// ------------------------- bit-identity -----------------------------------

// The registry's core promise: switching variants never changes a single
// bit. Pin each eligible variant in turn and sweep the differential
// harness against the naive reference.

/// One dense product of the training tape: `rows` is the tall dimension
/// (nodes), `k` the inner width and `width` the output width.
struct DenseShape {
  int rows, k, width;
};

/// The tape's shape family: row counts around the 6-row forward tile and a
/// tall case, inner and output widths around the 16-column tiles (column
/// tails of 1, 7, 8 and 13), the 4-row weight-gradient tile (k mod 4) and
/// the 64-column baseline panel.
std::vector<DenseShape> TapeShapeFamily() {
  std::vector<DenseShape> shapes;
  for (int rows : {1, 5, 6, 7, 37, 1003, 1004}) {
    for (int k : {1, 6, 7, 16, 32, 48, 64, 65}) {
      for (int width : {1, 13, 16, 24, 32, 48, 64, 71}) {
        shapes.push_back({rows, k, width});
      }
    }
  }
  return shapes;
}

using DenseFn = std::function<Tensor(const Tensor&, const Tensor&)>;

/// Pins each eligible variant of `op` in turn and, at 1 and at 4 lanes,
/// checks every shape of the family bit for bit (memcmp, so a -0.0 for a
/// +0.0 counts) against `floor`. `make_b` builds the second operand from a
/// shape; the first is always rows x k. Both operands are ReLU-style.
void ExpectShapeFamilyBitIdentical(
    KernelOp op, const DenseFn& product, const DenseFn& floor,
    const std::function<Tensor(const DenseShape&, uint64_t)>& make_b) {
  struct Case {
    DenseShape shape;
    Tensor a, b, reference;
  };
  std::vector<Case> cases;
  uint64_t seed = 100;
  for (const DenseShape& s : TapeShapeFamily()) {
    Tensor a = ReluStyleTensor(s.rows, s.k, ++seed);
    Tensor b = make_b(s, ++seed);
    Tensor reference = floor(a, b);
    cases.push_back({s, std::move(a), std::move(b), std::move(reference)});
  }
  KernelRegistry* reg = KernelRegistry::Global();
  const unsigned have = dispatch::EffectiveCpuFeatures();
  const int prev_threads = NumThreads();
  const std::string op_name = dispatch::KernelOpName(op);
  for (int lanes : {1, 4}) {
    SetNumThreads(lanes);
    for (const auto& v : SelectionFor(op).variants) {
      if ((v.required_features & have) != v.required_features) continue;
      ASSERT_TRUE(reg->SetOverride(op_name + "=" + v.name).ok());
      int mismatches = 0;
      for (const Case& c : cases) {
        if (SameBits(product(c.a, c.b), c.reference)) continue;
        if (++mismatches <= 5) {
          ADD_FAILURE() << op_name << " variant " << v.name << " lanes="
                        << lanes << " rows=" << c.shape.rows
                        << " k=" << c.shape.k << " width=" << c.shape.width
                        << " differs from the naive floor";
        }
      }
      EXPECT_EQ(mismatches, 0) << op_name << " variant " << v.name
                               << " lanes=" << lanes << " of "
                               << cases.size() << " shapes";
    }
  }
  SetNumThreads(prev_threads);
}

TEST_F(KernelRegistryTest, EveryMatMulVariantIsBitIdenticalToNaive) {
  // Shapes straddle the 8-row / 64-col micro-kernel tiles and exceed the
  // small-product shortcut (37*29*71 multiplies > 2^15).
  Tensor a = RandomTensor(37, 29, 21);
  Tensor b = RandomTensor(29, 71, 22);
  KernelRegistry* reg = KernelRegistry::Global();
  const unsigned have = dispatch::EffectiveCpuFeatures();
  for (const auto& v : SelectionFor(KernelOp::kMatMul).variants) {
    if ((v.required_features & have) != v.required_features) continue;
    ASSERT_TRUE(reg->SetOverride("matmul=" + v.name).ok());
    ExpectBitIdentical("matmul variant " + v.name,
                       [&] { return Tensors{MatMul(a, b)}; },
                       [&] { return Tensors{MatMulNaive(a, b)}; });
  }
  ExpectShapeFamilyBitIdentical(
      KernelOp::kMatMul, MatMul, MatMulNaive,
      [](const DenseShape& s, uint64_t seed) {
        return ReluStyleTensor(s.k, s.width, seed);
      });
}

TEST_F(KernelRegistryTest, EveryMatMulTransBVariantIsBitIdenticalToNaive) {
  Tensor a = RandomTensor(33, 29, 31);
  Tensor b = RandomTensor(70, 29, 32);  // row-major weights, b.cols == a.cols
  KernelRegistry* reg = KernelRegistry::Global();
  const unsigned have = dispatch::EffectiveCpuFeatures();
  for (const auto& v : SelectionFor(KernelOp::kMatMulTransB).variants) {
    if ((v.required_features & have) != v.required_features) continue;
    ASSERT_TRUE(reg->SetOverride("matmul_transb=" + v.name).ok());
    ExpectBitIdentical(
        "matmul_transb variant " + v.name,
        [&] { return Tensors{MatMulTransB(a, b)}; },
        [&] { return Tensors{MatMulNaive(a, Transpose(b))}; });
  }
  ExpectShapeFamilyBitIdentical(
      KernelOp::kMatMulTransB, MatMulTransB,
      [](const Tensor& x, const Tensor& w) {
        return MatMulNaive(x, Transpose(w));
      },
      [](const DenseShape& s, uint64_t seed) {
        return ReluStyleTensor(s.width, s.k, seed);
      });
}

TEST_F(KernelRegistryTest, EveryMatMulTransAVariantIsBitIdenticalToNaive) {
  // Weight-gradient shape: A^T G with A 1003 x 37 and G 1003 x 71 (rows of
  // C straddle the 4-row tile, columns the 16-column tile and the 64-column
  // baseline panel).
  Tensor a = ReluStyleTensor(1003, 37, 51);
  Tensor g = RandomTensor(1003, 71, 52);
  KernelRegistry* reg = KernelRegistry::Global();
  const unsigned have = dispatch::EffectiveCpuFeatures();
  for (const auto& v : SelectionFor(KernelOp::kMatMulTransA).variants) {
    if ((v.required_features & have) != v.required_features) continue;
    ASSERT_TRUE(reg->SetOverride("matmul_transa=" + v.name).ok());
    ExpectBitIdentical("matmul_transa variant " + v.name,
                       [&] { return Tensors{MatMulTransA(a, g)}; },
                       [&] { return Tensors{MatMulTransANaive(a, g)}; });
  }
  // The same bits as the transpose-then-multiply form it replaces.
  EXPECT_TRUE(SameBits(MatMulTransANaive(a, g), MatMulNaive(Transpose(a), g)));
  // x is rows x k (activations), g is rows x width (output gradient).
  ExpectShapeFamilyBitIdentical(
      KernelOp::kMatMulTransA, MatMulTransA, MatMulTransANaive,
      [](const DenseShape& s, uint64_t seed) {
        return ReluStyleTensor(s.rows, s.width, seed);
      });
}

TEST_F(KernelRegistryTest, TallDenseProductsAreLaneInvariant) {
  // The training tape's own shapes at full height (DG-Fin: 18,500 nodes at
  // widths 32 and 48). The weight gradient walks p in chunks here, so this
  // also covers the tile reload at every chunk boundary. 1 lane and 4
  // lanes must give the naive floor's bits under every variant.
  constexpr int kRows = 18500;
  Tensor x32 = ReluStyleTensor(kRows, 32, 61);
  Tensor x48 = ReluStyleTensor(kRows, 48, 62);
  Tensor w = RandomTensor(48, 32, 63);
  struct Product {
    KernelOp op;
    DenseFn run;
    const Tensor* a;
    const Tensor* b;
    Tensor reference;
  };
  const std::vector<Product> products = {
      {KernelOp::kMatMul, MatMul, &x48, &w, MatMulNaive(x48, w)},
      {KernelOp::kMatMulTransB, MatMulTransB, &x32, &w,
       MatMulNaive(x32, Transpose(w))},
      {KernelOp::kMatMulTransA, MatMulTransA, &x32, &x48,
       MatMulTransANaive(x32, x48)},
      {KernelOp::kMatMulTransA, MatMulTransA, &x48, &x32,
       MatMulTransANaive(x48, x32)},
  };
  KernelRegistry* reg = KernelRegistry::Global();
  const unsigned have = dispatch::EffectiveCpuFeatures();
  const int prev_threads = NumThreads();
  for (const Product& p : products) {
    const std::string op = dispatch::KernelOpName(p.op);
    for (const auto& v : SelectionFor(p.op).variants) {
      if ((v.required_features & have) != v.required_features) continue;
      ASSERT_TRUE(reg->SetOverride(op + "=" + v.name).ok());
      for (int lanes : {1, 4}) {
        SetNumThreads(lanes);
        EXPECT_TRUE(SameBits(p.run(*p.a, *p.b), p.reference))
            << op << " variant " << v.name << " lanes=" << lanes;
      }
    }
  }
  SetNumThreads(prev_threads);
}

TEST_F(KernelRegistryTest, EverySpmmVariantIsBitIdenticalToSerial) {
  SparseMatrix s = RandomSparse(150, 900, 41);
  Tensor x = RandomTensor(150, 37, 42);
  KernelRegistry* reg = KernelRegistry::Global();

  ASSERT_TRUE(reg->SetOverride("spmm=naive").ok());
  const Tensor reference = s.Multiply(x);

  const unsigned have = dispatch::EffectiveCpuFeatures();
  for (const auto& v : SelectionFor(KernelOp::kSpmm).variants) {
    if ((v.required_features & have) != v.required_features) continue;
    ASSERT_TRUE(reg->SetOverride("spmm=" + v.name).ok());
    ExpectBitIdentical("spmm variant " + v.name,
                       [&] { return Tensors{s.Multiply(x)}; },
                       [&] { return Tensors{reference}; });
  }
}

}  // namespace
}  // namespace umgad
