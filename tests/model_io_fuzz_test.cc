// Corruption fuzzing for the .umgm model loader, on the io_fuzz_test
// pattern: every strict prefix of a valid artifact, seeded byte flips, and
// hostile tensor-count, shape and hidden_dim fields at computed offsets must
// come back from TrainedModel::Load as a Status or as a model — never a
// crash, a hang, or an allocation larger than the file. model_io_test.cc
// holds the hand-written corruption matrix; this sweeps the space around it.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/model_io.h"
#include "core/umgad.h"
#include "graph/multiplex_graph.h"
#include "tensor/init.h"

namespace umgad {
namespace {

/// Small on purpose: the truncation sweep loads one file per byte of the
/// artifact, so the model keeps it small while still carrying every
/// section (config, a two-relation fingerprint, Rng state, weights).
std::string FittedArtifactBytes(const std::string& path) {
  Rng rng(17);
  Tensor x = RandomNormal(12, 3, 0, 1, &rng);
  SparseMatrix a = SparseMatrix::FromEdges(
      12, {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}, Edge{3, 4}, Edge{4, 5},
           Edge{5, 6}, Edge{6, 7}, Edge{7, 8}, Edge{8, 9}, Edge{9, 10},
           Edge{10, 11}, Edge{11, 0}},
      true);
  SparseMatrix b = SparseMatrix::FromEdges(
      12, {Edge{0, 6}, Edge{1, 7}, Edge{2, 8}, Edge{3, 9}}, true);
  auto graph = MultiplexGraph::Create("fuzz", x, {a, b}, {"r1", "r2"});
  UMGAD_CHECK(graph.ok());

  UmgadConfig config;
  config.epochs = 1;
  config.hidden_dim = 4;
  config.mask_repeats = 1;
  config.num_subgraphs = 1;
  config.subgraph_size = 3;
  config.num_score_negatives = 2;
  config.seed = 3;
  UmgadModel model(config);
  UMGAD_CHECK(model.Fit(*graph).ok());
  auto trained = TrainedModel::FromFitted(model, *graph);
  UMGAD_CHECK(trained.ok());
  UMGAD_CHECK(trained->Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// One fitted artifact per process: training is the expensive part, and
/// every case below only reads it.
const std::string& Artifact(const std::string& scratch_path) {
  static const std::string* bytes =
      new std::string(FittedArtifactBytes(scratch_path));
  return *bytes;
}

class ModelIoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test scratch file: ctest -j runs each case as its own process.
    path_ = ::testing::TempDir() + "/umgad_model_fuzz_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".umgm";
    artifact_ = &Artifact(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `bytes` and loads them. An accepted model may not hold more
  /// weight bytes than the file had: that is the over-allocation bound.
  bool LoadAndCheck(const std::string& bytes, const std::string& what) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      EXPECT_TRUE(out.good()) << what;
    }
    Result<TrainedModel> loaded = TrainedModel::Load(path_);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << what << ": " << loaded.status().ToString();
      return false;
    }
    int64_t weight_bytes = 0;
    for (const Tensor& t : loaded->weights()) {
      weight_bytes += static_cast<int64_t>(t.size()) * 4;
    }
    EXPECT_LE(weight_bytes, static_cast<int64_t>(bytes.size())) << what;
    return true;
  }

  /// Offsets inside a v2 artifact (docs/FORMATS.md): header 12, config
  /// length 4, config 116, fingerprint 12 + 8R + 8, Rng state 41, then the
  /// i64 tensor count and each tensor's i32 rows, i32 cols, floats.
  static size_t TensorCountOffset() {
    return 12 + 4 + 116 + 12 + 8 * 2 + 8 + 41;
  }
  /// The config's i32 hidden_dim: header 12, config length 4, encoder 4.
  static size_t HiddenDimOffset() { return 12 + 4 + 4; }

  std::string path_;
  const std::string* artifact_ = nullptr;
};

template <typename T>
std::string Patched(const std::string& bytes, size_t at, T value) {
  std::string out = bytes;
  UMGAD_CHECK(at + sizeof(T) <= out.size());
  std::memcpy(&out[at], &value, sizeof(T));
  return out;
}

TEST_F(ModelIoFuzzTest, ValidArtifactLoads) {
  ASSERT_GT(artifact_->size(), TensorCountOffset() + 8);
  EXPECT_TRUE(LoadAndCheck(*artifact_, "unmodified artifact"));
}

TEST_F(ModelIoFuzzTest, TruncationAtEveryLengthIsAStatus) {
  // The trailer magic closes the file, so every strict prefix is invalid.
  for (size_t len = 0; len < artifact_->size(); ++len) {
    EXPECT_FALSE(LoadAndCheck(artifact_->substr(0, len),
                              "prefix of " + std::to_string(len) + " bytes"))
        << "the loader accepted a " << len << "-byte prefix of a "
        << artifact_->size() << "-byte artifact";
  }
}

TEST_F(ModelIoFuzzTest, SeededByteFlipsNeverCrash) {
  Rng rng(0x0D31F5ULL);
  int accepted = 0;
  for (int trial = 0; trial < 480; ++trial) {
    std::string mutant = *artifact_;
    const int flips = 1 + static_cast<int>(rng.UniformInt(3));
    std::string what = "flip trial " + std::to_string(trial) + " @";
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(rng.UniformInt(mutant.size()));
      const unsigned char mask =
          static_cast<unsigned char>(1 + rng.UniformInt(255));
      mutant[at] =
          static_cast<char>(static_cast<unsigned char>(mutant[at]) ^ mask);
      what += " " + std::to_string(at);
    }
    if (LoadAndCheck(mutant, what)) ++accepted;
  }
  // Flips inside weight floats, the hash or the Rng state are not
  // structurally checked, so some mutants load; the rest must not.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 480);
}

TEST_F(ModelIoFuzzTest, HostileTensorCountIsAStatusNotAnAllocation) {
  const size_t count_at = TensorCountOffset();
  int64_t count = 0;
  std::memcpy(&count, artifact_->data() + count_at, sizeof(count));
  ASSERT_GT(count, 0);
  for (const int64_t hostile :
       {int64_t{-1}, count + 1, int64_t{1} << 20, (int64_t{1} << 20) + 1,
        int64_t{1} << 40, std::numeric_limits<int64_t>::max(),
        std::numeric_limits<int64_t>::min()}) {
    EXPECT_FALSE(LoadAndCheck(Patched(*artifact_, count_at, hostile),
                              "tensor count " + std::to_string(hostile)));
  }
}

TEST_F(ModelIoFuzzTest, HostileTensorShapeIsAStatusNotAnAllocation) {
  const size_t first_shape_at = TensorCountOffset() + 8;
  const int32_t hostile[] = {-1,
                             1 << 24,
                             (1 << 24) + 1,
                             std::numeric_limits<int32_t>::max(),
                             std::numeric_limits<int32_t>::min()};
  for (const size_t field_at : {first_shape_at, first_shape_at + 4}) {
    for (const int32_t value : hostile) {
      EXPECT_FALSE(LoadAndCheck(Patched(*artifact_, field_at, value),
                                "shape field " + std::to_string(value) +
                                    " at offset " + std::to_string(field_at)));
    }
  }
  // Both axes at the per-axis cap: 2^48 elements, which only the
  // remaining-bytes bound (divided, never multiplied) can refuse.
  std::string both = Patched(*artifact_, first_shape_at, int32_t{1} << 24);
  both = Patched(both, first_shape_at + 4, int32_t{1} << 24);
  EXPECT_FALSE(LoadAndCheck(both, "2^24 x 2^24 weight"));
  // A larger first tensor shifts every later read: still a Status.
  int32_t rows = 0;
  std::memcpy(&rows, artifact_->data() + first_shape_at, sizeof(rows));
  EXPECT_FALSE(LoadAndCheck(Patched(*artifact_, first_shape_at, rows + 1),
                            "first tensor one row taller"));
}

TEST_F(ModelIoFuzzTest, HostileHiddenDimIsAStatusAtLoad) {
  int32_t hidden = 0;
  std::memcpy(&hidden, artifact_->data() + HiddenDimOffset(), sizeof(hidden));
  ASSERT_EQ(hidden, 4);
  // Inside the per-field cap, but wider than any stored weight: Load must
  // refuse it before anything sizes views from the config.
  for (const int32_t hostile : {int32_t{1} << 20, int32_t{1} << 24}) {
    EXPECT_FALSE(LoadAndCheck(Patched(*artifact_, HiddenDimOffset(), hostile),
                              "hidden_dim " + std::to_string(hostile)));
  }
}

}  // namespace
}  // namespace umgad
