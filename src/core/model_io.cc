#include "core/model_io.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/byte_io.h"
#include "common/string_util.h"
#include "core/scorer.h"
#include "graph/io/io_limits.h"

namespace umgad {

const char kModelExtension[] = "umgm";

namespace {

// "UMGM" little-endian, versioned like the graph container (docs/FORMATS.md).
//
// Config-evolution policy (v2, docs/FORMATS.md):
//  - The config block is length-prefixed. New *optional* config fields are
//    appended to the block and bump only the length — an older server
//    reads the fields it knows and skips the unknown tail (it serves the
//    artifact with the new knobs at their defaults, which is safe exactly
//    when the field is optional).
//  - A field whose misinterpretation would change results (new encoder
//    kind, changed field width, reordered layout, new weight framing)
//    must bump the format version instead. Loaders reject any version
//    above kVersion with a clear "newer than this build" Status rather
//    than misparsing (v1 servers predate the policy and reject v2
//    outright — that hard wall is why the prefix exists from v2 on).
//  - v1 files (fixed 116-byte config, no length prefix) load forever.
constexpr uint32_t kMagic = 0x4D474D55;         // 'U' 'M' 'G' 'M'
constexpr uint32_t kTrailerMagic = 0x444E454D;  // 'M' 'E' 'N' 'D'
constexpr uint32_t kVersion = 2;
// Bytes of the config fields this build knows (the v1 fixed block).
constexpr uint32_t kConfigCoreBytes = 116;
// Sanity cap on a declared config block: a future build appending enough
// optional fields to cross this is lying or corrupt.
constexpr uint32_t kMaxConfigBytes = 1 << 16;

// A model tensor axis never exceeds the feature cap (weights are
// in_dim x out_dim with in_dim <= kMaxFeatures), but hidden_dim is
// user-chosen, so allow headroom; the byte-level bound stays the
// ByteReader's remaining-file-size guard.
constexpr int64_t kMaxTensorDim = 1 << 24;
constexpr int64_t kMaxModelTensors = 1 << 20;

constexpr char kModelFiles[] = "umgad model artifacts";

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// The config block's fields in file order, walked by both Save and Load
/// so the two cannot drift apart. `field(T* value, const char* what)`
/// writes or reads one POD; the checks only ever fire on read.
template <typename FieldFn>
Status VisitConfig(UmgadConfig* c, const FieldFn& field) {
  uint32_t encoder = c->encoder == EncoderKind::kGat ? 0u : 1u;
  UMGAD_RETURN_IF_ERROR(field(&encoder, "config.encoder"));
  if (encoder > 1) {
    return Status::InvalidArgument(
        StrFormat("unknown encoder kind %u in model file", encoder));
  }
  c->encoder = encoder == 0 ? EncoderKind::kGat : EncoderKind::kSgc;
  UMGAD_RETURN_IF_ERROR(field(&c->hidden_dim, "config.hidden_dim"));
  UMGAD_RETURN_IF_ERROR(field(&c->encoder_layers, "config.encoder_layers"));
  UMGAD_RETURN_IF_ERROR(field(&c->decoder_layers, "config.decoder_layers"));
  UMGAD_RETURN_IF_ERROR(field(&c->mask_ratio, "config.mask_ratio"));
  UMGAD_RETURN_IF_ERROR(field(&c->mask_repeats, "config.mask_repeats"));
  UMGAD_RETURN_IF_ERROR(field(&c->subgraph_size, "config.subgraph_size"));
  UMGAD_RETURN_IF_ERROR(field(&c->num_subgraphs, "config.num_subgraphs"));
  UMGAD_RETURN_IF_ERROR(field(&c->rwr_restart, "config.rwr_restart"));
  UMGAD_RETURN_IF_ERROR(field(&c->attr_swap_ratio, "config.attr_swap_ratio"));
  UMGAD_RETURN_IF_ERROR(field(&c->eta, "config.eta"));
  UMGAD_RETURN_IF_ERROR(field(&c->alpha, "config.alpha"));
  UMGAD_RETURN_IF_ERROR(field(&c->beta, "config.beta"));
  UMGAD_RETURN_IF_ERROR(field(&c->lambda, "config.lambda"));
  UMGAD_RETURN_IF_ERROR(field(&c->mu, "config.mu"));
  UMGAD_RETURN_IF_ERROR(field(&c->theta, "config.theta"));
  UMGAD_RETURN_IF_ERROR(field(&c->epsilon, "config.epsilon"));
  UMGAD_RETURN_IF_ERROR(field(&c->epochs, "config.epochs"));
  UMGAD_RETURN_IF_ERROR(field(&c->learning_rate, "config.learning_rate"));
  UMGAD_RETURN_IF_ERROR(field(&c->weight_decay, "config.weight_decay"));
  UMGAD_RETURN_IF_ERROR(field(&c->num_negatives, "config.num_negatives"));
  UMGAD_RETURN_IF_ERROR(
      field(&c->num_score_negatives, "config.num_score_negatives"));
  UMGAD_RETURN_IF_ERROR(field(&c->seed, "config.seed"));
  if (c->hidden_dim <= 0 || c->hidden_dim > kMaxTensorDim ||
      c->encoder_layers < 0 || c->decoder_layers < 0) {
    return Status::InvalidArgument("corrupt model config dimensions");
  }
  for (bool* b : {&c->use_masking, &c->use_original_view,
                  &c->use_attr_augmented_view,
                  &c->use_subgraph_augmented_view, &c->use_contrastive,
                  &c->use_relation_fusion, &c->use_attribute_recon,
                  &c->use_structure_recon}) {
    uint8_t raw = *b ? 1 : 0;
    UMGAD_RETURN_IF_ERROR(field(&raw, "config.flags"));
    *b = raw != 0;
  }
  return Status::OK();
}

}  // namespace

bool GraphFingerprint::Matches(const GraphFingerprint& other) const {
  return num_nodes == other.num_nodes && feature_dim == other.feature_dim &&
         num_relations == other.num_relations &&
         layer_nnz == other.layer_nnz && content_hash == other.content_hash;
}

GraphFingerprint FingerprintGraph(const MultiplexGraph& graph) {
  GraphFingerprint fp;
  fp.num_nodes = graph.num_nodes();
  fp.feature_dim = graph.feature_dim();
  fp.num_relations = graph.num_relations();
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  const Tensor& x = graph.attributes();
  h = Fnv1a(h, x.data(), static_cast<size_t>(x.size()) * sizeof(float));
  for (int r = 0; r < graph.num_relations(); ++r) {
    const SparseMatrix& layer = graph.layer(r);
    fp.layer_nnz.push_back(layer.nnz());
    h = Fnv1a(h, layer.row_ptr().data(),
              layer.row_ptr().size() * sizeof(int64_t));
    h = Fnv1a(h, layer.col_idx().data(), layer.col_idx().size() * sizeof(int));
    h = Fnv1a(h, layer.values().data(), layer.values().size() * sizeof(float));
  }
  fp.content_hash = h;
  return fp;
}

Result<TrainedModel> TrainedModel::FromFitted(const UmgadModel& model,
                                              const MultiplexGraph& graph) {
  if (model.scores().empty()) {
    return Status::FailedPrecondition(
        "TrainedModel::FromFitted needs a fitted model (call Fit first)");
  }
  TrainedModel out;
  out.config_ = model.config();
  out.fingerprint_ = FingerprintGraph(graph);
  out.rng_state_ = model.scoring_rng_state();
  for (const ReconstructionView* view : model.ActiveViews()) {
    for (const ag::VarPtr& p : view->Parameters()) {
      out.weights_.push_back(p->value());
    }
  }
  return out;
}

Status TrainedModel::Save(const std::string& path) const {
  UMGAD_RETURN_IF_ERROR(RequireLittleEndianHost(kModelFiles));
  ByteWriter w(path);
  if (!w.ok()) {
    return Status::NotFound(StrFormat("cannot open %s for writing",
                                      path.c_str()));
  }
  w.Pod<uint32_t>(kMagic);
  w.Pod<uint32_t>(kVersion);
  w.Pod<uint32_t>(0);  // flags, reserved
  // v2: the config block is length-prefixed so future optional trailing
  // fields stay readable by this build (see the policy note at the top).
  w.Pod<uint32_t>(kConfigCoreBytes);
  UmgadConfig config = config_;
  UMGAD_RETURN_IF_ERROR(
      VisitConfig(&config, [&w](auto* value, const char* /*what*/) {
        w.Pod(*value);
        return Status::OK();
      }));

  w.Pod<int32_t>(fingerprint_.num_nodes);
  w.Pod<int32_t>(fingerprint_.feature_dim);
  w.Pod<int32_t>(fingerprint_.num_relations);
  for (int64_t nnz : fingerprint_.layer_nnz) w.Pod<int64_t>(nnz);
  w.Pod<uint64_t>(fingerprint_.content_hash);

  for (uint64_t s : rng_state_.s) w.Pod<uint64_t>(s);
  w.Pod<uint8_t>(rng_state_.has_cached_normal ? 1 : 0);
  w.Pod<double>(rng_state_.cached_normal);

  w.Pod<int64_t>(static_cast<int64_t>(weights_.size()));
  for (const Tensor& t : weights_) {
    w.Pod<int32_t>(t.rows());
    w.Pod<int32_t>(t.cols());
    w.Bytes(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
  }
  w.Pod<uint32_t>(kTrailerMagic);
  if (!w.ok()) {
    return Status::Internal(StrFormat("write to %s failed", path.c_str()));
  }
  return Status::OK();
}

Result<TrainedModel> TrainedModel::Load(const std::string& path) {
  UMGAD_RETURN_IF_ERROR(RequireLittleEndianHost(kModelFiles));
  // A model is small: read it whole, then parse the bytes in memory.
  Result<std::shared_ptr<const FileBytes>> file = FileBytes::Read(path);
  if (!file.ok()) {
    return Status::NotFound(StrFormat("cannot open %s", path.c_str()));
  }
  ByteReader r((*file)->data(), (*file)->size());
  auto read_field = [&r](auto* value, const char* what) {
    return r.Pod(value, what);
  };
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t flags = 0;
  UMGAD_RETURN_IF_ERROR(r.Pod(&magic, "header"));
  if (magic != kMagic) {
    return Status::InvalidArgument(
        StrFormat("%s is not a umgad model file (bad magic)", path.c_str()));
  }
  UMGAD_RETURN_IF_ERROR(r.Pod(&version, "header"));
  if (version > kVersion) {
    return Status::InvalidArgument(StrFormat(
        "%s: model format version %u is newer than this build supports "
        "(max %u); upgrade the server or re-export the artifact with this "
        "build",
        path.c_str(), version, kVersion));
  }
  if (version < 1) {
    return Status::InvalidArgument(
        StrFormat("unsupported model format version %u", version));
  }
  UMGAD_RETURN_IF_ERROR(r.Pod(&flags, "header"));

  TrainedModel out;
  if (version >= 2) {
    // Length-prefixed config: read the fields this build knows, tolerate
    // (skip) optional trailing fields a newer minor revision appended.
    uint32_t config_bytes = 0;
    UMGAD_RETURN_IF_ERROR(r.Pod(&config_bytes, "config length"));
    if (config_bytes < kConfigCoreBytes) {
      return Status::InvalidArgument(StrFormat(
          "corrupt model: config block of %u bytes is smaller than the %u "
          "this format version requires",
          config_bytes, kConfigCoreBytes));
    }
    if (config_bytes > kMaxConfigBytes) {
      return Status::InvalidArgument(StrFormat(
          "corrupt model: absurd config block of %u bytes declared",
          config_bytes));
    }
    UMGAD_RETURN_IF_ERROR(VisitConfig(&out.config_, read_field));
    UMGAD_RETURN_IF_ERROR(
        r.Skip(config_bytes - kConfigCoreBytes, "config trailing fields"));
  } else {
    // v1: fixed-size config block, no prefix.
    UMGAD_RETURN_IF_ERROR(VisitConfig(&out.config_, read_field));
  }

  GraphFingerprint& fp = out.fingerprint_;
  UMGAD_RETURN_IF_ERROR(r.Pod(&fp.num_nodes, "fingerprint.num_nodes"));
  UMGAD_RETURN_IF_ERROR(r.Pod(&fp.feature_dim, "fingerprint.feature_dim"));
  UMGAD_RETURN_IF_ERROR(r.Pod(&fp.num_relations, "fingerprint.num_relations"));
  if (fp.num_nodes < 0 || fp.num_nodes > io_limits::kMaxNodes ||
      fp.feature_dim < 0 || fp.feature_dim > io_limits::kMaxFeatures ||
      fp.num_relations < 1 || fp.num_relations > io_limits::kMaxRelations) {
    return Status::InvalidArgument("corrupt model fingerprint dimensions");
  }
  for (int i = 0; i < fp.num_relations; ++i) {
    int64_t nnz = 0;
    UMGAD_RETURN_IF_ERROR(r.Pod(&nnz, "fingerprint.layer_nnz"));
    fp.layer_nnz.push_back(nnz);
  }
  UMGAD_RETURN_IF_ERROR(r.Pod(&fp.content_hash, "fingerprint.hash"));

  for (uint64_t& s : out.rng_state_.s) {
    UMGAD_RETURN_IF_ERROR(r.Pod(&s, "rng state"));
  }
  uint8_t has_cached = 0;
  UMGAD_RETURN_IF_ERROR(r.Pod(&has_cached, "rng state"));
  out.rng_state_.has_cached_normal = has_cached != 0;
  UMGAD_RETURN_IF_ERROR(r.Pod(&out.rng_state_.cached_normal, "rng state"));

  int64_t tensor_count = 0;
  UMGAD_RETURN_IF_ERROR(r.Pod(&tensor_count, "weight count"));
  if (tensor_count < 0 || tensor_count > kMaxModelTensors) {
    return Status::InvalidArgument(StrFormat(
        "corrupt model: %lld weight tensors declared",
        static_cast<long long>(tensor_count)));
  }
  int32_t max_stored_dim = 0;
  for (int64_t t = 0; t < tensor_count; ++t) {
    int32_t rows = 0;
    int32_t cols = 0;
    UMGAD_RETURN_IF_ERROR(r.Pod(&rows, "weight shape"));
    UMGAD_RETURN_IF_ERROR(r.Pod(&cols, "weight shape"));
    if (rows < 0 || cols < 0 || rows > kMaxTensorDim || cols > kMaxTensorDim) {
      return Status::InvalidArgument(
          StrFormat("corrupt model: weight %lld declares shape %dx%d",
                    static_cast<long long>(t), rows, cols));
    }
    std::vector<float> data;
    UMGAD_RETURN_IF_ERROR(
        r.Array(&data, static_cast<int64_t>(rows) * cols, "weight data"));
    out.weights_.emplace_back(rows, cols, data);
    max_stored_dim = std::max({max_stored_dim, rows, cols});
  }
  // Every view stores hidden-sized weights, so a hidden_dim wider than all
  // of them is corrupt. Refused here, before BuildViews allocates views of
  // that width only to find their shapes do not match.
  if (out.config_.hidden_dim > max_stored_dim) {
    return Status::InvalidArgument(StrFormat(
        "corrupt model: config hidden_dim %d exceeds every stored weight "
        "dimension (max %d)",
        out.config_.hidden_dim, max_stored_dim));
  }

  uint32_t trailer = 0;
  UMGAD_RETURN_IF_ERROR(r.Pod(&trailer, "trailer"));
  if (trailer != kTrailerMagic) {
    return Status::InvalidArgument(
        StrFormat("%s: trailer mismatch (truncated or corrupt file)",
                  path.c_str()));
  }
  return out;
}

Result<std::vector<std::unique_ptr<ReconstructionView>>>
TrainedModel::BuildViews() const {
  // The constructors draw fresh initial weights from this throwaway stream;
  // every parameter is then overwritten with the stored tensors, so only
  // the registration structure (a pure function of the config) matters.
  Rng init_rng(config_.seed);
  std::vector<std::unique_ptr<ReconstructionView>> views;
  const int f = fingerprint_.feature_dim;
  const int r_count = fingerprint_.num_relations;
  if (config_.use_original_view) {
    views.push_back(std::make_unique<ReconstructionView>(
        ReconstructionView::Kind::kOriginal, f, r_count, config_, &init_rng));
  }
  if (config_.use_attr_augmented_view && config_.use_attribute_recon) {
    views.push_back(std::make_unique<ReconstructionView>(
        ReconstructionView::Kind::kAttrAugmented, f, r_count, config_,
        &init_rng));
  }
  if (config_.use_subgraph_augmented_view) {
    views.push_back(std::make_unique<ReconstructionView>(
        ReconstructionView::Kind::kSubgraphAugmented, f, r_count, config_,
        &init_rng));
  }
  if (views.empty()) {
    return Status::InvalidArgument("model config enables no views");
  }

  size_t k = 0;
  for (const auto& view : views) {
    for (const ag::VarPtr& p : view->Parameters()) {
      if (k >= weights_.size()) {
        return Status::InvalidArgument(StrFormat(
            "model weight count mismatch: config wants more than the %zu "
            "stored tensors",
            weights_.size()));
      }
      if (!p->value().SameShape(weights_[k])) {
        return Status::InvalidArgument(StrFormat(
            "model weight %zu shape mismatch: stored %s, config wants %s",
            k, weights_[k].ShapeString().c_str(),
            p->value().ShapeString().c_str()));
      }
      p->mutable_value() = weights_[k];
      ++k;
    }
  }
  if (k != weights_.size()) {
    return Status::InvalidArgument(StrFormat(
        "model weight count mismatch: %zu stored tensors, config uses %zu",
        weights_.size(), k));
  }
  return views;
}

Result<std::vector<double>> TrainedModel::Score(const MultiplexGraph& graph,
                                                bool check_fingerprint) const {
  if (check_fingerprint && !fingerprint_.Matches(FingerprintGraph(graph))) {
    return Status::InvalidArgument(
        "graph does not match the model's training fingerprint "
        "(pass check_fingerprint=false to score anyway)");
  }
  if (graph.feature_dim() != fingerprint_.feature_dim ||
      graph.num_relations() != fingerprint_.num_relations) {
    return Status::InvalidArgument(
        "graph shape is incompatible with the stored model weights");
  }
  // The rebuilt views' parameters are persistent tape leaves; the scope
  // reclaims them once scoring is done, so repeated Load/Score cycles in a
  // long-running process are leak-free. The views (and every transient node
  // their forward passes build) must be gone before the scope closes, hence
  // the inner block: Reset() drops the transients, the block end drops the
  // views, the scope end rewinds the leaves.
  ag::ParamScope params;
  std::vector<double> scores;
  {
    Result<std::vector<std::unique_ptr<ReconstructionView>>> views =
        BuildViews();
    UMGAD_RETURN_IF_ERROR(views.status());

    std::vector<std::shared_ptr<const SparseMatrix>> norm_adjs;
    for (int r = 0; r < graph.num_relations(); ++r) {
      norm_adjs.push_back(std::make_shared<const SparseMatrix>(
          graph.layer(r).NormalizedWithSelfLoops()));
    }
    // Exactly the Fit scoring block: deterministic view passes, then the
    // residual negatives drawn from the checkpointed stream.
    std::vector<ViewScoring> scorings;
    for (const auto& view : *views) {
      scorings.push_back(view->Score(graph, norm_adjs));
    }
    Rng rng;
    rng.set_state(rng_state_);
    scores = ComputeAnomalyScores(graph, scorings, config_.epsilon,
                                  config_.num_score_negatives, &rng);
    ag::Tape::Global().Reset();
  }
  return scores;
}

}  // namespace umgad
