#ifndef UMGAD_CORE_CONFIG_H_
#define UMGAD_CORE_CONFIG_H_

#include <cstdint>

namespace umgad {

/// Encoder family for the GMAEs ("Our method adopts GAT and simplified GCN
/// as the encoder and decoder", Sec. V-A.3). The decoder is always a
/// simplified GCN.
enum class EncoderKind { kGat, kSgc };

/// Full hyperparameter surface of UMGAD. Defaults follow the paper's tuned
/// small-dataset settings; the sensitivity benches (Figs. 3-5) sweep the
/// documented ranges.
struct UmgadConfig {
  // --- Architecture ---
  EncoderKind encoder = EncoderKind::kGat;
  /// Latent width d_h.
  int hidden_dim = 48;
  /// Encoder depth (paper: 2 for Amazon/YelpChi, 1 for Retail/Alibaba).
  int encoder_layers = 1;
  /// Decoder depth (paper: 1 everywhere).
  int decoder_layers = 1;

  // --- Masking (Sec. IV-A, IV-B) ---
  /// Masking ratio r_m shared by attribute and edge masking. The paper
  /// tunes 20% (Retail/Alibaba) to 40-60% (Amazon/YelpChi) per dataset;
  /// 0.3 is the best single global default on the bundled generators
  /// (Fig. 4 bench sweeps the range).
  double mask_ratio = 0.3;
  /// Masking repeats K.
  int mask_repeats = 2;
  /// RWR subgraph size |V_m| for the subgraph-level augmented view.
  int subgraph_size = 8;
  /// Subgraphs sampled per relation per repeat.
  int num_subgraphs = 6;
  /// RWR restart probability.
  double rwr_restart = 0.3;
  /// Fraction of nodes whose attributes are swapped in the attribute-level
  /// augmented view.
  double attr_swap_ratio = 0.15;

  // --- Loss weights (Eqs. 4, 9, 16, 18, 19) ---
  /// Scaled-cosine exponent eta (>= 1).
  float eta = 2.0f;
  /// Attribute-vs-structure balance in the original view (Eq. 9).
  float alpha = 0.5f;
  /// Attribute-vs-structure balance in the subgraph view (Eq. 16).
  float beta = 0.4f;
  /// Weight of the attribute-level augmented view loss (Eq. 18).
  float lambda = 0.3f;
  /// Weight of the subgraph-level augmented view loss (Eq. 18).
  float mu = 0.35f;
  /// Weight of the dual-view contrastive loss (Eq. 18).
  float theta = 0.1f;
  /// Attribute-vs-structure balance in the anomaly score (Eq. 19).
  float epsilon = 0.5f;

  // --- Training ---
  int epochs = 60;
  float learning_rate = 5e-3f;
  float weight_decay = 0.0f;
  /// Negative samples per masked edge in the softmax denominator (Eq. 7).
  int num_negatives = 4;
  /// Non-neighbour samples per node for the structure residual estimate in
  /// the anomaly score.
  int num_score_negatives = 16;
  uint64_t seed = 1;

  // --- Ablation switches (Table IV) ---
  /// w/o M: replace the GMAE with a plain GAE (no [MASK] token, no edge
  /// masking; reconstruction over all nodes/edges).
  bool use_masking = true;
  /// w/o O: drop the original-view reconstruction.
  bool use_original_view = true;
  /// w/o NA: drop the node-attribute-level augmented view.
  bool use_attr_augmented_view = true;
  /// w/o SA: drop the subgraph-level augmented view.
  bool use_subgraph_augmented_view = true;
  /// w/o DCL: drop the dual-view contrastive loss.
  bool use_contrastive = true;
  /// Extra ablation (DESIGN.md §6): learnable a_r/b_r fusion vs uniform.
  bool use_relation_fusion = true;

  // --- Pruned pipelines (Fig. 6) ---
  /// "Str": attribute reconstruction disabled.
  bool use_attribute_recon = true;
  /// "Att": structure reconstruction disabled.
  bool use_structure_recon = true;

  /// Convenience: w/o A (drop the whole augmented view).
  void DisableAugmentedViews() {
    use_attr_augmented_view = false;
    use_subgraph_augmented_view = false;
  }
};

}  // namespace umgad

#endif  // UMGAD_CORE_CONFIG_H_
