#include "core/scorer.h"

#include <algorithm>
#include <cmath>

#include "graph/graph_ops.h"

namespace umgad {

namespace {

double SigmoidD(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

std::vector<double> StructureResidual(const SparseMatrix& adj,
                                      const Tensor& z, int num_negatives,
                                      Rng* rng, bool degree_normalized) {
  const int n = adj.rows();
  std::vector<double> residual(n, 0.0);
  const auto& rp = adj.row_ptr();
  const auto& ci = adj.col_idx();
  std::vector<double> dots;
  for (int i = 0; i < n; ++i) {
    // Degree-normalised residual: "how badly are my edges predicted" plus
    // "how much do I leak probability onto non-edges". The unnormalised
    // row L1 norm grows linearly with degree, which ranks hubs of dense
    // noisy layers above true anomalies; normalising keeps the ranking on
    // predictability rather than volume.
    double edge_err = 0.0;
    const int degree = static_cast<int>(rp[i + 1] - rp[i]);
    dots.resize(degree);
    z.RowDots(i, z, ci.data() + rp[i], degree, dots.data());
    for (double dot : dots) edge_err += 1.0 - SigmoidD(dot);
    double leak = 0.0;
    if (num_negatives > 0 && n - 1 - degree > 0) {
      const std::vector<int> negs =
          SampleNonNeighbors(adj, i, num_negatives, rng);
      dots.resize(negs.size());
      z.RowDots(i, z, negs.data(), static_cast<int>(negs.size()),
                dots.data());
      for (double dot : dots) leak += SigmoidD(dot);
      leak /= static_cast<double>(negs.size());
    }
    if (degree_normalized) {
      residual[i] = (degree > 0 ? edge_err / degree : 0.0) + leak;
    } else {
      // Raw row-norm estimate (the GAE papers' scorer).
      residual[i] =
          edge_err + leak * static_cast<double>(n - 1 - degree);
    }
  }
  return residual;
}

std::vector<double> StructureResidualExact(const SparseMatrix& adj,
                                           const Tensor& z) {
  const int n = adj.rows();
  std::vector<double> residual(n, 0.0);
  for (int i = 0; i < n; ++i) {
    double edge_err = 0.0;
    double leak = 0.0;
    int degree = 0;
    int non_edges = 0;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      const double p = SigmoidD(z.RowDot(i, z, j));
      if (adj.Has(i, j)) {
        edge_err += 1.0 - p;
        ++degree;
      } else {
        leak += p;
        ++non_edges;
      }
    }
    residual[i] = (degree > 0 ? edge_err / degree : 0.0) +
                  (non_edges > 0 ? leak / non_edges : 0.0);
  }
  return residual;
}

std::vector<double> MinMaxNormalize(const std::vector<double>& v) {
  if (v.empty()) return {};
  const auto [mn_it, mx_it] = std::minmax_element(v.begin(), v.end());
  const double mn = *mn_it;
  const double range = *mx_it - mn;
  std::vector<double> out(v.size(), 0.0);
  if (range <= 0.0) return out;
  for (size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - mn) / range;
  return out;
}

std::vector<double> Standardize(const std::vector<double>& v) {
  if (v.empty()) return {};
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0.0;
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  const double stddev = std::sqrt(var);
  std::vector<double> out(v.size(), 0.0);
  if (stddev <= 1e-300) return out;
  for (size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - mean) / stddev;
  return out;
}

std::vector<double> ComputeAnomalyScores(
    const MultiplexGraph& graph, const std::vector<ViewScoring>& views,
    float epsilon, int num_negatives, Rng* rng) {
  const int n = graph.num_nodes();
  const int r_count = graph.num_relations();
  std::vector<double> total(n, 0.0);
  int contributing_views = 0;

  for (const ViewScoring& view : views) {
    const bool has_attr = !view.attr_recon.empty();
    const bool has_struct = !view.embeddings.empty();
    if (!has_attr && !has_struct) continue;
    ++contributing_views;

    std::vector<double> attr_part(n, 0.0);
    if (has_attr) {
      Tensor dist = RowL2Distance(view.attr_recon, graph.attributes());
      for (int i = 0; i < n; ++i) attr_part[i] = dist.at(i, 0);
      attr_part = Standardize(attr_part);
    }

    std::vector<double> struct_part(n, 0.0);
    if (has_struct) {
      UMGAD_CHECK_EQ(static_cast<int>(view.embeddings.size()), r_count);
      for (int r = 0; r < r_count; ++r) {
        std::vector<double> res = StructureResidual(
            graph.layer(r), view.embeddings[r], num_negatives, rng);
        for (int i = 0; i < n; ++i) struct_part[i] += res[i] / r_count;
      }
      struct_part = Standardize(struct_part);
    }

    for (int i = 0; i < n; ++i) {
      if (has_attr && has_struct) {
        total[i] += epsilon * attr_part[i] + (1.0f - epsilon) * struct_part[i];
      } else if (has_attr) {
        total[i] += attr_part[i];
      } else {
        total[i] += struct_part[i];
      }
    }
  }

  UMGAD_CHECK_GT(contributing_views, 0);
  for (double& s : total) s /= contributing_views;
  return total;
}

}  // namespace umgad
