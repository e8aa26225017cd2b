// Training, the paper's job: repeated UmgadModel::Fit on the workload's
// graph with the default UmgadConfig (GAT, K=2) and a fixed epoch count.
//
// Untraced: Fit wall times and the AUC of the fitted scores. Traced: the
// same training program re-assembled from the public calls Fit makes,
// with a span around each stage, at 1 lane and at nproc lanes; its scores
// must equal Fit's bit for bit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/scorer.h"
#include "core/threshold.h"
#include "core/umgad.h"
#include "core/views.h"
#include "eval/metrics.h"
#include "loadgen.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "stats.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "workloads.h"

namespace perfbench {

using umgad::MultiplexGraph;
using umgad::ReconstructionView;
using umgad::Rng;
using umgad::SparseMatrix;
using umgad::UmgadConfig;
using umgad::ViewForward;
namespace ag = umgad::ag;

namespace {

constexpr int kMinFits = 3;
constexpr int kAucFits = 4;

uint64_t FitSeed(uint64_t run_seed, int k) {
  return run_seed * 7919 + static_cast<uint64_t>(k);
}

UmgadConfig FitConfig(const WorkloadParams& params, uint64_t seed) {
  UmgadConfig config;
  config.epochs = params.epochs;
  config.seed = seed;
  return config;
}

std::string Count(const char* what, size_t n) {
  return std::string(what) + " n=" + std::to_string(n);
}

/// One UmgadModel::Fit with model seed FitSeed(seed, k): its wall seconds
/// (-1 on failure) and scores.
double TimedFit(const MultiplexGraph& graph, const WorkloadParams& params,
                uint64_t seed, int k, std::vector<double>* scores,
                Report* report) {
  umgad::UmgadModel model(FitConfig(params, FitSeed(seed, k)));
  const int64_t t0 = NowNs();
  const umgad::Status status = model.Fit(graph);
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  report->CountOps(1, status.ok() ? 0 : 1);
  if (!status.ok()) {
    report->Fail("UmgadModel::Fit: " + status.ToString());
    return -1.0;
  }
  *scores = model.scores();
  return seconds;
}

/// What one traced training loop observed.
struct TracedFit {
  std::vector<double> scores;
  double wall_s = 0.0;
  double tape_nodes_per_epoch = 0.0;
  double pool_reuse_ratio = 0.0;
  int root = -1;
};

/// UmgadModel::Fit re-assembled from its public calls, in its order, with
/// a span around every stage. Partitioned training is off (run.py clears
/// UMGAD_PARTITIONS), so no row blocks are attached.
TracedFit RunTracedFit(const MultiplexGraph& graph, const UmgadConfig& config,
                       SpanRecorder* spans, Report* report) {
  TracedFit out;
  const int64_t t0 = NowNs();
  ScopedSpan root(spans, "fit.loop");
  out.root = root.id();
  Rng rng(config.seed);
  const int n = graph.num_nodes();
  const int r_count = graph.num_relations();
  const int f = graph.feature_dim();

  std::vector<std::unique_ptr<ReconstructionView>> owned;
  std::vector<ReconstructionView*> views;  // original, attr, subgraph
  {
    ScopedSpan span(spans, "core.build_views");
    using Kind = ReconstructionView::Kind;
    if (config.use_original_view) {
      owned.push_back(std::make_unique<ReconstructionView>(
          Kind::kOriginal, f, r_count, config, &rng));
    }
    if (config.use_attr_augmented_view && config.use_attribute_recon) {
      owned.push_back(std::make_unique<ReconstructionView>(
          Kind::kAttrAugmented, f, r_count, config, &rng));
    }
    if (config.use_subgraph_augmented_view) {
      owned.push_back(std::make_unique<ReconstructionView>(
          Kind::kSubgraphAugmented, f, r_count, config, &rng));
    }
    for (auto& v : owned) views.push_back(v.get());
  }

  std::vector<std::shared_ptr<const SparseMatrix>> norm_adjs;
  {
    ScopedSpan span(spans, "graph.normalize");
    for (int r = 0; r < r_count; ++r) {
      norm_adjs.push_back(std::make_shared<const SparseMatrix>(
          graph.layer(r).NormalizedWithSelfLoops()));
    }
    umgad::ParallelFor(r_count, 1, [&](int64_t b, int64_t e) {
      for (int r = static_cast<int>(b); r < e; ++r) {
        norm_adjs[r]->EnsureTransposedIndex();
        if (config.encoder == umgad::EncoderKind::kGat) {
          norm_adjs[r]->EnsureIncomingIndex();
        }
      }
    });
  }

  std::unique_ptr<umgad::nn::Adam> optimizer;
  {
    ScopedSpan span(spans, "nn.adam_init");
    std::vector<ag::VarPtr> params;
    for (ReconstructionView* view : views) {
      std::vector<ag::VarPtr> p = view->Parameters();
      params.insert(params.end(), p.begin(), p.end());
    }
    optimizer = std::make_unique<umgad::nn::Adam>(
        params, config.learning_rate, 0.9f, 0.999f, 1e-8f, config.weight_decay);
  }

  const char* kViewSpan[] = {"core.forward.original", "core.forward.attr_aug",
                             "core.forward.subgraph_aug"};
  std::vector<const char*> view_span;
  for (ReconstructionView* view : views) {
    view_span.push_back(kViewSpan[static_cast<int>(view->kind())]);
  }
  const int active = static_cast<int>(views.size());
  std::vector<double> tape_nodes;
  int64_t reused_steady = 0;
  int64_t fresh_buffers_steady = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    ScopedSpan epoch_span(spans, "fit.epoch", SpanRecorder::kThreadParent,
                          epoch);
    umgad::TensorPool::Stats pool_before;
    int64_t nodes_before = 0;
    {
      ScopedSpan span(spans, "tensor.tape_reset");
      ag::Tape::Global().Reset();
      pool_before = umgad::TensorPool::Global().stats();
      nodes_before = ag::Tape::Global().stats().total_transient_nodes;
    }
    {
      ScopedSpan span(spans, "nn.zero_grad");
      optimizer->ZeroGrad();
    }
    std::vector<Rng> view_rngs;
    std::vector<ViewForward> forwards(static_cast<size_t>(active));
    {
      ScopedSpan span(spans, "core.forward");
      for (int v = 0; v < active; ++v) view_rngs.push_back(rng.Fork());
      const int parent = span.id();
      umgad::ParallelFor(active, 1, [&](int64_t b, int64_t e) {
        for (int v = static_cast<int>(b); v < e; ++v) {
          ScopedSpan vspan(spans, view_span[v], parent, epoch);
          forwards[v] = views[v]->Forward(graph, norm_adjs, &view_rngs[v]);
        }
      });
    }
    ViewForward orig;
    ViewForward attr_aug;
    ViewForward sub_aug;
    std::vector<ag::VarPtr> terms;
    {
      ScopedSpan span(spans, "core.loss_terms");
      for (int v = 0; v < active; ++v) {
        switch (views[v]->kind()) {
          case ReconstructionView::Kind::kOriginal:
            orig = std::move(forwards[v]);
            if (orig.loss) terms.push_back(orig.loss);
            break;
          case ReconstructionView::Kind::kAttrAugmented:
            attr_aug = std::move(forwards[v]);
            if (attr_aug.loss) {
              terms.push_back(ag::ScalarMul(attr_aug.loss, config.lambda));
            }
            break;
          case ReconstructionView::Kind::kSubgraphAugmented:
            sub_aug = std::move(forwards[v]);
            if (sub_aug.loss) {
              terms.push_back(ag::ScalarMul(sub_aug.loss, config.mu));
            }
            break;
        }
      }
    }
    if (config.use_contrastive) {
      ScopedSpan span(spans, "core.contrastive");
      ag::VarPtr anchor = orig.fused_recon;
      std::vector<ag::VarPtr> others;
      if (anchor) {
        if (attr_aug.fused_recon) others.push_back(attr_aug.fused_recon);
        if (sub_aug.fused_recon) others.push_back(sub_aug.fused_recon);
      } else if (attr_aug.fused_recon && sub_aug.fused_recon) {
        anchor = attr_aug.fused_recon;
        others.push_back(sub_aug.fused_recon);
      }
      if (anchor && !others.empty()) {
        std::vector<int> neg = umgad::nn::SampleContrastiveNegatives(n, &rng);
        ag::VarPtr zo = ag::RowL2Normalize(anchor);
        std::vector<ag::VarPtr> cl_terms;
        for (const ag::VarPtr& other : others) {
          cl_terms.push_back(
              ag::DualContrastiveLoss(zo, ag::RowL2Normalize(other), neg));
        }
        terms.push_back(ag::ScalarMul(
            cl_terms.size() == 1 ? cl_terms[0] : ag::AddN(cl_terms),
            config.theta));
      }
    }
    ag::VarPtr loss;
    {
      ScopedSpan span(spans, "core.loss_total");
      if (terms.empty()) {
        report->Fail("traced fit produced no loss terms");
        return out;
      }
      loss = terms.size() == 1 ? terms[0] : ag::AddN(terms);
      if (!std::isfinite(loss->value().scalar())) {
        report->Fail("traced fit: non-finite loss (Fit would stop early)");
        return out;
      }
    }
    {
      ScopedSpan span(spans, "tensor.backward");
      ag::Backward(loss);
    }
    {
      ScopedSpan span(spans, "nn.adam");
      optimizer->Step();
    }
    tape_nodes.push_back(static_cast<double>(
        ag::Tape::Global().stats().total_transient_nodes - nodes_before));
    if (epoch > 0) {
      const umgad::TensorPool::Stats after = umgad::TensorPool::Global().stats();
      reused_steady += after.reused_buffers - pool_before.reused_buffers;
      fresh_buffers_steady += after.fresh_buffers - pool_before.fresh_buffers;
    }
  }

  std::vector<umgad::ViewScoring> scorings;
  {
    ScopedSpan span(spans, "core.score");
    for (ReconstructionView* view : views) {
      scorings.push_back(view->Score(graph, norm_adjs));
    }
  }
  {
    ScopedSpan span(spans, "core.anomaly_scores");
    out.scores = umgad::ComputeAnomalyScores(
        graph, scorings, config.epsilon, config.num_score_negatives, &rng);
  }
  {
    ScopedSpan span(spans, "core.threshold");
    (void)umgad::SelectThresholdInflection(out.scores);
  }
  {
    ScopedSpan span(spans, "tensor.tape_reset");
    scorings.clear();
    ag::Tape::Global().Reset();
  }
  out.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out.tape_nodes_per_epoch = Median(tape_nodes);
  const int64_t lookups = reused_steady + fresh_buffers_steady;
  out.pool_reuse_ratio =
      lookups > 0 ? static_cast<double>(reused_steady) / lookups : 0.0;
  return out;
}

struct Stage {
  const char* span;
  const char* metric;
  /// Runs once per epoch (else once per fit).
  bool per_epoch;
};

constexpr Stage kStages[] = {
    {"graph.normalize", "graph.normalize_s", false},
    {"core.forward", "core.forward_s", true},
    {"core.forward.original", "core.forward.original_s", true},
    {"core.forward.attr_aug", "core.forward.attr_aug_s", true},
    {"core.forward.subgraph_aug", "core.forward.subgraph_aug_s", true},
    {"core.contrastive", "core.contrastive_s", true},
    {"tensor.backward", "tensor.backward_s", true},
    {"nn.adam", "nn.adam_s", true},
    {"core.score", "core.score_s", false},
    {"core.anomaly_scores", "core.anomaly_scores_s", false},
    {"core.threshold", "core.threshold_s", false},
};

/// Stage times over the traced loops run at one lane count: per-epoch
/// stages as the median over all epochs, once-per-fit stages as the median
/// over loops. Returns each stage's median, in kStages order.
std::vector<double> AddStageMetrics(const SpanRecorder& rec,
                                    const std::vector<TracedFit>& loops,
                                    const std::string& suffix, Report* report) {
  const std::vector<Span> all = rec.spans();
  // Spans belonging to these loops: descendants of their roots (a parent
  // always precedes its children).
  std::vector<bool> in_loop(all.size(), false);
  for (const TracedFit& loop : loops) in_loop[static_cast<size_t>(loop.root)] = true;
  for (size_t i = 0; i < all.size(); ++i) {
    const int p = all[i].parent;
    if (p >= 0 && in_loop[static_cast<size_t>(p)]) in_loop[i] = true;
  }
  std::vector<double> medians;
  for (const Stage& stage : kStages) {
    std::vector<double> d;
    for (size_t i = 0; i < all.size(); ++i) {
      if (in_loop[i] && all[i].name == stage.span) d.push_back(all[i].seconds());
    }
    medians.push_back(Median(d));
    report->Add(std::string(stage.metric) + suffix, medians.back(), "s",
                Count(stage.per_epoch ? "median per epoch," : "median per fit,",
                      d.size()));
  }
  // Coverage: the share of the loops' wall time inside the reported stage
  // spans. The per-view forwards overlap inside core.forward, so only the
  // region counts; unreported spans (view set-up, tape resets, loss sums)
  // count as uncovered.
  double covered = 0.0;
  double loop_s = 0.0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (!in_loop[i]) continue;
    if (all[i].name == "fit.loop") loop_s += all[i].seconds();
    if (all[i].name.rfind("core.forward.", 0) == 0) continue;
    for (const Stage& stage : kStages) {
      if (all[i].name == stage.span) covered += all[i].seconds();
    }
  }
  std::vector<double> walls;
  for (const TracedFit& loop : loops) walls.push_back(loop.wall_s);
  report->Add("fit.coverage" + suffix, covered / loop_s, "share",
              Count("over loops,", loops.size()));
  report->Add("fit.loop_s" + suffix, Median(walls), "s",
              Count("median per loop,", walls.size()));
  const TracedFit& last = loops.back();
  report->Add("tensor.tape_nodes_per_epoch" + suffix, last.tape_nodes_per_epoch,
              "count");
  report->Add("tensor.pool_reuse_ratio" + suffix, last.pool_reuse_ratio,
              "share");
  return medians;
}

/// Names the stage that limits thread scaling: the one whose nproc-lane
/// time exceeds perfect scaling of its 1-lane time by the most, counted
/// over one whole fit.
std::string LimitingStage(const std::vector<double>& t1,
                          const std::vector<double>& tn, int lanes,
                          int epochs) {
  size_t worst = 0;
  double worst_excess = -1.0;
  for (size_t i = 0; i < t1.size(); ++i) {
    // Per-view forwards overlap inside core.forward; rank the region.
    const std::string span = kStages[i].span;
    if (span.rfind("core.forward.", 0) == 0) continue;
    const double reps = kStages[i].per_epoch ? epochs : 1;
    const double excess = reps * (tn[i] - t1[i] / lanes);
    if (excess > worst_excess) {
      worst_excess = excess;
      worst = i;
    }
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "limiting stage: %s (%.3g s at 1 lane, %.3g s at %d lanes, "
                "%.2fx; %.3g s per fit above perfect scaling)",
                kStages[worst].span, t1[worst], tn[worst], lanes,
                tn[worst] > 0 ? t1[worst] / tn[worst] : 0.0, worst_excess);
  return buf;
}

}  // namespace

void TrainUntraced(const MultiplexGraph& graph, const WorkloadParams& params,
                   const RunOptions& options, double seconds,
                   const std::function<bool()>& between, Report* report) {
  // Fit 0 warms the tensor pool and is not timed. Fit k trains with its
  // own model seed, so fit_auc averages over kAucFits initialisations
  // instead of hanging on one.
  std::vector<double> fit_s;
  std::vector<double> aucs;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int k = 0; k <= kMinFits || NowNs() < end; ++k) {
    std::vector<double> scores;
    const double s = TimedFit(graph, params, options.seed, k, &scores, report);
    if (s < 0) return;
    if (k < kAucFits) aucs.push_back(umgad::RocAuc(scores, graph.labels()));
    if (k == 0) continue;
    fit_s.push_back(s);
    if (!between()) return;
  }
  report->Add("fit_s", Median(fit_s), "s",
              "median UmgadModel::Fit wall time, " + DescribeTiming(fit_s) +
                  ", " + std::to_string(params.epochs) + " epochs, " +
                  std::to_string(options.lanes) + " lanes");
  double auc_sum = 0.0;
  for (double a : aucs) auc_sum += a;
  report->Add("fit_auc", auc_sum / aucs.size(), "AUC",
              "mean over " + std::to_string(aucs.size()) + " model seeds");
}

void TrainTraced(const MultiplexGraph& graph, const WorkloadParams& params,
                 const RunOptions& options, double seconds,
                 SpanRecorder* spans, Report* report) {
  // Rounds of {traced loop at 1 lane, untraced Fit and traced loop at
  // nproc lanes} until the time is up. Every traced loop must reproduce
  // Fit's scores for the same seed bit for bit; the overhead compares the
  // interleaved traced and untraced runs at nproc lanes.
  std::vector<double> reference;
  if (TimedFit(graph, params, options.seed, 0, &reference, report) < 0) return;
  const UmgadConfig config = FitConfig(params, FitSeed(options.seed, 0));
  std::vector<TracedFit> loops_t1;
  std::vector<TracedFit> loops_tn;
  std::vector<double> untraced_s;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (loops_tn.empty() || NowNs() < end) {
    for (const int lanes : {1, options.nproc}) {
      umgad::SetNumThreads(lanes);
      if (lanes == options.nproc) {
        std::vector<double> scores;
        const double s =
            TimedFit(graph, params, options.seed, 0, &scores, report);
        if (s < 0) return;
        untraced_s.push_back(s);
      }
      TracedFit traced = RunTracedFit(graph, config, spans, report);
      if (!report->correct()) return;
      report->Check(SameBits(traced.scores, reference),
                    "traced training loop at " + std::to_string(lanes) +
                        " lanes does not reproduce Fit's scores bit for bit");
      (lanes == 1 ? loops_t1 : loops_tn).push_back(std::move(traced));
    }
  }
  umgad::SetNumThreads(options.lanes);
  const std::vector<double> t1 = AddStageMetrics(*spans, loops_t1, ".t1", report);
  const std::vector<double> tn = AddStageMetrics(*spans, loops_tn, ".tN", report);
  std::vector<double> traced_s;
  for (const TracedFit& loop : loops_tn) traced_s.push_back(loop.wall_s);
  report->Add("fit.trace_overhead", Median(traced_s) / Median(untraced_s) - 1.0,
              "share",
              "median traced loop vs median untraced Fit at nproc lanes, " +
                  std::to_string(traced_s.size()) + " interleaved pairs");
  report->Note(LimitingStage(t1, tn, options.nproc, params.epochs));
}

}  // namespace perfbench
