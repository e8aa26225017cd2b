// The workload table, input generation, set-up and the timed run that
// takes one workload through set-up, training and serving.
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/umgad.h"
#include "graph/datasets.h"
#include "graph/io/binary_format.h"
#include "graph/io/graph_io.h"
#include "loadgen.h"
#include "stats.h"
#include "stream_gen.h"
#include "workloads.h"

namespace perfbench {

using umgad::MultiplexGraph;
using umgad::TrainedModel;
using umgad::serve::ShardRouter;

namespace {

constexpr WorkloadParams kWorkloads[] = {
    {"dgfin", "DG-Fin", 0.5, 2, 250.0, 1500.0},
    {"tsocial", "T-Social", 0.2, 2, 300.0, 1000.0},
};

// The graph instance and the served model are part of the workload (like
// a named dataset and a deployed model); the run seed drives the timed
// fits' model seeds, the update stream and the reader's query keys.
constexpr uint64_t kGraphSeed = 1;
constexpr uint64_t kModelSeed = 1;
constexpr int kShards = 2;
constexpr int64_t kStreamLength = 100000;
// Share of the run's seconds spent training; serving gets the rest.
constexpr double kTrainShare = 0.5;
// Set-ups before training (the last one is kept for serving) and after
// serving; untraced runs also set up once after every timed fit, so the
// set-up samples spread over the run.
constexpr int kSetupsBefore = 2;
constexpr int kSetupsAfter = 2;

std::string GraphPath(const RunOptions& o) { return o.inputs + "/graph.umgb"; }
std::string ModelPath(const RunOptions& o) { return o.inputs + "/model.umgm"; }
std::string StreamPath(const RunOptions& o) {
  return o.inputs + "/stream.bin";
}

/// Everything the timed program loads.
struct Loaded {
  MultiplexGraph graph;
  TrainedModel model;
  std::unique_ptr<ShardRouter> router;
};

/// Set-up samples: each stage and the whole.
struct SetUpTimes {
  std::vector<double> load_s;
  std::vector<double> model_s;
  std::vector<double> create_s;
  std::vector<double> total_s;
};

/// One set-up: LoadDataset + TrainedModel::Load + ShardRouter::Create.
bool SetUpOnce(const RunOptions& o, SpanRecorder* spans, Loaded* out,
               SetUpTimes* times, Report* report) {
  const int repeat = static_cast<int>(times->total_s.size());
  umgad::LoadDatasetOptions opts;
  opts.use_dataset_dir = false;
  const int64_t t0 = NowNs();
  int64_t t = t0;
  umgad::Result<MultiplexGraph> graph = [&] {
    ScopedSpan span(spans, "graph.load", SpanRecorder::kThreadParent, repeat);
    return umgad::LoadDataset(GraphPath(o), opts);
  }();
  times->load_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
  t = NowNs();
  umgad::Result<TrainedModel> model = [&] {
    ScopedSpan span(spans, "core.model_load", SpanRecorder::kThreadParent,
                    repeat);
    return TrainedModel::Load(ModelPath(o));
  }();
  times->model_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
  report->CountOps(2, (graph.ok() ? 0 : 1) + (model.ok() ? 0 : 1));
  if (!graph.ok() || !model.ok()) {
    report->Fail("set-up load failed: " +
                 (graph.ok() ? model.status() : graph.status()).ToString());
    return false;
  }
  t = NowNs();
  umgad::Result<std::unique_ptr<ShardRouter>> router = [&] {
    ScopedSpan span(spans, "serve.create", SpanRecorder::kThreadParent, repeat);
    return ShardRouter::Create(model.value(), graph.value(),
                               MakeRouterOptions());
  }();
  times->create_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
  report->CountOps(1, router.ok() ? 0 : 1);
  if (!router.ok()) {
    report->Fail("ShardRouter::Create: " + router.status().ToString());
    return false;
  }
  times->total_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  out->router.reset();  // tear the previous router down before replacing it
  out->graph = std::move(graph).value();
  out->model = std::move(model).value();
  out->router = std::move(router).value();
  return true;
}

}  // namespace

umgad::serve::RouterOptions MakeRouterOptions() {
  umgad::serve::RouterOptions options;
  options.num_shards = kShards;
  return options;
}

const WorkloadParams* FindWorkload(const std::string& name) {
  for (const WorkloadParams& p : kWorkloads) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

int Generate(const WorkloadParams& p, const RunOptions& options) {
  umgad::Result<MultiplexGraph> graph =
      umgad::MakeDataset(p.dataset, kGraphSeed, p.scale);
  if (!graph.ok()) {
    std::cerr << graph.status().ToString() << "\n";
    return 1;
  }
  std::cerr << graph.value().Summary() << "\n";
  umgad::UmgadConfig config;
  config.epochs = p.epochs;
  config.seed = kModelSeed;
  umgad::UmgadModel model(config);
  umgad::Status status = model.Fit(graph.value());
  if (!status.ok()) {
    std::cerr << "Fit: " << status.ToString() << "\n";
    return 1;
  }
  umgad::Result<TrainedModel> trained =
      TrainedModel::FromFitted(model, graph.value());
  if (!trained.ok()) {
    std::cerr << trained.status().ToString() << "\n";
    return 1;
  }
  StreamSpec spec;
  spec.count = kStreamLength;
  spec.seed = options.seed * 0x9E3779B97F4A7C15ULL + 17;
  const std::vector<EdgeUpdate> stream = GenerateStream(graph.value(), spec);
  if (FirstInvalidUpdate(graph.value(), stream) != -1) {
    std::cerr << "generated stream holds an invalid update\n";
    return 1;
  }
  for (const umgad::Status& s :
       {umgad::SaveGraphBinary(graph.value(), GraphPath(options)),
        trained.value().Save(ModelPath(options)),
        SaveStream(stream, StreamPath(options))}) {
    if (!s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
  }
  return 0;
}

void Run(const WorkloadParams& params, const RunOptions& options,
         SpanRecorder* spans, RunRecord* record, Report* report) {
  record->shards = kShards;
  Loaded loaded;
  SetUpTimes times;
  auto set_up = [&](int count, Loaded* into) {
    for (int i = 0; i < count; ++i) {
      if (!SetUpOnce(options, spans, into, &times, report)) return false;
    }
    return true;
  };
  if (!set_up(spans == nullptr ? kSetupsBefore : kSetupsBefore + kSetupsAfter,
              &loaded)) {
    return;
  }
  umgad::Result<std::vector<EdgeUpdate>> stream =
      LoadStream(StreamPath(options));
  if (!stream.ok()) {
    report->Fail(stream.status().ToString());
    return;
  }
  const ServeInputs in{&loaded.graph, &loaded.model, loaded.router.get(),
                       &stream.value()};
  const double train_s = options.seconds * kTrainShare;
  const double serve_s = options.seconds - train_s;

  if (spans == nullptr) {
    Loaded discard;
    TrainUntraced(loaded.graph, params, options, train_s,
                  [&] { return set_up(1, &discard); }, report);
    if (!report->correct()) return;
    ServeUntraced(in, params, options, serve_s, report);
    if (!set_up(kSetupsAfter, &discard)) return;
    report->Add("setup_s", Median(times.total_s), "s",
                "median of LoadDataset + TrainedModel::Load + "
                "ShardRouter::Create, " + DescribeTiming(times.total_s));
    return;
  }

  report->Add("graph.load_s", Median(times.load_s), "s",
              "median, n=" + std::to_string(times.load_s.size()));
  report->Add("core.model_load_s", Median(times.model_s), "s",
              "median, n=" + std::to_string(times.model_s.size()));
  report->Add("serve.create_s", Median(times.create_s), "s",
              "median, n=" + std::to_string(times.create_s.size()));
  TrainTraced(loaded.graph, params, options, train_s, spans, report);
  if (!report->correct()) return;
  ServeTraced(in, params, options, serve_s, spans, report);
}

}  // namespace perfbench
