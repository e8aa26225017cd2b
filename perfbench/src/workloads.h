// The benchmark's workloads. Every workload is one dataset taken through
// the system's two jobs: training (repeated UmgadModel::Fit on the graph)
// and serving (an open-loop edge stream into a ShardRouter loaded with a
// model trained on the same graph). The workloads differ in how their
// graphs load each layer, so every workload reports every metric.
//
// Each workload has a generator (builds its inputs from the seed and
// writes them to files) and a timed run (loads only those files, drives
// the library through public calls, checks the outputs and fills the
// report).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/model_io.h"
#include "graph/multiplex_graph.h"
#include "report.h"
#include "serve/online_scorer.h"
#include "serve/shard_router.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the generated inputs.
  std::string inputs;
  /// Worker lanes of the library's thread pool for timed work.
  int lanes = 1;
  /// Hardware threads; traced runs also train at this many lanes.
  int nproc = 1;
};

struct WorkloadParams {
  const char* name;
  const char* dataset;
  double scale;
  /// Training epochs of every timed fit and of the served model.
  int epochs;
  /// Serving: updates per second of the measured fixed-rate phase.
  double nominal_rate;
  /// Traced runs read the router's Stats() at this rate, well above the
  /// nominal one, so shard queues fill in bursts and the queue and
  /// publish counters can move.
  double stress_rate;
};

/// Null for an unknown name.
const WorkloadParams* FindWorkload(const std::string& name);

/// Bit-for-bit equality of two score vectors (the correctness gates).
inline bool SameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Input generation. Returns 0 on success.
int Generate(const WorkloadParams& params, const RunOptions& options);

/// Timed run. `spans` is null with tracing off.
void Run(const WorkloadParams& params, const RunOptions& options,
         SpanRecorder* spans, RunRecord* record, Report* report);

// The two jobs (train_phase.cc, serve_phase.cc), called by Run.

/// Untraced training: repeated fits for about `seconds`. Calls `between`
/// after every timed fit (it returns false to stop); adds fit_s and
/// fit_auc.
void TrainUntraced(const umgad::MultiplexGraph& graph,
                   const WorkloadParams& params, const RunOptions& options,
                   double seconds, const std::function<bool()>& between,
                   Report* report);
/// Traced training: the training loop re-assembled from Fit's public
/// calls with a span per stage, at 1 lane and at options.lanes; adds the
/// stage metrics.
void TrainTraced(const umgad::MultiplexGraph& graph,
                 const WorkloadParams& params, const RunOptions& options,
                 double seconds, SpanRecorder* spans, Report* report);

struct ServeInputs {
  const umgad::MultiplexGraph* graph;
  const umgad::TrainedModel* model;
  umgad::serve::ShardRouter* router;
  const std::vector<umgad::serve::EdgeUpdate>* stream;
};

/// Untraced serving: the stream at the nominal rate for about `seconds`;
/// adds the visible and query latencies and serve_auc.
void ServeUntraced(const ServeInputs& in, const WorkloadParams& params,
                   const RunOptions& options, double seconds, Report* report);
/// Traced serving: a flat-scorer replay and router phases with spans;
/// adds the serve metrics.
void ServeTraced(const ServeInputs& in, const WorkloadParams& params,
                 const RunOptions& options, double seconds,
                 SpanRecorder* spans, Report* report);

umgad::serve::RouterOptions MakeRouterOptions();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
