// Seeded edge-update streams for the serving workloads, in the scheme of
// bench/bench_serve_stream.cc: each update toggles a uniform random node
// pair in a uniform random relation (insert when the edge is absent,
// remove when present). On sparse layers such toggles nearly always
// insert, so a long stream would keep growing the graph and later phases
// of a run would measure a denser graph than earlier ones. Once
// kLiveToggles fresh toggles are out, every fresh toggle is therefore
// followed by a second toggle of the pair drawn kLiveToggles fresh
// toggles earlier, which sets it back: the graph stays within
// kLiveToggles pairs of the original. Every update is valid by
// construction: the generator tracks the graph through a mirror of each
// relation layer, and there are no self loops.
#ifndef PERFBENCH_STREAM_GEN_H_
#define PERFBENCH_STREAM_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/multiplex_graph.h"
#include "serve/online_scorer.h"

namespace perfbench {

using umgad::serve::EdgeUpdate;

constexpr int64_t kLiveToggles = 1000;

struct StreamSpec {
  int64_t count = 0;
  uint64_t seed = 1;
};

std::vector<EdgeUpdate> GenerateStream(const umgad::MultiplexGraph& graph,
                                       const StreamSpec& spec);

/// Replays `updates` against a mirror of `graph` and returns the index of
/// the first invalid update (out of range, self loop, duplicate insert or
/// absent removal), or -1 when all are valid.
int64_t FirstInvalidUpdate(const umgad::MultiplexGraph& graph,
                           const std::vector<EdgeUpdate>& updates);

umgad::Status SaveStream(const std::vector<EdgeUpdate>& updates,
                         const std::string& path);
umgad::Result<std::vector<EdgeUpdate>> LoadStream(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_GEN_H_
