#include "stream_gen.h"

#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>

#include "common/rng.h"
#include "serve/dynamic_adjacency.h"

namespace perfbench {

using umgad::MultiplexGraph;
using umgad::Result;
using umgad::Rng;
using umgad::Status;
using umgad::serve::DynamicAdjacency;

namespace {

constexpr char kMagic[8] = {'P', 'B', 'S', 'T', 'R', 'M', '1', '\n'};

std::vector<DynamicAdjacency> Mirror(const MultiplexGraph& graph) {
  std::vector<DynamicAdjacency> mirror;
  for (int r = 0; r < graph.num_relations(); ++r) {
    mirror.emplace_back(graph.layer(r));
  }
  return mirror;
}

void Apply(const EdgeUpdate& u, DynamicAdjacency* layer) {
  if (u.add) {
    layer->AddEntry(u.src, u.dst, 1.0f);
    layer->AddEntry(u.dst, u.src, 1.0f);
  } else {
    layer->RemoveEntry(u.src, u.dst);
    layer->RemoveEntry(u.dst, u.src);
  }
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

std::vector<EdgeUpdate> GenerateStream(const MultiplexGraph& graph,
                                       const StreamSpec& spec) {
  std::vector<DynamicAdjacency> mirror = Mirror(graph);
  const int n = graph.num_nodes();
  Rng rng(spec.seed);
  std::vector<EdgeUpdate> updates;
  updates.reserve(static_cast<size_t>(spec.count));
  std::deque<EdgeUpdate> live;  // fresh toggles not yet set back
  auto toggle = [&](EdgeUpdate u) {
    DynamicAdjacency& layer = mirror[u.relation];
    u.add = !layer.Has(u.src, u.dst);
    Apply(u, &layer);
    updates.push_back(u);
    return u;
  };
  while (static_cast<int64_t>(updates.size()) < spec.count) {
    EdgeUpdate u;
    u.relation = static_cast<int>(rng.UniformInt(graph.num_relations()));
    u.src = static_cast<int>(rng.UniformInt(n));
    u.dst = static_cast<int>(rng.UniformInt(n));
    if (u.src == u.dst) continue;
    live.push_back(toggle(u));
    if (static_cast<int64_t>(live.size()) > kLiveToggles &&
        static_cast<int64_t>(updates.size()) < spec.count) {
      toggle(live.front());
      live.pop_front();
    }
  }
  return updates;
}

int64_t FirstInvalidUpdate(const MultiplexGraph& graph,
                           const std::vector<EdgeUpdate>& updates) {
  std::vector<DynamicAdjacency> mirror = Mirror(graph);
  const int n = graph.num_nodes();
  for (size_t k = 0; k < updates.size(); ++k) {
    const EdgeUpdate& u = updates[k];
    const bool in_range = u.relation >= 0 &&
                          u.relation < graph.num_relations() && u.src >= 0 &&
                          u.src < n && u.dst >= 0 && u.dst < n;
    if (!in_range || u.src == u.dst ||
        mirror[u.relation].Has(u.src, u.dst) == u.add) {
      return static_cast<int64_t>(k);
    }
    Apply(u, &mirror[u.relation]);
  }
  return -1;
}

Status SaveStream(const std::vector<EdgeUpdate>& updates,
                  const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot write " + path);
  const uint64_t count = updates.size();
  bool ok = std::fwrite(kMagic, 1, sizeof(kMagic), f.get()) == sizeof(kMagic) &&
            std::fwrite(&count, sizeof(count), 1, f.get()) == 1;
  for (const EdgeUpdate& u : updates) {
    const int32_t rec[4] = {u.src, u.dst, u.relation, u.add ? 1 : 0};
    ok = ok && std::fwrite(rec, sizeof(rec), 1, f.get()) == 1;
  }
  if (!ok) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<std::vector<EdgeUpdate>> LoadStream(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot read " + path);
  char magic[sizeof(kMagic)];
  uint64_t count = 0;
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      std::fread(&count, sizeof(count), 1, f.get()) != 1 ||
      count > (uint64_t{1} << 26)) {
    return Status::InvalidArgument("not a perfbench stream: " + path);
  }
  std::vector<EdgeUpdate> updates(static_cast<size_t>(count));
  for (EdgeUpdate& u : updates) {
    int32_t rec[4];
    if (std::fread(rec, sizeof(rec), 1, f.get()) != 1) {
      return Status::InvalidArgument("truncated stream: " + path);
    }
    u.src = rec[0];
    u.dst = rec[1];
    u.relation = rec[2];
    u.add = rec[3] != 0;
  }
  return updates;
}

}  // namespace perfbench
