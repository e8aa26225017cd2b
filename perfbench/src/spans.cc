#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "loadgen.h"

namespace perfbench {

namespace {
// Open spans of the calling thread, innermost last. Holds (recorder, id)
// so two recorders in one process never adopt each other's spans.
thread_local std::vector<std::pair<const SpanRecorder*, int>> t_open;
}  // namespace

int SpanRecorder::Begin(const std::string& name, int parent, int64_t request) {
  if (parent == kThreadParent) {
    parent = -1;
    for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
      if (it->first == this) {
        parent = it->second;
        break;
      }
    }
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  int id = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_open.emplace_back(this, id);
  // Stamp last so the bookkeeping above is outside the span.
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].start_ns = now;
  return id;
}

void SpanRecorder::End(int id) {
  const int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this && it->second == id) {
      t_open.erase(std::next(it).base());
      break;
    }
  }
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  const std::vector<Span> all = spans();
  // Closed children's intervals, grouped by parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0 && s.end_ns != 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(all.size(), 0.0);
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].end_ns == 0) continue;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = all[i].start_ns;  // end of the merged cover so far
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, reach);
      const int64_t to = std::min(end, all[i].end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(end, all[i].end_ns));
    }
    self[i] = static_cast<double>(all[i].end_ns - all[i].start_ns - covered) / 1e9;
  }
  return self;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfSeconds();
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  const int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  std::fprintf(f.get(), "{\"spans\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f.get(),
                 "  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"request\": %lld, \"self_ns\": %lld}%s\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent,
                 static_cast<long long>(s.request),
                 static_cast<long long>(self[i] * 1e9),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f.get(), "]}\n");
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
