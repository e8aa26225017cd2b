// In-memory span recorder for traced benchmark runs. The harness wraps its
// own calls into each library module (graph, core, tensor, nn, serve) in
// spans; nothing inside the library is instrumented. Spans nest per thread
// (or take an explicit parent when work fans out to pool threads), carry
// an optional request id, and are written out as JSON when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // 0 while open
  int parent = -1;     // index into the recorder's spans, -1 = root
  int64_t request = -1;
  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

class SpanRecorder {
 public:
  static constexpr int kThreadParent = -2;

  /// Opens a span. `parent == kThreadParent` nests it under the calling
  /// thread's innermost open span; any other value is used as given.
  int Begin(const std::string& name, int parent = kThreadParent,
            int64_t request = -1);
  void End(int id);

  /// Snapshot of all spans (closed or not).
  std::vector<Span> spans() const;

  /// Per span: its duration minus the part of it covered by its direct
  /// children. Children that ran concurrently (on pool threads) are merged
  /// as intervals, so overlap is not subtracted twice.
  std::vector<double> SelfSeconds() const;

  /// Writes {"spans": [{name, start_ns, end_ns, parent, request,
  /// self_ns}, ...]} with start/end relative to the first span.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             int parent = SpanRecorder::kThreadParent, int64_t request = -1)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  int id() const { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
