// Result reporting: the run record (which host, build and kernels produced
// a number), named metrics with units, correctness gates, and the final
// one-line JSON result.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// True for names made only of [A-Za-z0-9_.-] that start with a letter or
/// digit and are at most 64 characters long.
bool ValidMetricName(const std::string& name);

struct RunRecord {
  std::string workload;
  uint64_t seed = 0;
  int trace = 0;
  std::string git_sha;
  std::string source_digest;
  std::string cpu_model;
  std::string cpu_features;
  int nproc = 0;
  int lanes = 0;
  int shards = 0;
  /// op -> selected kernel variant.
  std::vector<std::pair<std::string, std::string>> kernels;
  /// Share of the host's CPU time stolen by the hypervisor while the run
  /// measured (from /proc/stat; -1 when unavailable). A high value means
  /// other guests competed for the cores and the timings are suspect.
  double steal_share = -1.0;
};

/// Cumulative CPU time of the whole host from /proc/stat, in ticks.
struct CpuTicks {
  int64_t total = 0;
  int64_t steal = 0;
};
CpuTicks ReadCpuTicks();
/// Steal share between two readings (-1 when unavailable).
double StealShare(const CpuTicks& before, const CpuTicks& after);

/// Fills cpu_model, cpu_features, nproc and kernels from the host and the
/// library's kernel registry.
void FillHostRecord(RunRecord* record);

class Report {
 public:
  /// Adds a metric; `note` (sample counts, percentile ranks) goes to the
  /// human-readable lines and the result file, not the final JSON line.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// A failed correctness gate: the run reports correct=false and exits
  /// nonzero.
  void Fail(const std::string& what);
  /// A free-form finding for the human-readable lines and the result file.
  void Note(const std::string& text) { notes_.push_back(text); }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void CountOps(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// Human-readable lines (run record, metrics with notes, gate failures)
  /// followed by the final JSON result line.
  std::string Render(const RunRecord& record) const;
  /// Full result document: run record, metrics with notes, gates.
  std::string ResultJson(const RunRecord& record) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

std::string RecordJson(const RunRecord& record);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
