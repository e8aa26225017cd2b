// Open-loop load generation: each request has a due time fixed by the
// schedule before the run starts, independent of how fast the system under
// test absorbs earlier requests. Latencies are measured from the due time,
// so a generator that falls behind (or a Submit that blocks on
// backpressure) shows up as latency instead of silently slowing the
// offered load (no coordinated omission).
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// CPU time of the calling thread in nanoseconds. Unlike NowNs() it does
/// not advance while the hypervisor runs another guest on this vCPU (the
/// steal time in /proc/stat).
int64_t ThreadCpuNs();

/// Sleep until the monotonic clock reaches `deadline_ns` (returns at once
/// when it already has).
void SleepUntilNs(int64_t deadline_ns);

/// Fixed-rate schedule: request i is due at start + round(i * 1e9 / rate).
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s);

  int64_t DueNs(int64_t i) const;

 private:
  int64_t start_ns_;
  double rate_;
};

/// How late the generator issued each request: max(0, issued - due).
class LatenessLog {
 public:
  void Record(int64_t due_ns, int64_t issued_ns);
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }

 private:
  std::vector<double> lateness_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
