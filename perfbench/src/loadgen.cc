#include "loadgen.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t wait = deadline_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

OpenLoopSchedule::OpenLoopSchedule(int64_t start_ns, double rate_per_s)
    : start_ns_(start_ns), rate_(rate_per_s) {}

int64_t OpenLoopSchedule::DueNs(int64_t i) const {
  return start_ns_ +
         static_cast<int64_t>(std::llround(static_cast<double>(i) * 1e9 / rate_));
}

void LatenessLog::Record(int64_t due_ns, int64_t issued_ns) {
  lateness_ms_.push_back(static_cast<double>(std::max<int64_t>(
                             0, issued_ns - due_ns)) /
                         1e6);
}

}  // namespace perfbench
