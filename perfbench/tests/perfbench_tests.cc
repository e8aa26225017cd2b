// Self-tests of the benchmark harness: percentiles, open-loop scheduling,
// the thread CPU clock, the stream generator, span self time and metric
// naming. Run with `python3 perfbench/run.py --selftest` (or the
// perfbench_tests binary).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "graph/datasets.h"
#include "loadgen.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "stream_gen.h"

namespace perfbench {
namespace {

int g_failures = 0;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void NearestRankPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const Percentile p50 = NearestRank(v, 50.0);
  EXPECT(p50.value == 50.0 && p50.rank == 50 && p50.beyond == 50 && p50.n == 100);
  const Percentile p99 = NearestRank(v, 99.0);
  EXPECT(p99.value == 99.0 && p99.rank == 99 && p99.beyond == 1);
  const Percentile p100 = NearestRank(v, 100.0);
  EXPECT(p100.value == 100.0 && p100.beyond == 0);
  // ceil(0.99 * 1000) = 990 exactly, despite 0.99 * 1000 rounding below.
  std::vector<double> k(1000);
  for (int i = 0; i < 1000; ++i) k[static_cast<size_t>(i)] = i + 1;
  const Percentile q = NearestRank(k, 99.0);
  EXPECT(q.rank == 990 && q.beyond == 10 && q.value == 990.0);
  // Small samples: rank is at least 1.
  EXPECT(NearestRank({7.0}, 1.0).value == 7.0);
  EXPECT(NearestRank({}, 50.0).n == 0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  // 999 samples leave only 9 beyond the p99 rank: too few for a p99.
  std::vector<double> short_run(k.begin(), k.begin() + 999);
  EXPECT(NearestRank(short_run, 99.0).beyond == 9);
  // The tail percentile is the highest one with 10 samples beyond it.
  const Percentile t100 = TailPercentile(v);
  EXPECT(t100.p == 90.0 && t100.rank == 90 && t100.beyond == 10);
  const Percentile t999 = TailPercentile(short_run);
  EXPECT(t999.p == 98.0 && t999.beyond >= 10);
  const Percentile t25 =
      TailPercentile(std::vector<double>(v.begin(), v.begin() + 25));
  EXPECT(t25.p == 60.0 && t25.rank == 15 && t25.beyond == 10);
  // 15 samples: only percentiles up to p33 leave 10 beyond, none above p50.
  const Percentile t15 = TailPercentile(std::vector<double>(15, 1.0));
  EXPECT(t15.rank == 0 && t15.n == 15);
  // Block p99s: 2,500 samples make two blocks of 1,250 (12 beyond each),
  // in sample order; 1,999 make one block.
  std::vector<double> ramp(2500);
  for (int i = 0; i < 2500; ++i) ramp[static_cast<size_t>(i)] = i;
  const std::vector<Percentile> halves = BlockP99s(ramp);
  EXPECT(halves.size() == 2 && halves[0].n == 1250 && halves[1].n == 1250);
  EXPECT(halves[0].beyond == 12 && halves[0].value == 1237.0);
  EXPECT(halves[1].value == 1250.0 + 1237.0);
  EXPECT(BlockP99s(std::vector<double>(1999, 1.0)).size() == 1);
  EXPECT(BlockP99s({}).size() == 1 && BlockP99s({})[0].n == 0);
}

// The thread CPU clock advances while the thread computes and stands still
// while it sleeps; the monotonic clock advances in both.
void ThreadCpuClock() {
  const int64_t cpu0 = ThreadCpuNs();
  const int64_t wall0 = NowNs();
  SleepMs(50);
  const int64_t cpu_sleep = ThreadCpuNs() - cpu0;
  EXPECT(NowNs() - wall0 >= 50000000);
  EXPECT(cpu_sleep < 10000000);
  volatile double x = 0.0;
  const int64_t cpu1 = ThreadCpuNs();
  const int64_t wall1 = NowNs();
  while (NowNs() - wall1 < 50000000) x = x + 1.0;
  const int64_t cpu_busy = ThreadCpuNs() - cpu1;
  EXPECT(cpu_busy > 0 && cpu_busy <= NowNs() - wall1);
  EXPECT(cpu_busy > cpu_sleep);
}

void OpenLoopDueTimesAndLateness() {
  const OpenLoopSchedule s(1000, 400.0);  // every 2.5 ms
  EXPECT(s.DueNs(0) == 1000);
  EXPECT(s.DueNs(1) == 1000 + 2500000);
  EXPECT(s.DueNs(400) == 1000 + 1000000000LL);
  // Due times are rounded per request, so they never drift from the rate.
  const OpenLoopSchedule odd(0, 3.0);  // 333333333.33 ns apart
  EXPECT(odd.DueNs(1) == 333333333 && odd.DueNs(2) == 666666667);
  EXPECT(odd.DueNs(3000) == 1000000000000LL);
  LatenessLog log;
  log.Record(100, 50);        // early: counts as 0
  log.Record(100, 100);       // punctual
  log.Record(100, 2100100);   // 2.1 ms late
  EXPECT(log.lateness_ms().size() == 3);
  EXPECT(log.lateness_ms()[0] == 0.0 && log.lateness_ms()[1] == 0.0);
  EXPECT(std::fabs(log.lateness_ms()[2] - 2.1) < 1e-9);
}

void StreamGeneratorIsDeterministicAndValid() {
  const umgad::MultiplexGraph graph = umgad::MakeTiny(3);
  StreamSpec spec;
  spec.count = 3000;
  spec.seed = 11;
  const std::vector<EdgeUpdate> a = GenerateStream(graph, spec);
  const std::vector<EdgeUpdate> b = GenerateStream(graph, spec);
  EXPECT(static_cast<int64_t>(a.size()) == spec.count);
  bool same = a.size() == b.size();
  int removals = 0;
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].src == b[i].src && a[i].dst == b[i].dst &&
           a[i].relation == b[i].relation && a[i].add == b[i].add;
    removals += a[i].add ? 0 : 1;
  }
  EXPECT(same);
  EXPECT(removals > 0 && removals < spec.count);
  EXPECT(FirstInvalidUpdate(graph, a) == -1);
  // The graph stays within kLiveToggles edges of its original size: past
  // the first kLiveToggles updates, every second update sets back the
  // pair toggled kLiveToggles fresh toggles earlier.
  int64_t net = 0;
  bool bounded = true;
  for (const EdgeUpdate& u : a) {
    net += u.add ? 1 : -1;
    bounded = bounded && std::llabs(net) <= kLiveToggles;
  }
  EXPECT(bounded);
  const size_t first_back = static_cast<size_t>(kLiveToggles) + 1;
  const EdgeUpdate& fresh = a[0];
  const EdgeUpdate& back = a[first_back];
  EXPECT(back.src == fresh.src && back.dst == fresh.dst &&
         back.relation == fresh.relation);
  spec.seed = 12;
  const std::vector<EdgeUpdate> c = GenerateStream(graph, spec);
  bool differs = false;
  for (size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].src != c[i].src || a[i].dst != c[i].dst;
  }
  EXPECT(differs);
  // The validator catches each kind of invalid update.
  EdgeUpdate self_loop = a[0];
  self_loop.dst = self_loop.src;
  std::vector<EdgeUpdate> loop_stream = {self_loop};
  EXPECT(FirstInvalidUpdate(graph, loop_stream) == 0);
  EdgeUpdate out_of_range = a[0];
  out_of_range.dst = graph.num_nodes();
  std::vector<EdgeUpdate> range_stream = {out_of_range};
  EXPECT(FirstInvalidUpdate(graph, range_stream) == 0);
  std::vector<EdgeUpdate> twice = {a[0], a[0]};
  EXPECT(FirstInvalidUpdate(graph, twice) == 1);
  // Round trip through the stream file.
  const std::string path = "perfbench_tests_stream.bin";
  EXPECT(SaveStream(a, path).ok());
  umgad::Result<std::vector<EdgeUpdate>> loaded = LoadStream(path);
  EXPECT(loaded.ok() && loaded.value().size() == a.size());
  if (loaded.ok()) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (loaded.value()[i].src != a[i].src || loaded.value()[i].add != a[i].add) {
        EXPECT(false);
        break;
      }
    }
  }
  std::remove(path.c_str());
}

void SpanSelfTime() {
  SpanRecorder rec;
  const int root = rec.Begin("root");
  const int child = rec.Begin("child");
  rec.End(child);
  const int explicit_child = rec.Begin("side", root, 7);
  rec.End(explicit_child);
  rec.End(root);
  const std::vector<Span> spans = rec.spans();
  EXPECT(spans.size() == 3);
  EXPECT(spans[1].parent == root && spans[2].parent == root);
  EXPECT(spans[2].request == 7 && spans[0].request == -1);
  const std::vector<double> self = rec.SelfSeconds();
  EXPECT(std::fabs(self[0] - (spans[0].seconds() - spans[1].seconds() -
                              spans[2].seconds())) < 1e-12);
  EXPECT(self[1] == spans[1].seconds());
  // Concurrent children (explicit parent, other threads) that overlap are
  // subtracted once: self = parent minus the union of the children.
  SpanRecorder fan;
  const int region = fan.Begin("region");
  std::thread a([&] { ScopedSpan s(&fan, "a", region); SleepMs(20); });
  std::thread b([&] { ScopedSpan s(&fan, "b", region); SleepMs(20); });
  a.join();
  b.join();
  fan.End(region);
  const std::vector<Span> fs = fan.spans();
  const double cover =
      static_cast<double>(std::max(fs[1].end_ns, fs[2].end_ns) -
                          std::min(fs[1].start_ns, fs[2].start_ns)) / 1e9;
  const double fan_self = fan.SelfSeconds()[0];
  EXPECT(fan_self >= 0.0);
  EXPECT(std::fabs(fan_self - (fs[0].seconds() - cover)) < 1e-9);
  // A null recorder makes ScopedSpan a no-op.
  { ScopedSpan none(nullptr, "x"); EXPECT(none.id() == -1); }
}

void MetricNames() {
  for (const char* ok : {"setup_s", "visible_p99_ms", "serve.router.queue_peak",
                         "core.forward.original_s.t1", "fit.coverage.tN",
                         "loadgen.late_p99_ms"}) {
    EXPECT(ValidMetricName(ok));
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "slash/x",
                          "quote\"", "semi;colon"}) {
    EXPECT(!ValidMetricName(bad));
  }
  EXPECT(!ValidMetricName(std::string(65, 'a')));
  // Every name the report emits is checked: a bad one fails the run.
  Report report;
  report.Add("good_name", 1.0, "s");
  EXPECT(report.correct());
  report.Add("bad name", 1.0, "s");
  EXPECT(!report.correct());
}

}  // namespace
}  // namespace perfbench

int main() {
  const std::pair<const char*, std::function<void()>> tests[] = {
      {"NearestRankPercentiles", perfbench::NearestRankPercentiles},
      {"OpenLoopDueTimesAndLateness", perfbench::OpenLoopDueTimesAndLateness},
      {"ThreadCpuClock", perfbench::ThreadCpuClock},
      {"StreamGeneratorIsDeterministicAndValid",
       perfbench::StreamGeneratorIsDeterministicAndValid},
      {"SpanSelfTime", perfbench::SpanSelfTime},
      {"MetricNames", perfbench::MetricNames},
  };
  for (const auto& t : tests) {
    const int before = perfbench::g_failures;
    t.second();
    std::printf("%s %s\n", perfbench::g_failures == before ? "PASS" : "FAIL",
                t.first);
  }
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
