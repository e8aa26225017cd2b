// Serving, the job this repo adds: fraud scores that follow a live edge
// stream.
//
// Untraced: the stream is applied one update at a time to an OnlineScorer
// from the calling thread, with a Query of random nodes after each (update
// and read latency); then a ShardRouter (S=2) that has served the same
// prefix is drained and checked against it. Traced: a flat OnlineScorer
// replay with a span per update, then the stream through the router on an
// open-loop schedule: the generator is the main thread, one reader thread
// polls Snapshot() and calls Query(), so the busy threads are generator +
// reader + S shard workers. It runs at the nominal rate without and with
// spans around every Submit and Query, then at a stress rate through a
// fresh router whose Stats() give the router metrics. Every drained
// router is checked against the flat scorer and RescoreFullNaive bit for
// bit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "eval/metrics.h"
#include "loadgen.h"
#include "stats.h"
#include "stream_gen.h"
#include "workloads.h"

namespace perfbench {

using umgad::serve::OnlineScorer;
using umgad::serve::ScoreSnapshot;
using umgad::serve::ShardRouter;

namespace {

constexpr int kQueryBatch = 256;
constexpr int kReplayBurst = 8192;
constexpr int64_t kWarmUpUpdates = 200;
// Timed updates before serve_auc is read; also the fewest timed updates a
// run makes, enough for a p99 with 10 samples beyond it.
constexpr int64_t kAucPrefix = 2000;
constexpr int64_t kMinTracedReplay = 1000;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Drives the router: the calling thread is the open-loop generator, and a
/// reader thread polls Snapshot() to timestamp when each stream position
/// becomes visible, calling Query() on random nodes in between.
class StreamDriver {
 public:
  StreamDriver(ShardRouter* router, const std::vector<EdgeUpdate>* stream,
               int num_nodes, uint64_t seed, SpanRecorder* spans)
      : router_(router),
        stream_(stream),
        num_nodes_(num_nodes),
        seed_(seed),
        spans_(spans),
        due_ns_(stream->size()),
        visible_ns_(stream->size()) {
    reader_ = std::thread([this] { ReaderLoop(); });
  }

  ~StreamDriver() { Stop(); }
  StreamDriver(const StreamDriver&) = delete;
  StreamDriver& operator=(const StreamDriver&) = delete;

  void Stop() {
    stop_.store(true);
    if (reader_.joinable()) reader_.join();
  }

  struct Phase {
    int64_t begin = 0;
    int64_t end = 0;  // one past the last submitted position
    bool drained = true;
    std::vector<double> visible_ms;  // per position, begin..end
    LatenessLog lateness;
  };

  /// Submits `count` updates from the next stream position at `rate`/s.
  /// `traced` wraps every Submit (and the reader's Query calls) in spans.
  Phase Run(double rate, int64_t count, bool traced) {
    Phase phase;
    phase.begin = next_;
    count = std::min<int64_t>(count, static_cast<int64_t>(stream_->size()) -
                                         next_);
    traced_.store(traced);
    const OpenLoopSchedule schedule(NowNs() + 1000000, rate);
    std::vector<EdgeUpdate> batch;
    for (int64_t k = 0; k < count;) {
      SleepUntilNs(schedule.DueNs(k));
      // Submit everything due by now in one call: a generator that woke
      // late catches up at once instead of trailing the schedule.
      const int64_t issued = NowNs();
      const int64_t first = next_;
      batch.clear();
      for (; k < count && schedule.DueNs(k) <= issued; ++k, ++next_) {
        const int64_t due = schedule.DueNs(k);
        due_ns_[static_cast<size_t>(next_)].store(due, std::memory_order_relaxed);
        phase.lateness.Record(due, issued);
        batch.push_back((*stream_)[static_cast<size_t>(next_)]);
      }
      {
        ScopedSpan span(traced ? spans_ : nullptr, "serve.submit",
                        SpanRecorder::kThreadParent, first);
        submitted_ += router_->Submit(batch);
      }
    }
    phase.end = next_;
    // Wait (bounded) for the reader to see every submitted position.
    const int64_t deadline = NowNs() + int64_t{60} * 1000000000;
    while (seen_.load(std::memory_order_acquire) < next_) {
      if (NowNs() > deadline) {
        phase.drained = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    traced_.store(false);
    for (int64_t pos = phase.begin; pos < phase.end && phase.drained; ++pos) {
      const size_t p = static_cast<size_t>(pos);
      phase.visible_ms.push_back(
          Ms(visible_ns_[p] - due_ns_[p].load(std::memory_order_relaxed)));
    }
    return phase;
  }

  int64_t queries() const { return queries_; }
  int64_t failed_queries() const { return failed_queries_; }
  int64_t submitted() const { return submitted_; }
  int64_t next() const { return next_; }

 private:
  void ReaderLoop() {
    umgad::Rng rng(seed_ ^ 0x5eedULL);
    std::vector<int> nodes(kQueryBatch);
    int64_t seen = 0;
    while (!stop_.load()) {
      const std::shared_ptr<const ScoreSnapshot> snap = router_->Snapshot();
      const int64_t now = NowNs();
      const int64_t covered =
          std::min<int64_t>(snap->min_applied,
                            static_cast<int64_t>(visible_ns_.size()));
      for (; seen < covered; ++seen) {
        visible_ns_[static_cast<size_t>(seen)] = now;
      }
      seen_.store(seen, std::memory_order_release);

      for (int& v : nodes) v = static_cast<int>(rng.UniformInt(num_nodes_));
      const bool traced = traced_.load();
      const bool ok = [&] {
        ScopedSpan span(traced ? spans_ : nullptr, "serve.query",
                        SpanRecorder::kThreadParent, queries_);
        return router_->Query(nodes).ok();
      }();
      ++queries_;
      if (!ok) ++failed_queries_;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  ShardRouter* router_;
  const std::vector<EdgeUpdate>* stream_;
  int num_nodes_;
  uint64_t seed_;
  SpanRecorder* spans_;
  std::vector<std::atomic<int64_t>> due_ns_;
  std::vector<int64_t> visible_ns_;  // written by the reader only
  std::atomic<int64_t> seen_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> traced_{false};
  int64_t next_ = 0;       // generator-owned
  int64_t submitted_ = 0;  // generator-owned
  // Reader-owned; read by the main thread only after Stop().
  int64_t queries_ = 0;
  int64_t failed_queries_ = 0;
  std::thread reader_;
};

/// Adds `prefix`_p50 and `prefix`_p99. The p99 is the median over blocks
/// of consecutive samples (BlockP99s) of each block's p99, so a host stall
/// inside one block cannot move it.
void AddLatency(const std::string& prefix, const std::vector<double>& samples,
                const std::string& unit, Report* report) {
  const Percentile q50 = NearestRank(samples, 50.0);
  std::vector<Percentile> blocks = BlockP99s(samples);
  std::sort(blocks.begin(), blocks.end(),
            [](const Percentile& a, const Percentile& b) {
              return a.value < b.value;
            });
  const Percentile& q99 = blocks[(blocks.size() - 1) / 2];
  const std::string p99_note = "median over " + std::to_string(blocks.size()) +
                               " blocks of the block p99, median block " +
                               Describe(q99);
  report->Add(prefix + "_p50_" + unit, q50.value, unit, Describe(q50));
  report->Add(prefix + "_p99_" + unit, q99.value, unit, p99_note);
  report->Check(q99.beyond >= 10,
                prefix + " p99 has fewer than 10 samples beyond it (" +
                    Describe(q99) + ")");
}

/// Brings the flat OnlineScorer from stream position `*flat_pos` to `to`
/// in coalesced bursts (bit-identical to one-at-a-time ApplyEdgeUpdate).
bool ReplayFlat(OnlineScorer* flat, const std::vector<EdgeUpdate>& stream,
                int64_t* flat_pos, int64_t to, Report* report) {
  for (; *flat_pos < to;) {
    const int64_t e = std::min<int64_t>(to, *flat_pos + kReplayBurst);
    const umgad::Status s = flat->ApplyEdgeUpdates(std::vector<EdgeUpdate>(
        stream.begin() + *flat_pos, stream.begin() + e));
    if (!s.ok()) {
      report->Fail("flat replay: " + s.ToString());
      return false;
    }
    *flat_pos = e;
  }
  return true;
}

/// Drains the router and checks it against a flat OnlineScorer that has
/// applied the same stream prefix, and against RescoreFullNaive. Returns
/// the drained snapshot.
std::shared_ptr<const ScoreSnapshot> CheckDrained(
    ShardRouter* router, OnlineScorer* flat, const std::vector<EdgeUpdate>& stream,
    int64_t* flat_pos, int64_t applied, Report* report) {
  router->Flush();
  std::shared_ptr<const ScoreSnapshot> snap = router->Snapshot();
  if (!ReplayFlat(flat, stream, flat_pos, applied, report)) return snap;
  const std::string at = " after " + std::to_string(applied) + " updates";
  report->Check(snap->stream_consistent,
                "drained snapshot not stream-consistent" + at);
  report->Check(snap->min_applied == applied,
                "drained snapshot covers " + std::to_string(snap->min_applied) +
                    " updates, expected " + std::to_string(applied));
  report->Check(SameBits(snap->scores, flat->scores()),
                "drained router scores differ from the flat OnlineScorer" + at);
  report->Check(SameBits(snap->scores, flat->RescoreFullNaive()),
                "drained router scores differ from RescoreFullNaive()" + at);
  return snap;
}

/// Rejected or dropped updates are failed operations.
void CountRejected(const ShardRouter& router, Report* report) {
  const umgad::serve::RouterStats stats = router.Stats();
  report->CountOps(0, stats.total_rejected + stats.total_dropped);
}

}  // namespace

void ServeUntraced(const ServeInputs& in, const WorkloadParams& p,
                   const RunOptions& options, double seconds, Report* report) {
  const std::vector<EdgeUpdate>& stream = *in.stream;
  umgad::Result<std::unique_ptr<OnlineScorer>> flat_or =
      OnlineScorer::Create(*in.model, *in.graph);
  report->CountOps(1, flat_or.ok() ? 0 : 1);
  if (!flat_or.ok()) {
    report->Fail("OnlineScorer::Create: " + flat_or.status().ToString());
    return;
  }
  OnlineScorer* flat = flat_or.value().get();
  // One update at a time from the calling thread, each followed by a
  // Query of kQueryBatch random nodes (the reads a deployment serves
  // between writes). An update is timed from ApplyEdgeUpdate's call to its
  // return, when the new scores are visible, in the thread's CPU time:
  // wall time would add the stalls of a vCPU the hypervisor has handed to
  // another guest, which set the p99 of a call this short on a shared
  // host (README.md, Steadiness). The call computes on the calling thread
  // without waiting for another one, so the two differ by such stalls and
  // by preemption. The first kWarmUpUpdates are not timed.
  umgad::Rng rng(options.seed ^ 0x5eedULL);
  std::vector<int> nodes(kQueryBatch);
  std::vector<double> update_cpu_us;
  double auc = -1.0;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t pos = 0;
  for (; pos < kWarmUpUpdates + kAucPrefix || NowNs() < end; ++pos) {
    if (pos == static_cast<int64_t>(stream.size())) {
      report->Fail("update stream exhausted");
      return;
    }
    const int64_t t0 = ThreadCpuNs();
    const umgad::Status s = flat->ApplyEdgeUpdate(stream[static_cast<size_t>(pos)]);
    const int64_t t1 = ThreadCpuNs();
    for (int& v : nodes) v = static_cast<int>(rng.UniformInt(in.graph->num_nodes()));
    const bool ok = flat->Query(nodes).ok();
    report->CountOps(2, (s.ok() ? 0 : 1) + (ok ? 0 : 1));
    if (!s.ok() || !ok) {
      report->Fail("ApplyEdgeUpdate or Query failed at update " +
                   std::to_string(pos) + ": " + s.ToString());
      return;
    }
    if (pos >= kWarmUpUpdates) {
      update_cpu_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    // A fixed stream prefix, so serve_auc does not depend on timing.
    if (pos + 1 == kWarmUpUpdates + kAucPrefix) {
      auc = umgad::RocAuc(flat->scores(), in.graph->labels());
    }
  }
  AddLatency("update_cpu", update_cpu_us, "us", report);
  report->Add("serve_auc", auc, "AUC",
              "scores after " + std::to_string(kWarmUpUpdates + kAucPrefix) +
                  " updates");
  // The sharded deployment must serve the same scores: send the router
  // the same prefix in one Submit, drain it and compare.
  report->CountOps(pos, 0);
  report->Check(in.router->Submit(std::vector<EdgeUpdate>(
                    stream.begin(), stream.begin() + pos)) == pos,
                "router dropped submitted updates");
  int64_t flat_pos = pos;
  (void)CheckDrained(in.router, flat, stream, &flat_pos, pos, report);
  CountRejected(*in.router, report);
}

void ServeTraced(const ServeInputs& in, const WorkloadParams& p,
                 const RunOptions& options, double seconds,
                 SpanRecorder* spans, Report* report) {
  const std::vector<EdgeUpdate>& stream = *in.stream;
  const int n = in.graph->num_nodes();
  umgad::Result<std::unique_ptr<OnlineScorer>> flat_or =
      OnlineScorer::Create(*in.model, *in.graph);
  report->CountOps(1, flat_or.ok() ? 0 : 1);
  if (!flat_or.ok()) {
    report->Fail("OnlineScorer::Create: " + flat_or.status().ToString());
    return;
  }
  OnlineScorer* flat = flat_or.value().get();
  // A quarter of the time each: the stream replayed through the flat
  // scorer with a span per update, then through the router at the nominal
  // rate without and with spans, then at the stress rate with spans.
  int64_t replay = 0;
  {
    std::vector<double> combine_us;
    std::vector<double> query_us;
    umgad::Rng rng(options.seed ^ 0x5eedULL);
    std::vector<int> nodes(kQueryBatch);
    double dirty = 0.0;
    double rescored = 0.0;
    const umgad::serve::ServeStats before = flat->stats();
    const float epsilon = in.model->config().epsilon;
    const int64_t replay_end =
        NowNs() + static_cast<int64_t>(seconds / 4 * 1e9);
    for (int64_t pos = 0; pos < kMinTracedReplay || NowNs() < replay_end;
         ++pos, ++replay) {
      umgad::Status s;
      {
        ScopedSpan span(spans, "serve.apply", SpanRecorder::kThreadParent, pos);
        s = flat->ApplyEdgeUpdate(stream[static_cast<size_t>(pos)]);
      }
      report->CountOps(1, s.ok() ? 0 : 1);
      if (!s.ok()) {
        report->Fail("flat ApplyEdgeUpdate: " + s.ToString());
        return;
      }
      dirty += static_cast<double>(flat->stats().last_dirty_rows);
      rescored += static_cast<double>(flat->stats().last_rescored_nodes);
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(spans, "serve.combine", SpanRecorder::kThreadParent,
                        pos);
        (void)umgad::serve::CombineComponents(
            flat->Components(), n, in.graph->num_relations(), epsilon);
      }
      combine_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      for (int& v : nodes) v = static_cast<int>(rng.UniformInt(n));
      const int64_t t1 = NowNs();
      bool ok;
      {
        ScopedSpan span(spans, "serve.query", SpanRecorder::kThreadParent, pos);
        ok = flat->Query(nodes).ok();
      }
      query_us.push_back(static_cast<double>(NowNs() - t1) / 1e3);
      report->CountOps(1, ok ? 0 : 1);
      report->Check(ok, "flat Query failed");
    }
    report->Add("serve.combine_us", Median(combine_us), "us",
                "median of " + std::to_string(combine_us.size()));
    const Percentile q50 = NearestRank(query_us, 50.0);
    const Percentile q99 = NearestRank(query_us, 99.0);
    report->Add("serve.query_p50_us", q50.value, "us", Describe(q50));
    report->Add("serve.query_p99_us", q99.value, "us", Describe(q99));
    report->Add("serve.dirty_rows_per_update", dirty / replay, "count");
    report->Add("serve.rescored_nodes_per_update", rescored / replay, "count");
    const umgad::serve::ServeStats after = flat->stats();
    const int64_t hits = after.cache_hits - before.cache_hits;
    const int64_t lookups = hits + after.cache_misses - before.cache_misses;
    report->Add("serve.cache_hit_rate",
                lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
                "share");
  }

  // The nominal phase without and with spans (trace overhead, generator
  // lateness), then the stress phase through a fresh router, so its
  // Stats() cover only the stress phase.
  const int64_t quarter = static_cast<int64_t>(p.nominal_rate * seconds / 4);
  StreamDriver driver(in.router, &stream, n, options.seed, spans);
  const StreamDriver::Phase plain = driver.Run(p.nominal_rate, quarter, false);
  const StreamDriver::Phase traced = driver.Run(p.nominal_rate, quarter, true);
  driver.Stop();
  report->Check(plain.drained && traced.drained, "nominal phases did not drain");
  // The router's own update-to-visible latency: from an update's due time
  // to the first Snapshot() whose min_applied covers it. It crosses the
  // generator, S shard workers and the reader, so on a shared host it
  // follows the neighbours' load (README.md, Steadiness).
  const Percentile v50 = NearestRank(plain.visible_ms, 50.0);
  const Percentile v99 = NearestRank(plain.visible_ms, 99.0);
  report->Add("serve.router.visible_p50_ms", v50.value, "ms", Describe(v50));
  report->Add("serve.router.visible_p99_ms", v99.value, "ms", Describe(v99));
  report->Add("serve.trace_overhead",
              Median(traced.visible_ms) / Median(plain.visible_ms) - 1.0,
              "share", "visible p50 with spans vs without, nominal rate");
  std::vector<double> late = plain.lateness.lateness_ms();
  late.insert(late.end(), traced.lateness.lateness_ms().begin(),
              traced.lateness.lateness_ms().end());
  const Percentile late99 = NearestRank(late, 99.0);
  report->Add("loadgen.late_p99_ms", late99.value, "ms", Describe(late99));

  umgad::Result<std::unique_ptr<ShardRouter>> stress_or =
      ShardRouter::Create(*in.model, *in.graph, MakeRouterOptions());
  report->CountOps(1, stress_or.ok() ? 0 : 1);
  if (!stress_or.ok()) {
    report->Fail("ShardRouter::Create: " + stress_or.status().ToString());
    return;
  }
  ShardRouter* stress_router = stress_or.value().get();
  StreamDriver stress(stress_router, &stream, n, options.seed, spans);
  const StreamDriver::Phase burst = stress.Run(
      p.stress_rate, static_cast<int64_t>(p.stress_rate * seconds / 4), true);
  stress.Stop();
  report->Check(burst.drained, "stress phase did not drain");

  const umgad::serve::RouterStats stats = stress_router->Stats();
  const std::string at = "stress phase at " +
                         std::to_string(static_cast<int>(p.stress_rate)) +
                         " edges/s";
  report->Add("serve.router.update_p99_us", stats.update_latency.p99_us, "us",
              "log2-bucket histogram, n=" +
                  std::to_string(stats.update_latency.count) + ", " + at);
  report->Add("serve.router.publish_p99_us", stats.publish_latency.p99_us, "us",
              "log2-bucket histogram, n=" +
                  std::to_string(stats.publish_latency.count) + ", " + at);
  int64_t queue_peak = 0;
  for (const auto& s : stats.shards) queue_peak = std::max(queue_peak, s.queue_peak);
  report->Add("serve.router.queue_peak", static_cast<double>(queue_peak),
              "count", at);
  const double publishes = static_cast<double>(stats.epoch) - 1.0;
  report->Add("serve.router.updates_per_publish",
              publishes > 0
                  ? MakeRouterOptions().num_shards *
                        static_cast<double>(stress.next()) / publishes
                  : 0.0,
              "count",
              "updates applied per shard burst (each burst publishes), " + at);

  // Bring both routers and the flat scorer (the traced replay above
  // applied [0, replay)) to one stream position, then compare.
  const int64_t end_pos = std::max({replay, driver.next(), stress.next()});
  int64_t flat_pos = replay;
  for (const StreamDriver* d : {&driver, &stress}) {
    report->CountOps(d->submitted() + d->queries(), d->failed_queries());
    report->Check(d->submitted() == d->next(),
                  "router dropped submitted updates");
  }
  for (std::pair<ShardRouter*, int64_t> r :
       {std::make_pair(in.router, driver.next()),
        std::make_pair(stress_router, stress.next())}) {
    if (r.second < end_pos) {
      r.first->Submit(std::vector<EdgeUpdate>(stream.begin() + r.second,
                                              stream.begin() + end_pos));
    }
    CheckDrained(r.first, flat, stream, &flat_pos, end_pos, report);
    CountRejected(*r.first, report);
  }
}

}  // namespace perfbench
