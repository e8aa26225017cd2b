// perfbench: the repo benchmark's timed program.
//
//   perfbench gen --workload W --seed N --inputs DIR
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --inputs DIR [--spans FILE] [--result FILE]
//                 [--git-sha SHA] [--source-digest HEX]
//
// `gen` builds the workload's inputs from the seed and writes them under
// DIR. `run` loads them, measures for S seconds and prints the metrics;
// its last stdout line is the one-line JSON result. Exit code 0 only when
// every correctness gate passed. run.py drives both.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::cerr << "usage: perfbench gen|run --workload W --seed N --inputs DIR "
               "[--seconds S] [--trace 0|1] [--spans FILE] [--result FILE] "
               "[--git-sha SHA] [--source-digest HEX]\n";
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  RunOptions options;
  std::string spans_path;
  std::string result_path;
  RunRecord record;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--inputs") {
      options.inputs = value;
    } else if (key == "--spans") {
      spans_path = value;
    } else if (key == "--result") {
      result_path = value;
    } else if (key == "--git-sha") {
      record.git_sha = value;
    } else if (key == "--source-digest") {
      record.source_digest = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.inputs.empty() ||
      options.seconds <= 0.0) {
    return Usage();
  }
  const WorkloadParams* params = FindWorkload(options.workload);
  if (params == nullptr) {
    std::cerr << "unknown workload " << options.workload << "\n";
    return 2;
  }
  umgad::SetLogLevel(umgad::LogLevel::kWarning);
  // Timed work runs at one pool lane. On a shared host, work spread over
  // every vCPU waits at each join for whichever vCPU the hypervisor has
  // taken away, so its wall time follows the neighbours' load rather than
  // the program. Traced runs also train at nproc lanes (the .tN stages).
  options.nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  options.lanes = 1;
  umgad::SetNumThreads(options.lanes);

  if (mode == "gen") {
    return Generate(*params, options);
  }
  if (mode != "run") return Usage();

  record.workload = options.workload;
  record.seed = options.seed;
  record.trace = options.trace ? 1 : 0;
  record.lanes = options.lanes;
  FillHostRecord(&record);
  SpanRecorder recorder;
  SpanRecorder* spans = options.trace ? &recorder : nullptr;
  Report report;
  const CpuTicks ticks_before = ReadCpuTicks();
  Run(*params, options, spans, &record, &report);
  record.steal_share = StealShare(ticks_before, ReadCpuTicks());
  if (spans != nullptr && !spans_path.empty() &&
      !recorder.WriteJson(spans_path)) {
    report.Fail("could not write spans to " + spans_path);
  }
  if (!result_path.empty()) {
    std::FILE* f = std::fopen(result_path.c_str(), "w");
    const std::string doc = report.ResultJson(record);
    if (f == nullptr || std::fwrite(doc.data(), 1, doc.size(), f) != doc.size()) {
      report.Fail("could not write result to " + result_path);
    }
    if (f != nullptr) std::fclose(f);
  }
  std::cout << report.Render(record) << std::flush;
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
