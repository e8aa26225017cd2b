#include "report.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "tensor/dispatch/cpu_features.h"
#include "tensor/dispatch/registry.h"

namespace perfbench {

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  in >> cpu;
  if (cpu != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int field = 0; field < 8; ++field) {
    int64_t v = 0;
    if (!(in >> v)) return CpuTicks();
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const int64_t total = after.total - before.total;
  if (before.total == 0 || after.total == 0 || total <= 0) return -1.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

void FillHostRecord(RunRecord* record) {
  record->cpu_model = CpuModel();
  record->cpu_features = umgad::dispatch::CpuFeatureListString(
      umgad::dispatch::EffectiveCpuFeatures());
  record->nproc = static_cast<int>(std::thread::hardware_concurrency());
  record->kernels.clear();
  for (const auto& sel : umgad::dispatch::KernelRegistry::Global()->Selections()) {
    record->kernels.emplace_back(umgad::dispatch::KernelOpName(sel.op),
                                 sel.variant);
  }
}

std::string RecordJson(const RunRecord& r) {
  std::ostringstream o;
  o << "{\"workload\": " << Quote(r.workload) << ", \"seed\": " << r.seed
    << ", \"trace\": " << r.trace << ", \"git_sha\": " << Quote(r.git_sha)
    << ", \"source_digest\": " << Quote(r.source_digest)
    << ", \"cpu_model\": " << Quote(r.cpu_model)
    << ", \"cpu_features\": " << Quote(r.cpu_features)
    << ", \"nproc\": " << r.nproc << ", \"lanes\": " << r.lanes
    << ", \"shards\": " << r.shards
    << ", \"steal_share\": " << Number(r.steal_share) << ", \"kernels\": {";
  for (size_t i = 0; i < r.kernels.size(); ++i) {
    o << (i ? ", " : "") << Quote(r.kernels[i].first) << ": "
      << Quote(r.kernels[i].second);
  }
  o << "}}";
  return o.str();
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  if (!ValidMetricName(name)) Fail("invalid metric name '" + name + "'");
  if (!std::isfinite(value)) Fail("non-finite value for " + name);
  metrics_.push_back({name, value, unit, note});
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

std::string Report::ResultJson(const RunRecord& record) const {
  std::ostringstream o;
  o << "{\"record\": " << RecordJson(record) << ",\n \"correct\": "
    << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
    << ", \"failed\": " << failed_ << ", \"error_rate\": "
    << Number(attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0)
    << ",\n \"gate_failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    o << (i ? ", " : "") << Quote(failures_[i]);
  }
  o << "],\n \"notes\": [";
  for (size_t i = 0; i < notes_.size(); ++i) {
    o << (i ? ", " : "") << Quote(notes_[i]);
  }
  o << "],\n \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    o << (i ? ",\n  " : "\n  ") << Quote(m.name) << ": {\"value\": "
      << Number(m.value) << ", \"unit\": " << Quote(m.unit)
      << ", \"note\": " << Quote(m.note) << "}";
  }
  o << "}}\n";
  return o.str();
}

std::string Report::Render(const RunRecord& record) const {
  std::ostringstream o;
  o << "# run-record " << RecordJson(record) << "\n";
  for (const Metric& m : metrics_) {
    o << "# " << m.name << " = " << Number(m.value) << " " << m.unit;
    if (!m.note.empty()) o << "  [" << m.note << "]";
    o << "\n";
  }
  o << "# error_rate = "
    << Number(attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0)
    << " share  [" << failed_ << " failed of " << attempted_
    << " attempted]\n";
  for (const std::string& n : notes_) o << "# note: " << n << "\n";
  for (const std::string& f : failures_) o << "# GATE FAILED: " << f << "\n";
  o << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    o << (i ? ", " : "") << Quote(m.name) << ": {\"value\": " << Number(m.value)
      << ", \"unit\": " << Quote(m.unit) << "}";
  }
  o << "}}\n";
  return o.str();
}

}  // namespace perfbench
