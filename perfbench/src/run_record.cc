#include "run_record.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

bool ReadCpuTicks(CpuTicks* ticks) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  uint64_t field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return false;
  for (uint64_t& f : field) {
    if (!(in >> f)) return false;
  }
  ticks->steal = field[7];
  ticks->total = 0;
  for (uint64_t f : field) ticks->total += f;
  return true;
}

std::string RunRecordJson(const RunRecord& record) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string out = "{\"cpu_model\":" + Quoted(CpuModel());
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"compiler\":" + Quoted(compiler);
  out += ",\"build_type\":" + Quoted(PERFBENCH_BUILD_TYPE);
  out += ",\"commit\":" + Quoted(commit != nullptr ? commit : "unknown");
  out += ",\"workload\":" + Quoted(record.workload);
  out += ",\"seed\":" + std::to_string(record.seed);
  out += std::string(",\"trace\":") + (record.trace ? "1" : "0");
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%.3f", record.seconds);
  char steal[32];
  std::snprintf(steal, sizeof(steal), "%.4f", record.steal_frac);
  out += ",\"seconds\":" + std::string(seconds);
  out += ",\"steal_frac\":" + std::string(steal) + ",\"samples\":{";
  bool first = true;
  for (const MetricSamples& m : record.metrics) {
    if (!first) out += ",";
    first = false;
    out += Quoted(m.name) + ":{\"n\":" + std::to_string(m.samples);
    if (m.tail_percentile > 0.0) {
      char pct[32];
      std::snprintf(pct, sizeof(pct), "%.2f", m.tail_percentile);
      out += ",\"tail_percentile\":" + std::string(pct);
    }
    out += "}";
  }
  return out + "}}";
}

}  // namespace perfbench
