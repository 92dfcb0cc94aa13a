// pipeline_bench: one run of one workload of the ldpm pipeline benchmark.
//
//   pipeline_bench --workload <ingest_mux|ingest_bitmap|serve_mixed>
//                  --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans recorded (alternating traced and untraced slices) and prints
// the per-layer metrics and self-time table instead. The last stdout line
// is the result object {"correct", "attempted", "failed", "metrics"}; the
// line before it is the run record (machine, toolchain, commit, seed and
// per-metric sample counts). Exits 1 when a correctness gate fails.

#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "run_record.h"
#include "trace.h"
#include "workloads.h"

namespace {

/// End-to-end result metrics of every workload. The CPU cost and the
/// single-threaded cache rebuild behind fresh_read_ms hold steady on a
/// shared host where wall-clock pipeline timings follow the hypervisor's
/// CPU steal (see README.md).
const std::vector<std::string> kEndToEnd = {"setup_s", "cpu_ns_per_report",
                                            "tv_error", "ok_frac"};

/// Wall-clock pipeline timings: result metrics of serve_mixed, printed as
/// report lines by the ingest workloads.
const std::vector<std::string> kWallClock = {
    "ingest_rps",   "upload_p50_ms",    "upload_tail_ms",   "query_p50_us",
    "query_tail_us", "freshness_p50_ms", "freshness_tail_ms"};

const std::vector<std::string> kPerLayer = {
    "protocols.encode_rps",
    "protocols.absorb_rps",
    "protocols.roofline_rps",
    "protocols.absorb_roofline_ratio",
    "engine.ingest_frames_rps",
    "engine.flush_ms",
    "engine.absorb_batch_p50_us",
    "engine.budget_wait_p99_us",
    "engine.queue_depth_hw",
    "engine.checkpoint_ms",
    "engine.checkpoint_bytes",
    "engine.restore_ms",
    "net.connect_us",
    "net.send_blocked_frac",
    "net.finish_us",
    "net.route_p50_us",
    "net.route_p99_us",
    "net.bytes_routed",
    "net.error_replies",
    "net.http_connect_us",
    "net.http_ttfb_us",
    "query.refresh_ms",
    "query.refreshes",
    "query.hit_ratio",
    "query.stale_served",
    "query.marginal_ns",
    "analysis.consistency_ms",
    "analysis.model_ms",
    "obs.scrape_ms",
    "obs.scrape_bytes",
    "trace.protocols.self_ms",
    "trace.engine.self_ms",
    "trace.net.self_ms",
    "trace.query.self_ms",
    "trace.analysis.self_ms",
    "trace.obs.self_ms",
    "trace.unattributed_ms",
    "trace.overhead_frac",
    "gen.late_tail_ms",
};

int Usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload "
               "<ingest_mux|ingest_bitmap|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

bool MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      const std::string prefix = path.substr(0, i);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.out_dir = ".bench_build/perfbench-out";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
      have_workload = perfbench::IsWorkload(value);
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 600;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage();
  }
  if (!MakeDirs(options.out_dir)) {
    std::fprintf(stderr, "cannot create %s\n", options.out_dir.c_str());
    return 1;
  }

  perfbench::CpuTicks before, after;
  const bool have_ticks = perfbench::ReadCpuTicks(&before);
  perfbench::Outcome outcome = perfbench::RunWorkload(options);
  std::vector<std::string> wanted = options.trace ? kPerLayer : kEndToEnd;
  std::vector<std::string> report_only;
  if (!options.trace && options.workload == "serve_mixed") {
    wanted.insert(wanted.end(), kWallClock.begin(), kWallClock.end());
  } else if (!options.trace) {
    wanted.insert(wanted.begin() + 2, "fresh_read_ms");
    report_only = kWallClock;
  }

  perfbench::RunRecord record;
  record.workload = options.workload;
  record.seed = options.seed;
  record.trace = options.trace;
  record.seconds = options.seconds;
  if (have_ticks && perfbench::ReadCpuTicks(&after) &&
      after.total > before.total) {
    record.steal_frac = static_cast<double>(after.steal - before.steal) /
                        static_cast<double>(after.total - before.total);
  }
  auto find = [&](const std::string& name) -> const perfbench::Metric* {
    for (const perfbench::Metric& m : outcome.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  auto text_line = [](const perfbench::Metric& m) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-34s %16.6g %-6s n=%llu",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    std::string text = line;
    if (m.tail_percentile > 0) {
      char tail[48];
      std::snprintf(tail, sizeof(tail), " (p%.2f)", m.tail_percentile);
      text += tail;
    }
    return text;
  };
  std::string metrics_json;
  for (const std::string& name : wanted) {
    const perfbench::Metric* found = find(name);
    if (found == nullptr || !std::isfinite(found->value)) {
      outcome.Fail("metric " + name + " missing or not finite");
      continue;
    }
    std::printf("%s\n", text_line(*found).c_str());
    record.metrics.push_back(
        {name, found->samples, found->tail_percentile});
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", found->value);
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + name + "\": {\"value\": " + value +
                    ", \"unit\": \"" + found->unit + "\"}";
  }
  for (const std::string& name : report_only) {
    const perfbench::Metric* found = find(name);
    if (found != nullptr) {
      std::printf("%s  [report only]\n", text_line(*found).c_str());
    }
  }
  for (const std::string& line : outcome.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "FAIL: %s\n", error.c_str());
  }

  const std::string stem = options.out_dir + "/" + options.workload + "-" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  const std::string record_json = perfbench::RunRecordJson(record);
  {
    std::ofstream out(stem + ".record.json");
    out << record_json << "\n";
  }
  if (options.trace) {
    (void)perfbench::tracer::WriteCsv(perfbench::tracer::Collect(),
                                      stem + ".spans.csv");
  }
  std::printf("run_record %s\n", record_json.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics_json.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
