// Engine microbench: the batched zero-copy ingest pipeline vs. the classic
// per-report path, plus shard scaling.
//
// Four aggregator-side ingest paths are measured per protocol:
//
//   * perreport — one virtual Absorb() call per pre-encoded in-memory
//     Report (the pre-batching in-memory baseline);
//   * parse     — DeserializeReport() + Absorb() per wire record: the
//     pre-PR path for reports arriving as bytes, which materializes a
//     Report (and for InpRR its heap-allocated `ones` vector) per record;
//   * batch     — AbsorbBatch() over slices of the same Report stream
//     (the base-class loop over Absorb());
//   * wire      — AbsorbWireBatch() over the same wire batch frames
//     (zero-copy: records parsed in place, no Report materialization; for
//     InpRR the bitmaps are carry-save added into byte counters by the
//     widest kernel the CPU supports, printed in the banner).
//
// The acceptance comparison for the batched pipeline is wire vs parse —
// both start from identical wire bytes; parse is what a pre-PR collector
// had to do with them. perreport-vs-batch isolates the in-memory gain.
//
// The engine section feeds the wire frames through an engine::Collector
// collection at 1/2/4 shards, and a mux section routes an interleaved
// multi-collection frame stream through Collector::IngestFrames.
// Shard scaling requires cores: expect flat numbers on one hardware thread.
// The checkpoint section measures CheckpointTo / RestoreFrom end to end
// (snapshot + serialize + CRC32C + atomic write, and the reverse).
//
// With --json out.json the measured reports/sec land in a flat JSON object
// (keys like "InpRR.wire_rps", "InpRR.engine1_wire_rps") — the bench's
// regression record (BENCH_ingest.json).
//
// The InpRR kernel section runs the same InpRR frames through every
// bitmap kernel built in (protocols/inp_rr_kernels.h), skipping those this
// CPU lacks, and checks each against the scalar reference.
//
// The encode path (rows shipped raw, shard workers run the client encoder)
// is unchanged from PR 1 and measured in the last section.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/collector.h"
#include "protocols/factory.h"
#include "protocols/inp_rr_kernels.h"
#include "protocols/wire.h"

namespace {

using ldpm::CreateProtocol;
using ldpm::ProtocolConfig;
using ldpm::ProtocolKind;
using ldpm::Report;
using ldpm::Rng;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string Rate(double reports, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g/s", reports / seconds);
  return buf;
}

std::string Speedup(double base_seconds, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", base_seconds / seconds);
  return buf;
}

/// Absorbs every record of the InpRR wire frames through one bitmap kernel
/// the way AbsorbWireBatch does (groups of 15, folded every 17 groups and
/// per frame) and returns the per-cell counts.
std::vector<double> KernelCounts(const ldpm::inp_rr::Kernel& kernel, int d,
                                 const std::vector<std::vector<uint8_t>>& frames) {
  std::vector<double> counts(uint64_t{1} << d, 0.0);
  std::vector<uint8_t> bytes(counts.size(), 0);
  const uint8_t* group[ldpm::inp_rr::kMaxGroup];
  for (const std::vector<uint8_t>& frame : frames) {
    ldpm::WireBatchReader reader(frame.data(), frame.size());
    const uint8_t* record = nullptr;
    size_t record_size = 0;
    size_t m = 0;
    size_t groups = 0;
    while (reader.Next(record, record_size)) {
      group[m++] = record;
      if (m < ldpm::inp_rr::kMaxGroup) continue;
      ldpm::inp_rr::AddGroup(kernel, group, m, d, bytes.data());
      m = 0;
      if (++groups % 17 == 0) kernel.fold(bytes.data(), counts.data(), bytes.size());
    }
    LDPM_CHECK(reader.status().ok());
    if (m > 0) ldpm::inp_rr::AddGroup(kernel, group, m, d, bytes.data());
    kernel.fold(bytes.data(), counts.data(), bytes.size());
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  const ldpm::bench::BenchArgs args = ldpm::bench::Parse(argc, argv);
  ldpm::bench::Banner("micro_engine",
                      "batched/wire/sharded ingest vs per-report absorb",
                      args);
  std::printf("hardware threads: %u\n",
              std::thread::hardware_concurrency());
  std::printf("InpRR wire kernel: %s\n\n",
              std::string(ldpm::inp_rr::SelectKernel().name).c_str());
  ldpm::bench::JsonWriter json;
  json.Add("bench", std::string("micro_engine"));
  json.Add("d", 12.0);
  json.Add("k", 2.0);
  json.Add("epsilon", 1.0);

  const int d = 12;
  const size_t batch = 8192;
  const std::vector<int> shard_counts = {1, 2, 4};

  // InpRR reports are 2^d bits, so its stream is kept smaller.
  const size_t dense_reports =
      args.smoke ? 3'000 : (args.full ? 200'000 : 40'000);
  const size_t sparse_reports =
      args.smoke ? 30'000 : (args.full ? 2'000'000 : 400'000);
  const size_t num_rows = args.smoke ? 20'000 : (args.full ? 1'000'000 : 200'000);

  std::vector<std::vector<uint8_t>> inp_rr_frames;  // for the kernel section
  const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kInpRR, ProtocolKind::kInpHT, ProtocolKind::kMargPS,
      ProtocolKind::kInpEM};

  ProtocolConfig config;
  config.d = d;
  config.k = 2;
  config.epsilon = 1.0;

  std::printf("== absorb paths: per-report/parse vs batch/wire (single "
              "aggregator) and engine wire ingest ==\n");
  ldpm::bench::Row({"protocol", "perreport", "parse", "batch", "wire",
                    "eng 1shard", "eng 2shard", "eng 4shard", "wire/parse"});
  for (ProtocolKind kind : kinds) {
    const std::string name(ldpm::ProtocolKindName(kind));
    std::vector<std::string> cells{name};
    const size_t num_reports =
        kind == ProtocolKind::kInpRR ? dense_reports : sparse_reports;

    // Pre-encode one shared report stream and its wire batch frames.
    auto encoder = CreateProtocol(kind, config);
    LDPM_CHECK(encoder.ok());
    Rng rng(args.seed);
    std::vector<Report> reports;
    reports.reserve(num_reports);
    const uint64_t mask = (uint64_t{1} << d) - 1;
    for (size_t i = 0; i < num_reports; ++i) {
      reports.push_back((*encoder)->Encode(rng() & mask, rng));
    }
    std::vector<std::vector<uint8_t>> frames;
    for (size_t begin = 0; begin < reports.size(); begin += batch) {
      const size_t end = std::min(begin + batch, reports.size());
      auto frame = ldpm::SerializeReportBatch(
          kind, config,
          std::vector<Report>(reports.begin() + begin, reports.begin() + end));
      LDPM_CHECK(frame.ok());
      frames.push_back(*std::move(frame));
    }

    // Per-report baseline: one virtual Absorb per report.
    auto perreport = CreateProtocol(kind, config);
    LDPM_CHECK(perreport.ok());
    auto start = std::chrono::steady_clock::now();
    for (const Report& r : reports) LDPM_CHECK((*perreport)->Absorb(r).ok());
    const double perreport_seconds = Seconds(start);
    cells.push_back(Rate(static_cast<double>(num_reports), perreport_seconds));
    json.Add(name + ".perreport_rps",
             static_cast<double>(num_reports) / perreport_seconds);

    // Pre-PR wire ingest: parse every record into a Report, then Absorb.
    auto parse = CreateProtocol(kind, config);
    LDPM_CHECK(parse.ok());
    start = std::chrono::steady_clock::now();
    for (const std::vector<uint8_t>& frame : frames) {
      ldpm::WireBatchReader frame_reader(frame.data(), frame.size());
      const uint8_t* record = nullptr;
      size_t record_size = 0;
      while (frame_reader.Next(record, record_size)) {
        auto report = ldpm::DeserializeReport(kind, config, record, record_size);
        LDPM_CHECK(report.ok());
        LDPM_CHECK((*parse)->Absorb(*report).ok());
      }
      LDPM_CHECK(frame_reader.status().ok());
    }
    const double parse_seconds = Seconds(start);
    cells.push_back(Rate(static_cast<double>(num_reports), parse_seconds));
    json.Add(name + ".parse_rps",
             static_cast<double>(num_reports) / parse_seconds);

    // AbsorbBatch over the same in-memory reports.
    auto batched = CreateProtocol(kind, config);
    LDPM_CHECK(batched.ok());
    start = std::chrono::steady_clock::now();
    for (size_t begin = 0; begin < reports.size(); begin += batch) {
      const size_t end = std::min(begin + batch, reports.size());
      LDPM_CHECK(
          (*batched)->AbsorbBatch(reports.data() + begin, end - begin).ok());
    }
    const double batch_seconds = Seconds(start);
    cells.push_back(Rate(static_cast<double>(num_reports), batch_seconds));
    json.Add(name + ".batch_rps",
             static_cast<double>(num_reports) / batch_seconds);

    // Zero-copy wire path over pre-serialized frames.
    auto wire = CreateProtocol(kind, config);
    LDPM_CHECK(wire.ok());
    start = std::chrono::steady_clock::now();
    for (const std::vector<uint8_t>& frame : frames) {
      LDPM_CHECK((*wire)->AbsorbWireBatch(frame.data(), frame.size()).ok());
    }
    const double wire_seconds = Seconds(start);
    cells.push_back(Rate(static_cast<double>(num_reports), wire_seconds));
    json.Add(name + ".wire_rps",
             static_cast<double>(num_reports) / wire_seconds);

    if (kind == ProtocolKind::kInpRR) inp_rr_frames = frames;

    // All four paths must agree exactly.
    LDPM_CHECK((*parse)->reports_absorbed() == num_reports);
    LDPM_CHECK((*batched)->reports_absorbed() == num_reports);
    LDPM_CHECK((*wire)->reports_absorbed() == num_reports);
    LDPM_CHECK((*perreport)->total_report_bits() ==
               (*wire)->total_report_bits());

    // Engine wire ingest at 1/2/4 shards, hosted as one collection of a
    // Collector.
    for (int shards : shard_counts) {
      ldpm::engine::CollectorOptions options;
      options.engine_defaults.num_shards = shards;
      options.engine_defaults.seed = args.seed;
      auto collector = ldpm::engine::Collector::Create(options);
      LDPM_CHECK(collector.ok());
      auto handle = (*collector)->Register(name, kind, config);
      LDPM_CHECK(handle.ok());
      start = std::chrono::steady_clock::now();
      for (const std::vector<uint8_t>& frame : frames) {
        LDPM_CHECK(handle->IngestWireBatch(frame).ok());
      }
      LDPM_CHECK(handle->Flush().ok());
      const double engine_seconds = Seconds(start);
      cells.push_back(Rate(static_cast<double>(num_reports), engine_seconds));
      json.Add(name + ".engine" + std::to_string(shards) + "_wire_rps",
               static_cast<double>(num_reports) / engine_seconds);
      auto absorbed = handle->ReportsAbsorbed();
      LDPM_CHECK(absorbed.ok());
      LDPM_CHECK(*absorbed == num_reports);
    }
    cells.push_back(Speedup(parse_seconds, wire_seconds));
    json.Add(name + ".wire_speedup_vs_parse", parse_seconds / wire_seconds);
    json.Add(name + ".wire_speedup_vs_absorb", perreport_seconds / wire_seconds);
    json.Add(name + ".batch_speedup", perreport_seconds / batch_seconds);
    ldpm::bench::Row(cells);
  }

  // Every InpRR bitmap kernel over the same frames; each must reproduce
  // the scalar reference's counts exactly.
  std::printf("\n== InpRR bitmap kernels (%zu reports, d=%d) ==\n",
              dense_reports, d);
  ldpm::bench::Row({"kernel", "rate", "vs scalar"});
  const std::vector<double> reference =
      KernelCounts(ldpm::inp_rr::ScalarKernel(), d, inp_rr_frames);
  double scalar_seconds = 0.0;
  for (auto it = ldpm::inp_rr::Kernels().rbegin();
       it != ldpm::inp_rr::Kernels().rend(); ++it) {
    const std::string kernel_name(it->name);
    if (!it->supported()) {
      ldpm::bench::Row({kernel_name, "not on this CPU", "-"});
      continue;
    }
    const auto start = std::chrono::steady_clock::now();
    const std::vector<double> counts = KernelCounts(*it, d, inp_rr_frames);
    const double seconds = Seconds(start);
    LDPM_CHECK(counts == reference);
    if (scalar_seconds == 0.0) scalar_seconds = seconds;
    ldpm::bench::Row({kernel_name,
                      Rate(static_cast<double>(dense_reports), seconds),
                      Speedup(scalar_seconds, seconds)});
    json.Add("InpRR.kernel_" + kernel_name + "_rps",
             static_cast<double>(dense_reports) / seconds);
  }
  json.Add("InpRR.wire_kernel", std::string(ldpm::inp_rr::SelectKernel().name));

  // Checkpoint/restore throughput: CheckpointTo is flush + per-shard
  // snapshot + serialize + CRC32C + atomic write-rename; RestoreFrom is
  // read + validate + stage + re-shard merge. Reported rates are file
  // bytes over wall time, so they fold the checksum and (de)serialization
  // costs into one number per direction.
  std::printf("\n== durable checkpoints: write / restore (4-shard engine) ==\n");
  ldpm::bench::Row({"protocol", "file KB", "write", "restore"}, 22);
  const std::string ckpt_path =
      (std::filesystem::temp_directory_path() / "ldpm_micro_engine.ckpt")
          .string();
  const size_t ckpt_iters = args.smoke ? 4 : 16;
  for (ProtocolKind kind : kinds) {
    const std::string name(ldpm::ProtocolKindName(kind));
    const size_t num_reports =
        (kind == ProtocolKind::kInpRR ? dense_reports : sparse_reports) / 4;
    auto encoder = CreateProtocol(kind, config);
    LDPM_CHECK(encoder.ok());
    Rng rng(args.seed + 3);
    std::vector<Report> reports;
    reports.reserve(num_reports);
    const uint64_t mask = (uint64_t{1} << d) - 1;
    for (size_t i = 0; i < num_reports; ++i) {
      reports.push_back((*encoder)->Encode(rng() & mask, rng));
    }
    ldpm::engine::CollectorOptions options;
    options.engine_defaults.num_shards = 4;
    options.engine_defaults.seed = args.seed;
    auto collector = ldpm::engine::Collector::Create(options);
    LDPM_CHECK(collector.ok());
    auto handle = (*collector)->Register(name, kind, config);
    LDPM_CHECK(handle.ok());
    LDPM_CHECK(handle->IngestBatch(std::move(reports)).ok());
    LDPM_CHECK(handle->Flush().ok());

    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < ckpt_iters; ++i) {
      LDPM_CHECK((*collector)->CheckpointTo(ckpt_path).ok());
    }
    const double write_seconds = Seconds(start) / ckpt_iters;
    const double file_bytes =
        static_cast<double>(std::filesystem::file_size(ckpt_path));

    auto restored = ldpm::engine::Collector::Create(options);
    LDPM_CHECK(restored.ok());
    auto restored_handle = (*restored)->Register(name, kind, config);
    LDPM_CHECK(restored_handle.ok());
    start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < ckpt_iters; ++i) {
      LDPM_CHECK((*restored)->RestoreFrom(ckpt_path).ok());
    }
    const double restore_seconds = Seconds(start) / ckpt_iters;
    auto restored_count = restored_handle->ReportsAbsorbed();
    LDPM_CHECK(restored_count.ok());
    LDPM_CHECK(*restored_count == num_reports);

    char file_kb[32];
    std::snprintf(file_kb, sizeof(file_kb), "%.1f", file_bytes / 1024.0);
    const double mb = file_bytes / (1024.0 * 1024.0);
    char write_cell[48], restore_cell[48];
    std::snprintf(write_cell, sizeof(write_cell), "%.0f us (%.0f MB/s)",
                  write_seconds * 1e6, mb / write_seconds);
    std::snprintf(restore_cell, sizeof(restore_cell), "%.0f us (%.0f MB/s)",
                  restore_seconds * 1e6, mb / restore_seconds);
    ldpm::bench::Row({name, file_kb, write_cell, restore_cell}, 22);
    json.Add(name + ".ckpt_bytes", file_bytes);
    json.Add(name + ".ckpt_write_mbps", mb / write_seconds);
    json.Add(name + ".ckpt_restore_mbps", mb / restore_seconds);
  }
  std::filesystem::remove(ckpt_path);

  // Multiplexed ingest: one interleaved collection-frame stream carrying
  // three protocol streams, routed by Collector::IngestFrames into each
  // collection's zero-copy wire path (the one-socket-many-streams shape).
  std::printf("\n== multiplexed collection-frame ingest (3 collections, "
              "2 shards each) ==\n");
  {
    const std::vector<ProtocolKind> mux_kinds = {
        ProtocolKind::kInpHT, ProtocolKind::kMargPS, ldpm::ProtocolKind::kInpES};
    const size_t mux_reports = sparse_reports / 2;
    ldpm::engine::CollectorOptions options;
    options.engine_defaults.num_shards = 2;
    options.engine_defaults.seed = args.seed;
    auto collector = ldpm::engine::Collector::Create(options);
    LDPM_CHECK(collector.ok());
    std::vector<ldpm::engine::CollectionHandle> handles;
    // Per-collection frame queues, interleaved round-robin into one stream.
    std::vector<std::vector<uint8_t>> mux_frames;
    Rng rng(args.seed + 7);
    const uint64_t mask = (uint64_t{1} << d) - 1;
    for (ProtocolKind kind : mux_kinds) {
      const std::string id(ldpm::ProtocolKindName(kind));
      auto handle = (*collector)->Register(id, kind, config);
      LDPM_CHECK(handle.ok());
      handles.push_back(*std::move(handle));
      auto encoder = CreateProtocol(kind, config);
      LDPM_CHECK(encoder.ok());
      std::vector<Report> reports;
      reports.reserve(mux_reports);
      for (size_t i = 0; i < mux_reports; ++i) {
        reports.push_back((*encoder)->Encode(rng() & mask, rng));
      }
      for (size_t begin = 0; begin < reports.size(); begin += batch) {
        const size_t end = std::min(begin + batch, reports.size());
        auto frame = ldpm::SerializeReportBatch(
            kind, config,
            std::vector<Report>(reports.begin() + begin,
                                reports.begin() + end));
        LDPM_CHECK(frame.ok());
        std::vector<uint8_t> framed;
        LDPM_CHECK(ldpm::AppendCollectionFrame(id, *frame, framed).ok());
        mux_frames.push_back(std::move(framed));
      }
    }
    // Round-robin interleave across collections into one byte stream.
    std::vector<uint8_t> stream;
    const size_t frames_per_kind = mux_frames.size() / mux_kinds.size();
    for (size_t i = 0; i < frames_per_kind; ++i) {
      for (size_t kind_index = 0; kind_index < mux_kinds.size(); ++kind_index) {
        const auto& framed = mux_frames[kind_index * frames_per_kind + i];
        stream.insert(stream.end(), framed.begin(), framed.end());
      }
    }
    auto start = std::chrono::steady_clock::now();
    LDPM_CHECK((*collector)->IngestFrames(stream).ok());
    LDPM_CHECK((*collector)->Flush().ok());
    const double mux_seconds = Seconds(start);
    const double total_reports =
        static_cast<double>(mux_reports * mux_kinds.size());
    for (auto& handle : handles) {
      auto absorbed = handle.ReportsAbsorbed();
      LDPM_CHECK(absorbed.ok());
      LDPM_CHECK(*absorbed == mux_reports);
    }
    ldpm::bench::Row({"mux stream", Rate(total_reports, mux_seconds)}, 22);
    json.Add("mux3.frame_rps", total_reports / mux_seconds);
    json.Add("mux3.stream_bytes", static_cast<double>(stream.size()));
  }

  std::printf("\n== encode path: %zu rows, per-shard Rng streams ==\n",
              num_rows);
  ldpm::bench::Row({"protocol", "direct", "1 shard", "2 shards", "4 shards",
                    "4-shard speedup"});
  for (ProtocolKind kind : {ProtocolKind::kInpHT, ProtocolKind::kMargPS}) {
    const std::string name(ldpm::ProtocolKindName(kind));
    std::vector<std::string> cells{name};
    Rng row_rng(args.seed + 1);
    std::vector<uint64_t> rows(num_rows);
    const uint64_t mask = (uint64_t{1} << d) - 1;
    for (uint64_t& row : rows) row = row_rng() & mask;

    auto direct = CreateProtocol(kind, config);
    LDPM_CHECK(direct.ok());
    Rng direct_rng(args.seed + 2);
    auto start = std::chrono::steady_clock::now();
    for (uint64_t row : rows) {
      LDPM_CHECK((*direct)->Absorb((*direct)->Encode(row, direct_rng)).ok());
    }
    const double direct_seconds = Seconds(start);
    cells.push_back(Rate(static_cast<double>(num_rows), direct_seconds));

    double one_shard_seconds = 0.0;
    double last_seconds = 0.0;
    for (int shards : shard_counts) {
      ldpm::engine::CollectorOptions options;
      options.engine_defaults.num_shards = shards;
      options.engine_defaults.seed = args.seed;
      auto collector = ldpm::engine::Collector::Create(options);
      LDPM_CHECK(collector.ok());
      auto handle = (*collector)->Register(name, kind, config);
      LDPM_CHECK(handle.ok());
      start = std::chrono::steady_clock::now();
      LDPM_CHECK(handle->IngestPopulation(rows, /*fast_path=*/false).ok());
      LDPM_CHECK(handle->Flush().ok());
      last_seconds = Seconds(start);
      if (shards == 1) one_shard_seconds = last_seconds;
      cells.push_back(Rate(static_cast<double>(num_rows), last_seconds));
      json.Add(name + ".encode" + std::to_string(shards) + "_rps",
               static_cast<double>(num_rows) / last_seconds);

      auto absorbed = handle->ReportsAbsorbed();
      LDPM_CHECK(absorbed.ok());
      LDPM_CHECK(*absorbed == num_rows);
    }
    cells.push_back(Speedup(one_shard_seconds, last_seconds));
    ldpm::bench::Row(cells);
  }

  if (!args.json_path.empty()) {
    if (json.WriteFile(args.json_path)) {
      std::printf("\nwrote %s\n", args.json_path.c_str());
    } else {
      return 1;
    }
  }
  return 0;
}
