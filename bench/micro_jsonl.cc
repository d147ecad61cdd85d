// Microbenchmark for the JSONL serialization fast paths (DESIGN.md
// "Serialization fast paths"): records/s for emitting and parsing platform
// log lines through the old DOM route (ToJson().Dump / Json::Parse +
// FromJson) versus the zero-copy codec (AppendJsonl / ParseJsonl), plus
// parallel ReadLogRecords throughput against the host-thread axis.
//
//   build/bench/micro_jsonl [--benchmark_filter=...]
//
// The acceptance point for this path: single-thread ParseJsonl ≥ 3x the
// DOM parse on a large canonical log (compare BM_ParseJsonl with
// BM_ParseDom at the same record count in BENCH_jsonl.json).

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/thread_axis.h"
#include "common/thread_pool.h"
#include "granula/monitor/job_logger.h"

namespace granula::core {
namespace {

// A synthetic job log shaped like a real superstep trace: start/end pairs
// with actor annotations and one info record per worker step — the same
// mix of record kinds and string lengths the platforms emit.
std::vector<LogRecord> MakeLog(size_t records_wanted) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "job-0", "Root");
  size_t superstep = 0;
  while (logger.records().size() + 2 < records_wanted) {
    OpId step =
        logger.StartOperation(root, "Master", "master", "Superstep",
                              "Superstep-" + std::to_string(superstep++));
    for (int w = 0; w < 16 && logger.records().size() + 3 < records_wanted;
         ++w) {
      OpId work = logger.StartOperation(
          step, "Worker", "Worker-" + std::to_string(w), "Compute");
      logger.AddInfo(work, "MessagesSent", Json(int64_t{100000 + w}));
      now += SimTime::Micros(750);
      logger.EndOperation(work);
    }
    logger.EndOperation(step);
  }
  logger.EndOperation(root);
  return logger.TakeRecords();
}

std::vector<std::string> MakeLines(const std::vector<LogRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const LogRecord& r : records) {
    std::string line;
    r.AppendJsonl(line);
    lines.push_back(std::move(line));
  }
  return lines;
}

// ---------------------------------------------------------------- emit ----

void BM_EmitDom(benchmark::State& state) {
  std::vector<LogRecord> records = MakeLog(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::string out;
    for (const LogRecord& r : records) {
      out += r.ToJson().Dump(0);
      out += '\n';
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_EmitDom)->Arg(10000)->Arg(100000);

void BM_EmitJsonl(benchmark::State& state) {
  std::vector<LogRecord> records = MakeLog(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::string out;
    for (const LogRecord& r : records) {
      r.AppendJsonl(out);
      out += '\n';
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_EmitJsonl)->Arg(10000)->Arg(100000);

// --------------------------------------------------------------- parse ----

void BM_ParseDom(benchmark::State& state) {
  std::vector<std::string> lines =
      MakeLines(MakeLog(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    for (const std::string& line : lines) {
      auto parsed = Json::Parse(line);
      auto record = LogRecord::FromJson(*parsed);
      benchmark::DoNotOptimize(record.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lines.size()));
}
BENCHMARK(BM_ParseDom)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ParseJsonl(benchmark::State& state) {
  std::vector<std::string> lines =
      MakeLines(MakeLog(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    for (const std::string& line : lines) {
      auto record = LogRecord::ParseJsonl(line);
      benchmark::DoNotOptimize(record.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lines.size()));
}
BENCHMARK(BM_ParseJsonl)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ parallel ingest ----

// End-to-end batch load (file read + line split + parse + concatenate)
// against the host-thread axis (ThreadAxis: up to the core count); arg =
// thread count over a 1M-record log.
void BM_ReadLogRecordsThreads(benchmark::State& state) {
  static const std::string* path = [] {
    auto* p = new std::string(
        (std::filesystem::temp_directory_path() / "granula_bench_jsonl.log")
            .string());
    std::vector<LogRecord> records = MakeLog(1000000);
    if (!WriteLogRecords(*p, records).ok()) std::abort();
    return p;
  }();
  const int original = ThreadPool::Global().num_threads();
  ThreadPool::Global().Resize(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto records = ReadLogRecords(*path);
    if (!records.ok()) std::abort();
    benchmark::DoNotOptimize(records->size());
    state.counters["records"] = static_cast<double>(records->size());
  }
  ThreadPool::Global().Resize(original);
  state.SetItemsProcessed(state.iterations() * 1000000);
}
BENCHMARK(BM_ReadLogRecordsThreads)
    ->Apply(ThreadAxis)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace granula::core

BENCHMARK_MAIN();
