// Microbenchmark for the live-monitoring hot paths: StreamingArchiver
// ingest throughput (records/s) vs. the batch Archiver over the same log,
// the cost of a mid-stream Snapshot() as the open-operation table grows,
// and feed-follow throughput (records/s a TcpRecordSource pulls from a
// LogFeedService behind an HttpServer over loopback). Ingest must keep up with a platform
// writing records at job speed; Snapshot() runs once per watch poll, so
// it prices the live view.
//
//   build/bench/micro_streaming_ingest [--benchmark_filter=...]

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "granula/archive/archiver.h"
#include "granula/live/record_source.h"
#include "granula/live/streaming_archiver.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"
#include "granula/serve/feed.h"
#include "granula/serve/server.h"

namespace granula::core {
namespace {

using serve::TcpRecordSource;

PerformanceModel BenchModel() {
  PerformanceModel model("bench");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Master", "Superstep", "Job", "Root");
  (void)model.AddOperation("Worker", "Compute", "Master", "Superstep");
  return model;
}

// A synthetic job log shaped like a real superstep trace: `supersteps`
// phases of `workers` worker steps, each with one info record.
std::vector<LogRecord> MakeLog(int supersteps, int workers) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "job-0", "Root");
  for (int s = 0; s < supersteps; ++s) {
    OpId step = logger.StartOperation(root, "Master", "master", "Superstep",
                                      "Superstep-" + std::to_string(s));
    for (int w = 0; w < workers; ++w) {
      OpId work = logger.StartOperation(step, "Worker",
                                        "Worker-" + std::to_string(w),
                                        "Compute");
      logger.AddInfo(work, "MessagesSent", Json(int64_t{1000 + w}));
      now += SimTime::Millis(1);
      logger.EndOperation(work);
    }
    logger.EndOperation(step);
  }
  logger.EndOperation(root);
  return logger.TakeRecords();
}

void BM_StreamingIngest(benchmark::State& state) {
  PerformanceModel model = BenchModel();
  std::vector<LogRecord> records =
      MakeLog(static_cast<int>(state.range(0)), 16);
  for (auto _ : state) {
    StreamingArchiver archiver(model);
    archiver.AppendAll(records);
    archiver.Finish();
    benchmark::DoNotOptimize(archiver.stats().finalized_operations);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
  state.counters["records"] = static_cast<double>(records.size());
}
BENCHMARK(BM_StreamingIngest)->Arg(8)->Arg(64)->Arg(256);

void BM_BatchArchive(benchmark::State& state) {
  PerformanceModel model = BenchModel();
  std::vector<LogRecord> records =
      MakeLog(static_cast<int>(state.range(0)), 16);
  for (auto _ : state) {
    auto archive = Archiver().Build(model, records, {}, {});
    benchmark::DoNotOptimize(archive.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
  state.counters["records"] = static_cast<double>(records.size());
}
BENCHMARK(BM_BatchArchive)->Arg(8)->Arg(64)->Arg(256);

// Snapshot cost mid-stream: everything before the last superstep is
// finalized (and evicted), the last superstep's workers are open. This is
// the per-poll price of the live view at a steady state.
void BM_MidStreamSnapshot(benchmark::State& state) {
  PerformanceModel model = BenchModel();
  std::vector<LogRecord> records =
      MakeLog(static_cast<int>(state.range(0)), 16);
  StreamingArchiver archiver(model);
  // Stop short of the final EndOps so the tail of the tree stays open.
  size_t prefix = records.size() - 18;
  for (size_t i = 0; i < prefix; ++i) archiver.Append(records[i]);
  for (auto _ : state) {
    auto snapshot = archiver.Snapshot();
    benchmark::DoNotOptimize(snapshot.ok());
  }
  state.counters["open_ops"] =
      static_cast<double>(archiver.stats().open_operations);
  state.counters["finalized"] =
      static_cast<double>(archiver.stats().finalized_operations);
}
BENCHMARK(BM_MidStreamSnapshot)->Arg(8)->Arg(64)->Arg(256);

// Feed follow: each iteration a fresh TcpRecordSource drains the whole
// log from one in-process feed (HttpServer + LogFeedService, with
// `granula feed`'s settings) over loopback — the HTTP request, the
// chunked stream, and line decoding, on the follower's side. Real time,
// since the feed's connection thread does half the work. Iterations are
// fixed so runs compare across builds.
void BM_FeedFollow(benchmark::State& state) {
  std::vector<LogRecord> records =
      MakeLog(static_cast<int>(state.range(0)), 16);
  const std::string log =
      (std::filesystem::temp_directory_path() / "granula_bench_feed.jsonl")
          .string();
  if (!WriteLogRecords(log, records).ok()) {
    state.SkipWithError("cannot write the feed log");
    return;
  }
  serve::LogFeedService log_feed(log);
  serve::ServerOptions options;
  options.threads = 32;
  options.timeout_ms = 2000;
  serve::HttpServer feed(&log_feed, options);
  if (!feed.Start().ok()) {
    state.SkipWithError("cannot start the feed");
    return;
  }
  for (auto _ : state) {
    TcpRecordSource::Options follow;
    follow.port = feed.port();
    TcpRecordSource source(follow);
    size_t got = 0;
    while (got < records.size() && !source.lost()) {
      got += source.PollOnce().records.size();
    }
    benchmark::DoNotOptimize(got);
  }
  feed.Stop();
  std::remove(log.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
  state.counters["records"] = static_cast<double>(records.size());
}
BENCHMARK(BM_FeedFollow)
    ->Arg(64)
    ->Arg(256)
    ->Iterations(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace granula::core

BENCHMARK_MAIN();
