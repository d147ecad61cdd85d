// Micro-benchmarks for the Granula core: instrumentation overhead (the
// cost a platform pays per logged operation), lint and archiver
// throughput, archive serialization, and query latency. These quantify
// the "efficiency of fine-grained evaluation" concern (paper Issue 4):
// monitoring must be cheap enough to leave on.

#include <benchmark/benchmark.h>

#include "granula/archive/archiver.h"
#include "granula/archive/lint.h"
#include "granula/models/models.h"
#include "granula/monitor/job_logger.h"

namespace granula::core {
namespace {

// A synthetic log shaped like a real Giraph run: one job, 5 phases, and
// `supersteps` supersteps of `workers` workers with 4 stage ops each.
std::vector<LogRecord> SyntheticLog(int supersteps, int workers) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  auto tick = [&now] { now += SimTime::Millis(1); };

  OpId root = logger.StartOperation(kNoOp, ops::kJobActor, "job-0",
                                    ops::kJobMission, "GiraphJob");
  for (const char* phase : {ops::kStartup, ops::kLoadGraph}) {
    OpId op = logger.StartOperation(root, ops::kJobActor, "job-0", phase,
                                    phase);
    tick();
    logger.EndOperation(op);
  }
  OpId process = logger.StartOperation(root, ops::kJobActor, "job-0",
                                       ops::kProcessGraph,
                                       ops::kProcessGraph);
  for (int s = 0; s < supersteps; ++s) {
    OpId step = logger.StartOperation(process, "Master", "Master-0",
                                      "Superstep",
                                      "Superstep-" + std::to_string(s));
    for (int w = 0; w < workers; ++w) {
      OpId local = logger.StartOperation(
          step, "Worker", "Worker-" + std::to_string(w), "LocalSuperstep",
          "LocalSuperstep-" + std::to_string(w));
      for (const char* stage : {"PreStep", "Compute", "Message",
                                "PostStep"}) {
        OpId stage_op = logger.StartOperation(
            local, "Worker", "Worker-" + std::to_string(w), stage, stage);
        logger.AddInfo(stage_op, "VerticesComputed", Json(int64_t{1000}));
        tick();
        logger.EndOperation(stage_op);
      }
      logger.EndOperation(local);
    }
    logger.EndOperation(step);
  }
  logger.EndOperation(process);
  for (const char* phase : {ops::kOffloadGraph, ops::kCleanup}) {
    OpId op = logger.StartOperation(root, ops::kJobActor, "job-0", phase,
                                    phase);
    tick();
    logger.EndOperation(op);
  }
  logger.EndOperation(root);
  return logger.TakeRecords();
}

void BM_LoggerStartEndOperation(benchmark::State& state) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "j", "Root");
  for (auto _ : state) {
    OpId op = logger.StartOperation(root, "Worker", "Worker-1", "Compute");
    logger.EndOperation(op);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoggerStartEndOperation);

void BM_LoggerAddInfo(benchmark::State& state) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId op = logger.StartOperation(kNoOp, "Job", "j", "Root");
  for (auto _ : state) {
    logger.AddInfo(op, "VerticesComputed", Json(int64_t{12345}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoggerAddInfo);

// The lint pass alone: the first stage of every Build.
void BM_LintLog(benchmark::State& state) {
  std::vector<LogRecord> records =
      SyntheticLog(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    LintReport report = LintLog(records);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_LintLog)->Arg(4)->Arg(16)->Arg(64);

void BM_ArchiverBuild(benchmark::State& state) {
  std::vector<LogRecord> records =
      SyntheticLog(static_cast<int>(state.range(0)), 8);
  PerformanceModel model = MakeGiraphModel();
  for (auto _ : state) {
    auto archive = Archiver().Build(model, records, {}, {});
    benchmark::DoNotOptimize(archive);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_ArchiverBuild)->Arg(4)->Arg(16)->Arg(64);

void BM_ArchiverBuildDomainOnly(benchmark::State& state) {
  std::vector<LogRecord> records =
      SyntheticLog(static_cast<int>(state.range(0)), 8);
  PerformanceModel model = MakeGiraphModel();
  Archiver::Options options;
  options.max_level = 2;
  for (auto _ : state) {
    auto archive = Archiver(options).Build(model, records, {}, {});
    benchmark::DoNotOptimize(archive);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_ArchiverBuildDomainOnly)->Arg(16)->Arg(64);

void BM_ArchiveToJson(benchmark::State& state) {
  auto archive = Archiver().Build(MakeGiraphModel(), SyntheticLog(16, 8),
                                  {}, {});
  for (auto _ : state) {
    std::string json = archive->ToJsonString(0);
    benchmark::DoNotOptimize(json);
  }
}
BENCHMARK(BM_ArchiveToJson);

void BM_ArchiveFromJson(benchmark::State& state) {
  auto archive = Archiver().Build(MakeGiraphModel(), SyntheticLog(16, 8),
                                  {}, {});
  std::string json = archive->ToJsonString(0);
  for (auto _ : state) {
    auto restored = PerformanceArchive::FromJsonString(json);
    benchmark::DoNotOptimize(restored);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(json.size()));
}
BENCHMARK(BM_ArchiveFromJson);

void BM_ArchiveFindByPath(benchmark::State& state) {
  auto archive = Archiver().Build(MakeGiraphModel(), SyntheticLog(32, 8),
                                  {}, {});
  for (auto _ : state) {
    const ArchivedOperation* op =
        archive->FindByPath("GiraphJob/ProcessGraph/Superstep-31");
    benchmark::DoNotOptimize(op);
  }
}
BENCHMARK(BM_ArchiveFindByPath);

void BM_ArchiveFindOperations(benchmark::State& state) {
  auto archive = Archiver().Build(MakeGiraphModel(), SyntheticLog(32, 8),
                                  {}, {});
  for (auto _ : state) {
    auto ops = archive->FindOperations("Worker", "Compute");
    benchmark::DoNotOptimize(ops);
  }
}
BENCHMARK(BM_ArchiveFindOperations);

void BM_ModelConstruction(benchmark::State& state) {
  for (auto _ : state) {
    PerformanceModel model = MakeGiraphModel();
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_ModelConstruction);

}  // namespace
}  // namespace granula::core

BENCHMARK_MAIN();
