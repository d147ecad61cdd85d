// Microbenchmark for batch archiving: ArchiveRepository::SaveAll on the
// host pool (swept with ThreadPool::Global().Resize()) vs. N sequential
// Save() calls. Serialization dominates the cost, so the batch path should
// scale with cores until the filesystem saturates.
//
//   build/bench/micro_archive_batch [--benchmark_filter=...]

#include <filesystem>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/thread_axis.h"
#include "common/thread_pool.h"
#include "granula/archive/archiver.h"
#include "granula/archive/repository.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"

namespace granula::core {
namespace {

// One synthetic job archive: a root with `supersteps` phases of `workers`
// worker steps each — big enough that ToJsonString is measurable.
PerformanceArchive MakeArchive(int supersteps, int workers) {
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

  PerformanceModel model("bench");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Master", "Superstep", "Job", "Root");
  (void)model.AddOperation("Worker", "Compute", "Master", "Superstep");
  auto archive = Archiver().Build(model, logger.records(), {},
                                  {{"platform", "Bench"},
                                   {"algorithm", "BFS"}});
  return std::move(archive).value();
}

std::string BenchDir() {
  return (std::filesystem::temp_directory_path() / "granula_bench_repo")
      .string();
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

constexpr int kJobs = 16;

const std::vector<PerformanceArchive>& BenchArchives() {
  static const std::vector<PerformanceArchive>* archives = [] {
    auto* v = new std::vector<PerformanceArchive>();
    for (int i = 0; i < kJobs; ++i) v->push_back(MakeArchive(20, 16));
    return v;
  }();
  return *archives;
}

void BM_SaveSequential(benchmark::State& state) {
  const auto& archives = BenchArchives();
  for (auto _ : state) {
    state.PauseTiming();
    ResetDir(BenchDir());
    ArchiveRepository repo(BenchDir());
    state.ResumeTiming();
    for (const PerformanceArchive& archive : archives) {
      auto name = repo.Save(archive);
      if (!name.ok()) state.SkipWithError(name.status().ToString().c_str());
    }
  }
  state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_SaveSequential)->Unit(benchmark::kMillisecond);

void BM_SaveAllThreaded(benchmark::State& state) {
  const auto& archives = BenchArchives();
  std::vector<const PerformanceArchive*> pointers;
  for (const auto& a : archives) pointers.push_back(&a);
  const int original = ThreadPool::Global().num_threads();
  ThreadPool::Global().Resize(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    ResetDir(BenchDir());
    ArchiveRepository repo(BenchDir());
    state.ResumeTiming();
    auto names = repo.SaveAll(pointers);
    if (!names.ok()) state.SkipWithError(names.status().ToString().c_str());
  }
  ThreadPool::Global().Resize(original);
  state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_SaveAllThreaded)
    ->Apply(ThreadAxis)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace granula::core

BENCHMARK_MAIN();
