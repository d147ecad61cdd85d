// Microbenchmark for the binary archive (GBA) and the indexed repository
// (DESIGN.md "Binary archives"): full decode vs the JSON parse, one-subtree
// fetch through the offset table vs loading the whole archive, shallow
// (level-cut) loads, index-served List(), and the repository's LRU subtree
// cache cold vs warm.
//
//   build/bench/micro_archive_query [--benchmark_filter=...]
//
// Acceptance point for this path (read the ratio off BENCH_archive.json):
// BM_GbaDecodeFull >= 5x BM_JsonParseFull at the same archive size.

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/mapped_file.h"
#include "granula/archive/archiver.h"
#include "granula/archive/gba.h"
#include "granula/archive/repository.h"
#include "granula/archive/view.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"

namespace granula::core {
namespace {

// One synthetic job archive shaped like a real superstep trace: a root
// with `supersteps` phases of `workers` worker steps each, one info per
// worker — big enough that the parse/decode asymmetry is measurable.
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

constexpr int kSupersteps = 50;
constexpr int kWorkers = 64;
constexpr const char* kSubtreePath = "Root/Superstep-30";

struct Fixture {
  PerformanceArchive archive;
  std::string json;
  std::string gba;
  std::string dir;       // repository holding the archive as "bench-gba"
  std::string gba_path;  // <dir>/bench-gba.gba
};

const Fixture& Bench() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    f->archive = MakeArchive(kSupersteps, kWorkers);
    f->json = f->archive.ToJsonString();
    f->gba = EncodeGba(f->archive);
    f->dir = (std::filesystem::temp_directory_path() /
              "granula_bench_archive_query")
                 .string();
    std::error_code ec;
    std::filesystem::remove_all(f->dir, ec);
    ArchiveRepository repo(f->dir);
    if (!repo.Save(f->archive, "bench-gba").ok()) std::abort();
    f->gba_path = f->dir + "/bench-gba.gba";
    // Warm List() once so the index is persisted and the BM_RepoList
    // benchmark measures index serving, not the first rebuild.
    if (!repo.List().ok()) std::abort();
    return f;
  }();
  return *fixture;
}

// ---------------------------------------------------------- serialize ----

void BM_JsonSerialize(benchmark::State& state) {
  const Fixture& f = Bench();
  for (auto _ : state) {
    std::string out = f.archive.ToJsonString();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(f.json.size()));
}
BENCHMARK(BM_JsonSerialize)->Unit(benchmark::kMillisecond);

void BM_GbaEncode(benchmark::State& state) {
  const Fixture& f = Bench();
  for (auto _ : state) {
    std::string out = EncodeGba(f.archive);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(f.gba.size()));
}
BENCHMARK(BM_GbaEncode)->Unit(benchmark::kMillisecond);

// -------------------------------------------------------- full decode ----

void BM_JsonParseFull(benchmark::State& state) {
  const Fixture& f = Bench();
  for (auto _ : state) {
    auto archive = PerformanceArchive::FromJsonString(f.json);
    if (!archive.ok()) std::abort();
    benchmark::DoNotOptimize(archive->OperationCount());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(f.json.size()));
}
BENCHMARK(BM_JsonParseFull)->Unit(benchmark::kMillisecond);

void BM_GbaDecodeFull(benchmark::State& state) {
  const Fixture& f = Bench();
  for (auto _ : state) {
    auto view = ArchiveView::Open(f.gba);
    if (!view.ok()) std::abort();
    auto archive = view->Decode();
    if (!archive.ok()) std::abort();
    benchmark::DoNotOptimize(archive->OperationCount());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(f.gba.size()));
}
BENCHMARK(BM_GbaDecodeFull)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------- subtree / levels ----

// The offset-table way: map and validate the packed body, skip straight
// to the subtree's row range, decode only those rows.
void BM_GbaSubtreeFetch(benchmark::State& state) {
  const Fixture& f = Bench();
  for (auto _ : state) {
    auto file = MappedFile::Open(f.gba_path);
    if (!file.ok()) std::abort();
    auto view = ArchiveView::Open(file->data());
    if (!view.ok()) std::abort();
    auto subtree = view->DecodeSubtree(kSubtreePath);
    if (!subtree.ok()) std::abort();
    benchmark::DoNotOptimize((*subtree)->SubtreeSize());
  }
}
BENCHMARK(BM_GbaSubtreeFetch);

// Level-cut load, as used by `granula bench --baseline --depth=N` gates:
// root + supersteps, workers never decoded.
void BM_GbaLoadLevels2(benchmark::State& state) {
  const Fixture& f = Bench();
  ArchiveRepository repo(f.dir);
  for (auto _ : state) {
    auto archive = repo.Load("bench-gba", 2);
    if (!archive.ok()) std::abort();
    benchmark::DoNotOptimize(archive->OperationCount());
  }
}
BENCHMARK(BM_GbaLoadLevels2);

// ------------------------------------------------------ repository ops ----

// Index-served listing: answered from index.json, no archive body opened.
void BM_RepoListIndexed(benchmark::State& state) {
  const Fixture& f = Bench();
  ArchiveRepository repo(f.dir);
  for (auto _ : state) {
    auto entries = repo.List();
    if (!entries.ok()) std::abort();
    benchmark::DoNotOptimize(entries->size());
  }
}
BENCHMARK(BM_RepoListIndexed);

// Subtree fetch through the repository, cold: a fresh repository object
// per iteration, so every fetch misses the LRU and decodes from disk.
void BM_FetchSubtreeCold(benchmark::State& state) {
  const Fixture& f = Bench();
  for (auto _ : state) {
    ArchiveRepository repo(f.dir);
    auto subtree = repo.FetchSubtree("bench-gba", kSubtreePath);
    if (!subtree.ok()) std::abort();
    benchmark::DoNotOptimize((*subtree)->SubtreeSize());
  }
}
BENCHMARK(BM_FetchSubtreeCold);

// Same fetch, warm: one repository, so after the first miss every
// iteration is an LRU hit returning the shared decoded subtree.
void BM_FetchSubtreeWarm(benchmark::State& state) {
  const Fixture& f = Bench();
  ArchiveRepository repo(f.dir);
  for (auto _ : state) {
    auto subtree = repo.FetchSubtree("bench-gba", kSubtreePath);
    if (!subtree.ok()) std::abort();
    benchmark::DoNotOptimize((*subtree)->SubtreeSize());
  }
}
BENCHMARK(BM_FetchSubtreeWarm);

}  // namespace
}  // namespace granula::core

BENCHMARK_MAIN();
