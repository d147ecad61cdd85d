#ifndef GRANULA_GRANULA_BENCH_SWEEP_H_
#define GRANULA_GRANULA_BENCH_SWEEP_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/api.h"
#include "common/json.h"
#include "common/result.h"
#include "sim/faults.h"

namespace granula::bench {

// The Graphalytics-core-style sweep driver behind `granula bench`: a
// declarative platforms × algorithms × graph scales × node counts ×
// (optional) fault plans matrix, executed job by job on the host thread
// pool and archived into one ArchiveRepository under deterministic names,
// so the comparative analysis (analysis/comparative.h) and the regression
// gate can treat the whole sweep as a single shareable artifact.

// One optional fault axis entry. An empty `spec` means "no faults" — use
// it to sweep clean and faulted variants of the same matrix side by side.
struct FaultEntry {
  std::string name;  // run-name suffix; must be non-empty per entry
  std::string spec;  // FaultPlan::Parse grammar, "" = clean
};

struct SweepSpec {
  std::vector<std::string> platforms;   // dispatch.h canonical names
  std::vector<std::string> algorithms;  // Graphalytics names, any case
  std::vector<std::string> graphs;      // graph/io.h GraphFromSpec grammar
  std::vector<uint32_t> node_counts = {8};
  std::vector<FaultEntry> faults;       // empty = clean runs only
  uint64_t iterations = 10;             // PageRank/CDLP rounds
  int64_t source = 1;                   // BFS/SSSP source vertex
  uint32_t max_attempts = 4;            // retry policy for faulted runs
  uint64_t checkpoint_interval = 2;
  int model_level = 0;                  // Archiver max_level

  // Parses the declarative JSON form:
  //   {"platforms": ["giraph", "pgxd"],
  //    "algorithms": ["BFS", "PageRank"],
  //    "graphs": ["uniform:500,2000"],
  //    "nodes": [4, 8],
  //    "faults": [{"name": "crash2", "spec": "crash:2:1"}],
  //    "iterations": 6, "source": 1, "model_level": 0}
  // Only "platforms", "algorithms" and "graphs" are required; unknown
  // keys are rejected so config typos fail loudly instead of silently
  // running the default matrix.
  static Result<SweepSpec> FromJson(const Json& json);
  static Result<SweepSpec> FromJsonFile(const std::string& path);
};

// One fully-resolved cell of the sweep matrix.
struct SweepJob {
  std::string name;  // deterministic archive name, see ExpandSweep
  std::string platform;
  std::string algorithm;   // display name, e.g. "PageRank"
  std::string graph;       // original spec string
  std::string fault_name;  // "" for clean runs
  uint32_t nodes = 0;
  algo::AlgorithmSpec spec;
  sim::FaultPlan faults;
};

// Expands the matrix in declaration order (platform-major, then
// algorithm, graph, nodes, fault) after validating every axis value.
// Job/archive names are "<platform>-<algo>-<graph-slug>-nN[-fault]",
// e.g. "giraph-bfs-uniform-500-2000-n4-crash2"; a spec whose axes would
// produce duplicate names is rejected.
Result<std::vector<SweepJob>> ExpandSweep(const SweepSpec& spec);

struct SweepOptions {
  std::string repo_dir = "sweep-archives";
};

struct SweepJobSummary {
  std::string name;
  std::string platform;
  std::string algorithm;
  std::string graph;
  std::string fault_name;
  uint32_t nodes = 0;
  bool completed = true;  // false: fault plan exhausted the retry policy
  double total_seconds = 0;
  uint64_t operations = 0;
  uint64_t failed_attempts = 0;
};

struct SweepResult {
  std::vector<SweepJobSummary> jobs;  // expansion order
  // Archive names in the repository, parallel to `jobs`.
  std::vector<std::string> archive_names;
  bool all_completed = true;
};

// Runs every job of the sweep and saves each archive into the repository
// at `options.repo_dir` under the job's name (overwriting a previous
// sweep's archive of the same name — names are pure functions of the
// config, which is what makes baseline comparison possible). `progress`
// (may be null) receives one summary line per job, in expansion order.
Result<SweepResult> RunSweep(const SweepSpec& spec,
                             const SweepOptions& options,
                             std::FILE* progress = nullptr);

}  // namespace granula::bench

#endif  // GRANULA_GRANULA_BENCH_SWEEP_H_
