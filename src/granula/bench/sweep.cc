#include "granula/bench/sweep.h"

#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "granula/archive/archiver.h"
#include "granula/archive/repository.h"
#include "graph/io.h"
#include "platforms/dispatch.h"

namespace granula::bench {
namespace {

std::string Lower(std::string_view s) {
  std::string out;
  for (char c : s) {
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// Filesystem-safe run-name fragment: lowercase alphanumerics, everything
// else folded to '-' ("uniform:500,2000" -> "uniform-500-2000").
std::string Slug(std::string_view s) {
  std::string out;
  for (char c : s) {
    out += std::isalnum(static_cast<unsigned char>(c))
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
               : '-';
  }
  return out;
}

// Case-insensitive Graphalytics algorithm lookup ("pagerank" works in a
// hand-written config; the CLI's exact names keep working too).
Result<algo::AlgorithmId> AlgorithmByName(const std::string& name) {
  std::string lower = Lower(name);
  for (algo::AlgorithmId id :
       {algo::AlgorithmId::kBfs, algo::AlgorithmId::kPageRank,
        algo::AlgorithmId::kWcc, algo::AlgorithmId::kSssp,
        algo::AlgorithmId::kCdlp, algo::AlgorithmId::kLcc}) {
    if (lower == Lower(algo::AlgorithmName(id))) return id;
  }
  return Status::InvalidArgument("unknown algorithm '" + name +
                                 "' (BFS|PageRank|WCC|SSSP|CDLP|LCC)");
}

Result<std::vector<std::string>> StringList(const Json& json,
                                            const std::string& key) {
  const Json* value = json.Find(key);
  if (value == nullptr) return std::vector<std::string>{};
  if (value->is_string()) return std::vector<std::string>{value->AsString()};
  if (!value->is_array()) {
    return Status::InvalidArgument("sweep config: '" + key +
                                   "' must be a string or array of strings");
  }
  std::vector<std::string> out;
  for (const Json& item : value->AsArray()) {
    if (!item.is_string()) {
      return Status::InvalidArgument("sweep config: '" + key +
                                     "' entries must be strings");
    }
    out.push_back(item.AsString());
  }
  return out;
}

}  // namespace

Result<SweepSpec> SweepSpec::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("sweep config must be a JSON object");
  }
  static const std::set<std::string> kKnownKeys = {
      "platforms",  "algorithms", "graphs",
      "nodes",      "faults",     "iterations",
      "source",     "max_attempts", "checkpoint_interval",
      "model_level"};
  for (const auto& [key, unused] : json.AsObject()) {
    if (kKnownKeys.count(key) == 0) {
      return Status::InvalidArgument("sweep config: unknown key '" + key +
                                     "'");
    }
  }

  SweepSpec spec;
  GRANULA_ASSIGN_OR_RETURN(spec.platforms, StringList(json, "platforms"));
  GRANULA_ASSIGN_OR_RETURN(spec.algorithms, StringList(json, "algorithms"));
  GRANULA_ASSIGN_OR_RETURN(spec.graphs, StringList(json, "graphs"));
  for (const char* key : {"platforms", "algorithms", "graphs"}) {
    const Json* value = json.Find(key);
    if (value == nullptr) {
      return Status::InvalidArgument(std::string("sweep config: '") + key +
                                     "' is required");
    }
  }

  if (const Json* nodes = json.Find("nodes"); nodes != nullptr) {
    spec.node_counts.clear();
    const Json::Array one_node = {*nodes};
    const Json::Array& items =
        nodes->is_array() ? nodes->AsArray() : one_node;
    for (const Json& item : items) {
      if (!item.is_int() || item.AsInt() <= 0) {
        return Status::InvalidArgument(
            "sweep config: 'nodes' entries must be positive integers");
      }
      spec.node_counts.push_back(static_cast<uint32_t>(item.AsInt()));
    }
  }

  if (const Json* faults = json.Find("faults"); faults != nullptr) {
    if (!faults->is_array()) {
      return Status::InvalidArgument(
          "sweep config: 'faults' must be an array of {name, spec}");
    }
    for (const Json& item : faults->AsArray()) {
      FaultEntry entry;
      entry.name = item.GetString("name");
      entry.spec = item.GetString("spec");
      if (!item.is_object() || entry.name.empty()) {
        return Status::InvalidArgument(
            "sweep config: each 'faults' entry needs a non-empty 'name'");
      }
      spec.faults.push_back(std::move(entry));
    }
  }

  if (const Json* v = json.Find("iterations")) {
    if (!v->is_int() || v->AsInt() <= 0) {
      return Status::InvalidArgument(
          "sweep config: 'iterations' must be a positive integer");
    }
    spec.iterations = static_cast<uint64_t>(v->AsInt());
  }
  if (const Json* v = json.Find("source")) {
    if (!v->is_int() || v->AsInt() < 0) {
      return Status::InvalidArgument(
          "sweep config: 'source' must be a non-negative integer");
    }
    spec.source = v->AsInt();
  }
  if (const Json* v = json.Find("max_attempts")) {
    if (!v->is_int() || v->AsInt() <= 0) {
      return Status::InvalidArgument(
          "sweep config: 'max_attempts' must be a positive integer");
    }
    spec.max_attempts = static_cast<uint32_t>(v->AsInt());
  }
  if (const Json* v = json.Find("checkpoint_interval")) {
    if (!v->is_int() || v->AsInt() < 0) {
      return Status::InvalidArgument(
          "sweep config: 'checkpoint_interval' must be >= 0");
    }
    spec.checkpoint_interval = static_cast<uint64_t>(v->AsInt());
  }
  if (const Json* v = json.Find("model_level")) {
    if (!v->is_int() || v->AsInt() < 0) {
      return Status::InvalidArgument(
          "sweep config: 'model_level' must be >= 0");
    }
    spec.model_level = static_cast<int>(v->AsInt());
  }
  return spec;
}

Result<SweepSpec> SweepSpec::FromJsonFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open sweep config " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  Result<Json> json = Json::Parse(buffer.str());
  if (!json.ok()) {
    return Status::InvalidArgument("sweep config " + path + ": " +
                                   json.status().message());
  }
  return FromJson(*json);
}

Result<std::vector<SweepJob>> ExpandSweep(const SweepSpec& spec) {
  if (spec.platforms.empty() || spec.algorithms.empty() ||
      spec.graphs.empty() || spec.node_counts.empty()) {
    return Status::InvalidArgument(
        "sweep needs at least one platform, algorithm, graph and node "
        "count");
  }

  // Resolve every axis value once, up front, so a typo anywhere in the
  // config fails before any job runs.
  std::vector<std::string> platforms;
  for (const std::string& name : spec.platforms) {
    GRANULA_ASSIGN_OR_RETURN(std::string canonical,
                             platform::ResolvePlatformName(name));
    platforms.push_back(canonical);
  }
  std::vector<algo::AlgorithmId> algorithms;
  for (const std::string& name : spec.algorithms) {
    GRANULA_ASSIGN_OR_RETURN(algo::AlgorithmId id, AlgorithmByName(name));
    algorithms.push_back(id);
  }
  // The clean/fault axis: one implicit clean entry when none are given.
  std::vector<std::pair<std::string, sim::FaultPlan>> faults;
  if (spec.faults.empty()) {
    faults.emplace_back("", sim::FaultPlan{});
  } else {
    for (const FaultEntry& entry : spec.faults) {
      sim::FaultPlan plan;
      if (!entry.spec.empty()) {
        GRANULA_ASSIGN_OR_RETURN(plan, sim::FaultPlan::Parse(entry.spec));
      }
      plan.retry.max_attempts = spec.max_attempts;
      plan.retry.checkpoint_interval = spec.checkpoint_interval;
      faults.emplace_back(entry.name, std::move(plan));
    }
  }

  std::vector<SweepJob> jobs;
  std::set<std::string> names;
  for (const std::string& platform_name : platforms) {
    for (size_t a = 0; a < algorithms.size(); ++a) {
      // An engine without a program for the algorithm would fail only once
      // its job runs — after earlier jobs were already saved.
      algo::AlgorithmSpec algorithm;
      algorithm.id = algorithms[a];
      GRANULA_RETURN_IF_ERROR(
          platform::CheckPlatformSupports(platform_name, algorithm));
      for (const std::string& graph_spec : spec.graphs) {
        for (uint32_t nodes : spec.node_counts) {
          for (const auto& [fault_name, fault_plan] : faults) {
            SweepJob job;
            job.platform = platform_name;
            job.algorithm = std::string(algo::AlgorithmName(algorithms[a]));
            job.graph = graph_spec;
            job.fault_name = fault_name;
            job.nodes = nodes;
            job.spec.id = algorithms[a];
            job.spec.source = static_cast<graph::VertexId>(spec.source);
            job.spec.max_iterations = spec.iterations;
            job.faults = fault_plan;
            job.name = platform_name + "-" + Lower(job.algorithm) + "-" +
                       Slug(graph_spec) + "-n" + std::to_string(nodes);
            if (!fault_name.empty()) job.name += "-" + Slug(fault_name);
            if (!names.insert(job.name).second) {
              return Status::InvalidArgument(
                  "sweep expands to duplicate run name '" + job.name +
                  "' (repeated axis value?)");
            }
            jobs.push_back(std::move(job));
          }
        }
      }
    }
  }
  return jobs;
}

Result<SweepResult> RunSweep(const SweepSpec& spec,
                             const SweepOptions& options,
                             std::FILE* progress) {
  GRANULA_ASSIGN_OR_RETURN(std::vector<SweepJob> jobs, ExpandSweep(spec));

  // Generate each distinct graph once, sequentially, before fanning out:
  // the generators use the host pool themselves and jobs share the
  // instances read-only.
  std::map<std::string, graph::Graph> graph_cache;
  for (const SweepJob& job : jobs) {
    if (graph_cache.count(job.graph) > 0) continue;
    Result<graph::Graph> graph = graph::GraphFromSpec(job.graph);
    if (!graph.ok()) {
      return Status::InvalidArgument("graph '" + job.graph +
                                     "': " + graph.status().message());
    }
    graph_cache.emplace(job.graph, std::move(*graph));
  }

  core::ArchiveRepository repo(options.repo_dir);
  GRANULA_RETURN_IF_ERROR(repo.Init());

  struct JobOutput {
    Result<core::PerformanceArchive> archive = Status::Internal("not run");
    SweepJobSummary summary;
  };
  std::vector<JobOutput> outputs(jobs.size());

  auto run_one = [&](size_t i) {
    const SweepJob& job = jobs[i];
    SweepJobSummary& summary = outputs[i].summary;
    summary.name = job.name;
    summary.platform = job.platform;
    summary.algorithm = job.algorithm;
    summary.graph = job.graph;
    summary.fault_name = job.fault_name;
    summary.nodes = job.nodes;

    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = job.nodes;
    platform::JobConfig job_config;
    job_config.num_workers = job.nodes;
    job_config.faults = job.faults;

    const graph::Graph& graph = graph_cache.at(job.graph);
    Result<platform::JobResult> result = platform::RunForPlatform(
        job.platform, graph, job.spec, cluster_config, job_config);
    if (!result.ok()) {
      outputs[i].archive = result.status();
      return;
    }

    Result<core::PerformanceModel> model =
        platform::ModelForPlatform(job.platform);
    if (!model.ok()) {
      outputs[i].archive = model.status();
      return;
    }
    core::Archiver::Options archiver_options;
    archiver_options.max_level = spec.model_level;
    outputs[i].archive = core::Archiver(archiver_options)
                             .Build(*model, result->records,
                                    std::move(result->environment),
                                    {{"platform", job.platform},
                                     {"algorithm", job.algorithm},
                                     {"graph", job.graph},
                                     {"graph_vertices",
                                      std::to_string(graph.num_vertices())},
                                     {"nodes", std::to_string(job.nodes)},
                                     {"fault", job.fault_name},
                                     {"sweep_job", job.name}});
    summary.completed = result->completed;
    summary.total_seconds = result->total_seconds;
    summary.failed_attempts = result->failed_attempts;
    if (outputs[i].archive.ok()) {
      summary.operations = outputs[i].archive->OperationCount();
    }
  };

  // One job per chunk on the host pool (GRANULA_HOST_THREADS); the
  // engines' own ParallelFor calls run inline when invoked from inside a
  // chunk, so the pool is never oversubscribed and every job computes
  // exactly what it would compute alone. Archives are saved under explicit
  // names in expansion order, so the repository bytes do not depend on the
  // thread count.
  ParallelFor(0, jobs.size(), 1, [&](uint64_t, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) run_one(i);
  });

  SweepResult sweep;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!outputs[i].archive.ok()) {
      return Status(outputs[i].archive.status().code(),
                    "sweep job '" + jobs[i].name +
                        "': " + outputs[i].archive.status().message());
    }
    GRANULA_ASSIGN_OR_RETURN(std::string saved,
                             repo.Save(*outputs[i].archive, jobs[i].name));
    sweep.archive_names.push_back(saved);
    sweep.jobs.push_back(outputs[i].summary);
    sweep.all_completed = sweep.all_completed && outputs[i].summary.completed;
    if (progress != nullptr) {
      std::fprintf(progress, "  [%zu/%zu] %-44s %8.2fs  %6llu ops%s\n",
                   i + 1, jobs.size(), jobs[i].name.c_str(),
                   outputs[i].summary.total_seconds,
                   static_cast<unsigned long long>(
                       outputs[i].summary.operations),
                   outputs[i].summary.completed ? "" : "  INCOMPLETE");
    }
  }
  return sweep;
}

}  // namespace granula::bench
