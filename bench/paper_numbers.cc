#include "bench/paper_numbers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/strings.h"
#include "granula/analysis/attribution.h"
#include "granula/analysis/chokepoint.h"
#include "granula/analysis/regression.h"
#include "granula/archive/archiver.h"
#include "granula/models/models.h"
#include "granula/visual/svg.h"
#include "granula/visual/text.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "platforms/dispatch.h"
#include "platforms/pgxd.h"

namespace granula::bench {

double Artifact::Number(std::string name, double value) {
  rows.push_back({std::move(name), value});
  return value;
}

namespace {

// ----------------------------------------------------------- workload ----

algo::AlgorithmSpec Algorithm(algo::AlgorithmId id) {
  algo::AlgorithmSpec spec;
  spec.id = id;
  spec.source = 1;  // an ordinary (non-hub) vertex, like Graphalytics BFS
  return spec;
}

// Everything about a job but its graph. The defaults are the reference
// workload, a scaled version of the paper's experiment (BFS on dg1000, 8
// DAS5 nodes): BFS on 8 simulated 16-core nodes, one 8-thread worker per
// node. See DESIGN.md §2 for the substitution rationale.
struct Workload {
  algo::AlgorithmSpec spec = Algorithm(algo::AlgorithmId::kBfs);
  cluster::ClusterConfig cluster;
  platform::JobConfig job;
};

// A Datagen-like social graph.
Result<graph::Graph> Datagen(uint64_t vertices, uint64_t seed,
                             double avg_degree = 15.0) {
  graph::DatagenConfig config;
  config.num_vertices = vertices;
  config.avg_degree = avg_degree;
  config.seed = seed;
  return graph::GenerateDatagen(config);
}

// dg_scale: ~100k vertices + ~750k edges (~0.85M entities; dg1000 has
// 1.03B, so unit costs in the cost model are scaled up accordingly).
// Generated once per process.
const Result<graph::Graph>& DgScale() {
  static const Result<graph::Graph> graph = Datagen(100000, 1000);
  return graph;
}

// `status` with the row it left uncomputed in front.
Status Uncomputed(const std::string& row, const Status& status) {
  return Status(status.code(), row + ": " + status.message());
}

// A finished job and its archive under its platform's performance model.
struct Job {
  platform::JobResult result;  // its environment moved into `archive`
  core::PerformanceArchive archive;

  const core::ArchivedOperation& root() const { return *archive.root; }
  // A nanosecond root info of the domain layer (SetupTime, ...) in seconds.
  double Seconds(const char* info) const {
    return root().InfoNumber(info) * 1e-9;
  }
};

// Archives `run` under its platform's performance model; errors name
// `row`.
Result<Job> Archive(const std::string& row, const std::string& platform,
                    Result<platform::JobResult> run) {
  if (!run.ok()) return Uncomputed(row, run.status());
  Result<core::PerformanceModel> model = platform::ModelForPlatform(platform);
  if (!model.ok()) return Uncomputed(row, model.status());
  Job job{std::move(run).value(), {}};
  Result<core::PerformanceArchive> archive = core::Archiver().Build(
      *model, job.result.records, std::move(job.result.environment), {});
  if (!archive.ok()) return Uncomputed(row, archive.status());
  job.archive = std::move(archive).value();
  return job;
}

Result<platform::JobResult> Run(const std::string& platform,
                                const Result<graph::Graph>& graph,
                                const Workload& workload) {
  if (!graph.ok()) return graph.status();
  return platform::RunForPlatform(platform, *graph, workload.spec,
                                  workload.cluster, workload.job);
}

// Runs `workload` on `graph` with the named engine and archives it;
// errors name `row`.
Result<Job> RunJob(const std::string& row, const std::string& platform,
                   const Result<graph::Graph>& graph,
                   const Workload& workload = {}) {
  return Archive(row, platform, Run(platform, graph, workload));
}

// The reference workload on dg_scale. Several artifacts archive the same
// deterministic run, so a process runs each platform's once.
Result<Job> ReferenceJob(const std::string& row,
                         const std::string& platform) {
  static std::mutex mutex;
  static std::map<std::string, Result<platform::JobResult>> runs;
  std::unique_lock<std::mutex> lock(mutex);
  auto it = runs.find(platform);
  if (it == runs.end()) {
    it = runs.emplace(platform, Run(platform, DgScale(), {})).first;
  }
  Result<platform::JobResult> run = it->second;
  lock.unlock();
  return Archive(row, platform, std::move(run));
}

struct Platform {
  const char* name;   // dispatch name, used in row names
  const char* title;  // as printed
};
constexpr Platform kGiraph = {"giraph", "Giraph"};
constexpr Platform kPowerGraph = {"powergraph", "PowerGraph"};

}  // namespace

// ------------------------------------------------------------- figures ----

// Paper Fig. 5: the domain-level decomposition (Ts/Td/Tp) of the
// reference BFS job on Giraph and PowerGraph, with
// fig5_{giraph,powergraph}.svg.
Result<Artifact> Fig5JobDecomposition() {
  Artifact out;
  out.text =
      "Fig. 5 reproduction: domain-level job decomposition\n"
      "paper: Giraph 81.59s (30.9% setup, 43.3% I/O, 25.8% processing); "
      "PowerGraph 400.38s (94.8% I/O, <3.1% processing)\n\n";
  struct Category {
    const char* label;
    const char* info;
    const char* key;
  };
  constexpr Category kCategories[] = {
      {"Setup (Ts)", "SetupTime", "setup"},
      {"Input/output (Td)", "IoTime", "io"},
      {"Processing (Tp)", "ProcessingTime", "processing"}};
  for (const Platform& platform : {kGiraph, kPowerGraph}) {
    const std::string row = std::string("fig5.") + platform.name;
    GRANULA_ASSIGN_OR_RETURN(Job job, ReferenceJob(row, platform.name));
    double total =
        out.Number(row + ".total_s", job.root().Duration().seconds());
    out.text += StrFormat("--- %s: BFS on dg_scale, 8 nodes ---\n",
                          platform.title);
    out.text += core::RenderBreakdownBar(job.archive);
    out.text += StrFormat("  %-22s %10s  %6s\n", "category", "time", "share");
    for (const Category& category : kCategories) {
      const std::string prefix = row + "." + category.key;
      double seconds = out.Number(prefix + "_s", job.Seconds(category.info));
      out.text += StrFormat(
          "  %-22s %10s  %6s\n", category.label,
          HumanSeconds(seconds).c_str(),
          HumanPercent(out.Number(prefix + "_share", seconds / total))
              .c_str());
    }
    out.text += StrFormat("  total %s\n\n", HumanSeconds(total).c_str());
    out.svgs.push_back({StrFormat("fig5_%s.svg", platform.name),
                        core::RenderBreakdownSvg(job.archive)});
  }
  out.text += "SVG written to fig5_giraph.svg, fig5_powergraph.svg\n";
  return out;
}

// Paper Fig. 6: Giraph's cluster CPU mapped onto its domain phases —
// setup idle, LoadGraph CPU-heavy (parsing), ProcessGraph bursty — with
// fig6_giraph_cpu.svg.
Result<Artifact> Fig6GiraphCpu() {
  Artifact out;
  out.text =
      "Fig. 6 reproduction: CPU utilization of Giraph operations\n"
      "paper: setup not compute-intensive; LoadGraph CPU-heavy; "
      "ProcessGraph bursty and under-utilized on average\n\n";
  GRANULA_ASSIGN_OR_RETURN(Job job, ReferenceJob("fig6", "giraph"));
  out.text += core::RenderUtilizationChart(job.archive, 56) + "\n";

  out.text += "mean cluster CPU (CPU-s/s over 8 nodes) per phase:\n";
  double load_mean = 0, startup_mean = 0;
  for (const core::OperationResourceUsage& usage :
       core::AttributeCpu(job.archive, core::AttributionOptions{})) {
    out.text += StrFormat(
        "  %-28s %8.2f\n", usage.path.c_str(),
        out.Number("fig6." + usage.path + ".mean_cpu", usage.mean_cpu));
    if (usage.path == "GiraphJob/LoadGraph") load_mean = usage.mean_cpu;
    if (usage.path == "GiraphJob/Startup") startup_mean = usage.mean_cpu;
  }

  std::map<double, double> windows;  // sample time -> summed node CPU
  for (const core::EnvironmentRecord& r : job.archive.environment) {
    windows[r.time_seconds] += r.cpu_seconds_per_second;
  }
  double peak = 0;
  for (const auto& [time, cpu] : windows) peak = std::max(peak, cpu);
  out.text += StrFormat(
      "\npeak cluster CPU: %.2f CPU-s/s (paper's axis: 190.30)\n",
      out.Number("fig6.peak_cpu", peak));
  out.text += StrFormat(
      "LoadGraph / Startup mean-CPU ratio: %.1fx %s\n",
      out.Number("fig6.load_over_startup",
                 startup_mean > 0 ? load_mean / startup_mean : 0.0),
      "(paper: I/O surprisingly heavy, setup idle)");

  out.svgs.push_back(
      {"fig6_giraph_cpu.svg", core::RenderUtilizationSvg(job.archive)});
  out.text += "SVG written to fig6_giraph_cpu.svg\n";
  return out;
}

// Paper Fig. 7: PowerGraph's CPU during LoadGraph — one node (the
// sequential loader) works while seven idle until finalization — with
// fig7_powergraph_cpu.svg.
Result<Artifact> Fig7PowerGraphCpu() {
  Artifact out;
  out.text =
      "Fig. 7 reproduction: CPU utilization of PowerGraph operations\n"
      "paper: one node loads sequentially while others idle; all nodes "
      "participate only at the end of LoadGraph\n\n";
  GRANULA_ASSIGN_OR_RETURN(Job job, ReferenceJob("fig7", "powergraph"));
  out.text += core::RenderUtilizationChart(job.archive, 56) + "\n";

  // Quantify the single-loader claim: during the ReadInput operation, how
  // much of the cluster's CPU time is on each node?
  const std::string read_path = "PowerGraphJob/LoadGraph/ReadInput";
  const core::ArchivedOperation* read = job.archive.FindByPath(read_path);
  const core::ArchivedOperation* load =
      job.archive.FindByPath("PowerGraphJob/LoadGraph");
  if (read == nullptr || load == nullptr) {
    return Status::NotFound("fig7: the archive has no " + read_path);
  }
  core::AttributionOptions two_levels;
  two_levels.max_depth = 2;
  for (const core::OperationResourceUsage& usage :
       core::AttributeCpu(job.archive, two_levels)) {
    if (usage.path != read_path) continue;
    out.text += StrFormat(
        "during ReadInput (%.1fs .. %.1fs):\n",
        out.Number("fig7.read_begin_s", read->StartTime().seconds()),
        out.Number("fig7.read_end_s", read->EndTime().seconds()));
    std::map<std::string, double> share;  // host -> % of the CPU time
    for (const auto& [host, cpu] : usage.per_node_cpu) {
      share[host] = out.Number(
          "fig7." + host + ".cpu_pct",
          usage.cpu_seconds > 0 ? 100.0 * cpu / usage.cpu_seconds : 0.0);
      out.text += StrFormat("  %s: %5.1f%% of cluster CPU time\n",
                            host.c_str(), share[host]);
    }
    // The coordinator is node 0, the lowest host number.
    out.text += StrFormat(
        "coordinator share: %.1f%% (paper: 'only one compute node is "
        "utilizing the CPU')\n",
        share.empty() ? 0.0 : share.begin()->second);
  }
  out.text += StrFormat(
      "SequentialReadFraction of LoadGraph: %s\n",
      HumanPercent(out.Number("fig7.sequential_read_share",
                              load->InfoNumber("SequentialReadFraction")))
          .c_str());

  out.svgs.push_back(
      {"fig7_powergraph_cpu.svg", core::RenderUtilizationSvg(job.archive)});
  out.text += "SVG written to fig7_powergraph_cpu.svg\n";
  return out;
}

// Paper Fig. 8: Giraph compute time per worker per superstep at the
// implementation level. One mid-run superstep dominates (the BFS
// frontier explosion, "Compute-4" in the paper), workers are imbalanced
// within it, and barrier waits show. Writes fig8_superstep_timeline.svg.
Result<Artifact> Fig8SuperstepBreakdown() {
  Artifact out;
  out.text =
      "Fig. 8 reproduction: per-worker superstep breakdown (Giraph BFS)\n"
      "paper: Compute-4 takes significantly longer; workers imbalanced; "
      "synchronization overhead visible as PreStep/PostStep\n\n";
  GRANULA_ASSIGN_OR_RETURN(Job job, ReferenceJob("fig8", "giraph"));

  // step -> worker -> compute seconds; also the sums behind the overhead
  // share (time inside LocalSuperstep not spent in Compute — the
  // synchronization_overhead finding's metric, which the choke-point
  // analysis reports only from 30 % up).
  std::map<std::string, std::map<std::string, double>> compute;
  double compute_total = 0, local_total = 0;
  for (const core::ArchivedOperation* op :
       job.archive.FindOperations("Worker", "Compute")) {
    compute[op->mission_id][op->actor_id] = op->Duration().seconds();
    compute_total += op->Duration().seconds();
  }
  for (const core::ArchivedOperation* op :
       job.archive.FindOperations("Worker", "LocalSuperstep")) {
    local_total += op->Duration().seconds();
  }

  out.text += "compute time per worker per superstep (seconds):\n";
  out.text += StrFormat("%-12s", "");
  for (int w = 1; w <= 8; ++w) out.text += StrFormat(" Worker-%d", w);
  out.text += "  imbalance\n";
  std::string dominant;
  double dominant_time = 0;
  for (const auto& [step, workers] : compute) {
    out.text += StrFormat("%-12s", step.c_str());
    double min = 1e300, max = 0;
    for (int w = 1; w <= 8; ++w) {
      const std::string worker = StrFormat("Worker-%d", w);
      auto it = workers.find(worker);
      double t = out.Number("fig8." + step + "." + worker + "_s",
                            it == workers.end() ? 0.0 : it->second);
      out.text += StrFormat(" %8.3f", t);
      min = std::min(min, t);
      max = std::max(max, t);
    }
    out.text += StrFormat(
        "  %8.2fx\n",
        out.Number("fig8." + step + ".imbalance", min > 0 ? max / min : 0.0));
    if (max > dominant_time) {
      dominant_time = max;
      dominant = step;
    }
  }
  // The superstep number of its "Compute-N" id.
  out.Number("fig8.dominant_superstep",
             std::atoi(dominant.substr(dominant.find('-') + 1).c_str()));
  out.text += StrFormat("\ndominant superstep: %s (paper: Compute-4)\n",
                        dominant.c_str());
  out.text += StrFormat(
      "synchronization/overhead share of worker superstep time: %s\n",
      HumanPercent(out.Number("fig8.sync_share",
                              local_total > 0
                                  ? 1.0 - compute_total / local_total
                                  : 0.0))
          .c_str());

  out.text += "\n" +
              core::RenderActorTimeline(job.archive, "Worker",
                                        "LocalSuperstep", 76) +
              "\n";
  out.svgs.push_back(
      {"fig8_superstep_timeline.svg",
       core::RenderTimelineSvg(job.archive, "Worker", "LocalSuperstep")});
  out.text += "SVG written to fig8_superstep_timeline.svg\n";
  return out;
}

// The introduction's claim that MapReduce platforms process graphs with
// "severe performance penalties" (one to two orders of magnitude in the
// cited studies): Tp of the reference job on Hadoop against the graph
// platforms, comparable through the shared domain model.
Result<Artifact> IntroHadoopPenalty() {
  Artifact out;
  out.text =
      "Intro-claim reproduction: MapReduce vs specialized platforms (BFS "
      "on dg_scale, 8 nodes)\n\n";
  out.text += StrFormat("%-12s %10s %10s %10s %10s %12s\n", "platform",
                        "total", "Ts", "Td", "Tp", "supersteps");
  std::map<std::string, double> tp;
  for (const Platform& platform :
       {Platform{"hadoop", "Hadoop"}, kGiraph, kPowerGraph,
        Platform{"pgxd", "PGX.D"}}) {
    const std::string row = std::string("intro.") + platform.name;
    GRANULA_ASSIGN_OR_RETURN(Job job, ReferenceJob(row, platform.name));
    tp[platform.name] =
        out.Number(row + ".tp_s", job.Seconds("ProcessingTime"));
    out.text += StrFormat(
        "%-12s %9.2fs %9.2fs %9.2fs %9.2fs %12.0f\n", platform.title,
        out.Number(row + ".total_s", job.root().Duration().seconds()),
        out.Number(row + ".ts_s", job.Seconds("SetupTime")),
        out.Number(row + ".td_s", job.Seconds("IoTime")), tp[platform.name],
        out.Number(row + ".supersteps", job.result.supersteps));
  }

  out.text += "\nprocessing-time penalty (Tp ratios):\n";
  out.text += StrFormat("  Hadoop / Giraph:     %6.1fx\n",
                        out.Number("intro.hadoop_over_giraph",
                                   tp["hadoop"] / tp["giraph"]));
  out.text += StrFormat("  Hadoop / PowerGraph: %6.1fx\n",
                        out.Number("intro.hadoop_over_powergraph",
                                   tp["hadoop"] / tp["powergraph"]));
  out.text += StrFormat(
      "  Hadoop / PGX.D:      %6.1fx\n",
      out.Number("intro.hadoop_over_pgxd", tp["hadoop"] / tp["pgxd"]));
  out.text +=
      "\nwhere the penalty lives (from the Hadoop archive): every BFS "
      "superstep is a full MapReduce job\nthat re-allocates YARN "
      "containers and rewrites the complete graph state through HDFS.\n";
  return out;
}

// Failure diagnosis (paper §6 future work): a node degraded to 45 % CPU
// speed, localized by the choke-point analysis as a straggler and flagged
// by the regression gate against the healthy reference run.
Result<Artifact> FailureDiagnosis() {
  Artifact out;
  out.text =
      "Failure diagnosis: one degraded node (node342 at 45% CPU speed), "
      "Giraph BFS on dg_scale\n\n";
  Workload degraded;
  degraded.cluster.node_speed_factors = {1.0, 1.0, 1.0, 0.45,
                                         1.0, 1.0, 1.0, 1.0};
  GRANULA_ASSIGN_OR_RETURN(Job baseline,
                           ReferenceJob("diagnosis.healthy", "giraph"));
  GRANULA_ASSIGN_OR_RETURN(
      Job injected,
      RunJob("diagnosis.degraded", "giraph", DgScale(), degraded));

  core::ChokepointOptions options;
  options.cluster_cpu_capacity = 8.0 * 16.0;
  const std::pair<std::string, const Job*> runs[] = {
      {"healthy", &baseline}, {"degraded", &injected}};
  for (const auto& [run, job] : runs) {
    std::vector<core::Finding> findings =
        core::AnalyzeChokepoints(job->archive, options);
    for (const core::Finding& finding : findings) {
      out.Number("diagnosis." + run + "." +
                     std::string(core::FindingKindName(finding.kind)) + "." +
                     finding.operation,
                 finding.metric);
    }
    out.text += StrFormat("--- choke-point analysis, %s cluster ---\n%s\n",
                          run.c_str(),
                          core::RenderFindings(findings).c_str());
  }

  core::RegressionOptions reg_options;
  reg_options.max_depth = 2;  // domain-level regression gate
  core::RegressionReport report =
      core::CompareArchives(baseline.archive, injected.archive, reg_options);
  out.Number("diagnosis.gate.baseline_s", report.total_baseline_seconds);
  out.Number("diagnosis.gate.candidate_s", report.total_candidate_seconds);
  for (const auto* deltas : {&report.regressions, &report.improvements}) {
    for (const core::OperationDelta& delta : *deltas) {
      out.Number("diagnosis.gate." + delta.path + ".change",
                 delta.relative_change);
    }
  }
  out.text +=
      "--- regression gate (healthy baseline vs degraded run) ---\n" +
      core::RenderRegressionReport(report);
  out.text +=
      "\nexpected shape: the degraded run adds straggler_node / "
      "worker_imbalance findings pointing at the worker on node342, and "
      "the regression gate flags ProcessGraph (and LoadGraph, whose "
      "parsing also runs on the slow node).\n";
  return out;
}

// ----------------------------------------------------------- ablations ----

// Ablation A1: the reference Giraph log archived under the Giraph model
// truncated at levels 1-5 — the paper's cost/detail trade-off of
// incremental modeling (requirement R3).
Result<Artifact> AblationGranularity() {
  Artifact out;
  out.text =
      "Ablation A1: model granularity vs archive size & archiving cost\n"
      "(one Giraph BFS run on dg_scale, archived under truncations of the "
      "Giraph model)\n\n";
  GRANULA_ASSIGN_OR_RETURN(Job job, ReferenceJob("a1", "giraph"));
  core::PerformanceModel full = core::MakeGiraphModel();

  out.text += StrFormat("%-7s %-14s %10s %12s %12s %12s\n", "level", "view",
                        "operations", "infos", "json bytes", "archive ms");
  const char* kViewNames[] = {"", "job only", "domain", "system",
                              "implementation", "superstep stages"};
  for (int level = 1; level <= full.max_level(); ++level) {
    const std::string row = StrFormat("a1.level%d", level);
    core::Archiver::Options options;
    options.max_level = level;
    auto begin = std::chrono::steady_clock::now();
    auto archive = core::Archiver(options).Build(
        full, job.result.records, {}, {{"platform", "Giraph"}});
    // Host wall time: printed, but not a row.
    auto elapsed = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
    if (!archive.ok()) return Uncomputed(row, archive.status());
    uint64_t infos = 0;
    archive->root->Visit([&](const core::ArchivedOperation& op) {
      infos += op.infos.size();
    });
    out.text += StrFormat(
        "%-7d %-14s %10.0f %12.0f %12.0f %12.2f\n", level, kViewNames[level],
        out.Number(row + ".operations", archive->OperationCount()),
        out.Number(row + ".infos", infos),
        out.Number(row + ".json_bytes", archive->ToJsonString(0).size()),
        elapsed);
  }
  out.text +=
      "\nexpected shape: operation count and archive size grow by orders "
      "of magnitude with depth,\nwhile the domain-level numbers (phase "
      "durations) are identical at every level.\n";
  return out;
}

// Ablation A2: the environment monitor's sampling interval against the
// error of CPU-to-phase attribution (the mapping behind Figs. 6-7).
Result<Artifact> AblationSampling() {
  Artifact out;
  out.text =
      "Ablation A2: monitor sampling interval vs CPU-attribution error\n"
      "(Giraph BFS on dg_scale; ground truth = 0.1s sampling)\n\n";
  out.text += StrFormat("%-10s %10s %16s %18s\n", "interval", "samples",
                        "records/s (sim)", "attribution error");
  // CPU-seconds per domain phase; the finest interval is the truth.
  constexpr double kIntervals[] = {0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0};
  std::map<std::string, double> truth;
  double truth_total = 0;
  for (double interval : kIntervals) {
    const std::string row = StrFormat("a2.%.2fs", interval);
    Workload workload;
    workload.job.monitor_interval = SimTime::Seconds(interval);
    GRANULA_ASSIGN_OR_RETURN(Job job,
                             RunJob(row, "giraph", DgScale(), workload));
    std::map<std::string, double> cpu = core::PhaseCpuSeconds(job.archive);
    if (interval == kIntervals[0]) {
      truth = cpu;
      for (const auto& [phase, seconds] : truth) truth_total += seconds;
    }
    double error = 0;
    for (const auto& [phase, truth_value] : truth) {
      error += std::abs(cpu[phase] - truth_value);
    }
    double samples = job.archive.environment.size();
    out.text += StrFormat(
        "%8.2fs %10.0f %16.1f %17.2f%%\n", interval,
        out.Number(row + ".samples", samples),
        out.Number(row + ".records_per_s",
                   samples / job.root().Duration().seconds()),
        out.Number(row + ".error_pct",
                   truth_total > 0 ? 100.0 * error / truth_total : 0.0));
  }
  out.text +=
      "\nexpected shape: error grows with the interval (phase-boundary "
      "smearing), record volume shrinks ~linearly; ~1s (the paper's "
      "setting) keeps error in the low percent range.\n";
  return out;
}

// Ablation A3: greedy vs random vertex-cut in the PowerGraph engine —
// replication factor, sync traffic and ProcessGraph time.
Result<Artifact> AblationPartitioning() {
  Artifact out;
  out.text =
      "Ablation A3: vertex-cut strategy (PowerGraph BFS on dg_scale)\n\n";
  const Result<graph::Graph>& g = DgScale();
  if (!g.ok()) return Uncomputed("a3", g.status());

  out.text += "replication factor by partitioner and cluster size:\n";
  out.text += StrFormat("%-10s %10s %10s\n", "ranks", "greedy", "random");
  for (uint32_t ranks : {2u, 4u, 8u}) {
    const std::string row = StrFormat("a3.ranks%u", ranks);
    Result<graph::VertexCutResult> greedy =
        graph::PartitionVertexCutGreedy(*g, ranks);
    Result<graph::VertexCutResult> random =
        graph::PartitionVertexCutRandom(*g, ranks, 1);
    if (!greedy.ok()) return Uncomputed(row + ".greedy", greedy.status());
    if (!random.ok()) return Uncomputed(row + ".random", random.status());
    out.text += StrFormat(
        "%-10u %10.2f %10.2f\n", ranks,
        out.Number(row + ".greedy",
                   greedy->ReplicationFactor(g->num_vertices())),
        out.Number(row + ".random",
                   random->ReplicationFactor(g->num_vertices())));
  }

  out.text += "\nend-to-end effect (8 ranks):\n";
  out.text += StrFormat("%-24s %14s %14s %16s\n", "cut / interconnect",
                        "ProcessGraph", "total", "network bytes");
  for (bool slow_network : {false, true}) {
    for (bool random : {false, true}) {
      const char* cut = random ? "random" : "greedy";
      const std::string row =
          StrFormat("a3.%s.%s", cut, slow_network ? "4MiBps" : "10Gbps");
      Workload workload;
      workload.job.use_random_vertex_cut = random;
      if (slow_network) {
        workload.cluster.net_bytes_per_sec = 4.0 * 1024 * 1024;  // 4 MiB/s
      }
      GRANULA_ASSIGN_OR_RETURN(Job job,
                               RunJob(row, "powergraph", g, workload));
      out.text += StrFormat(
          "%-24s %13.2fs %13.2fs %16s\n",
          StrFormat("%s / %s", cut, slow_network ? "4 MiB/s" : "10 Gbit/s")
              .c_str(),
          out.Number(row + ".processing_s", job.Seconds("ProcessingTime")),
          out.Number(row + ".total_s", job.root().Duration().seconds()),
          HumanBytes(out.Number(row + ".network_bytes",
                                job.root().InfoNumber("NetworkBytes", 0)))
              .c_str());
    }
  }
  out.text +=
      "\nexpected shape: greedy replicates less, so it moves ~1.5x fewer "
      "bytes of master/mirror sync traffic. On a fast interconnect that "
      "barely shows in time (gather work per edge is cut-invariant); on a "
      "slow one the random cut's extra traffic lengthens ProcessGraph — "
      "the regime the PowerGraph paper's claim targets.\n";
  return out;
}

// Ablation A4: PGX.D's push, pull and auto (direction-optimizing) BFS,
// observable through each iteration's Direction info.
Result<Artifact> AblationDirection() {
  Artifact out;
  out.text = "Ablation A4: PGX.D push vs pull vs auto (BFS on dg_scale)\n\n";
  const Result<graph::Graph>& g = DgScale();
  if (!g.ok()) return Uncomputed("a4", g.status());

  out.text += StrFormat("%-10s %12s %14s %12s\n", "policy", "ProcessGraph",
                        "push iters", "total");
  core::PerformanceArchive auto_archive;
  std::map<platform::PgxdDirection, double> processing_s;
  constexpr std::pair<platform::PgxdDirection, const char*> kPolicies[] = {
      {platform::PgxdDirection::kPushOnly, "push-only"},
      {platform::PgxdDirection::kPullOnly, "pull-only"},
      {platform::PgxdDirection::kAuto, "auto"}};
  const Workload workload{};
  for (const auto& [direction, name] : kPolicies) {
    const std::string row = std::string("a4.") + name;
    GRANULA_ASSIGN_OR_RETURN(
        Job job, Archive(row, "pgxd",
                         platform::PgxdPlatform(platform::PgxdCostModel{},
                                                direction)
                             .Run(*g, workload.spec, workload.cluster,
                                  workload.job)));
    const core::ArchivedOperation* process =
        job.archive.FindByPath("PgxdJob/ProcessGraph");
    if (process == nullptr) {
      return Status::NotFound(row + ": the archive has no ProcessGraph");
    }
    processing_s[direction] =
        out.Number(row + ".processing_s", process->Duration().seconds());
    out.text += StrFormat(
        "%-10s %11.3fs %8.0f of %2.0f %11.3fs\n", name,
        processing_s[direction],
        out.Number(row + ".push_iterations",
                   process->InfoNumber("PushIterations")),
        out.Number(row + ".iterations",
                   process->InfoNumber("IterationCount")),
        out.Number(row + ".total_s", job.root().Duration().seconds()));
    if (direction == platform::PgxdDirection::kAuto) {
      auto_archive = std::move(job.archive);
    }
  }

  out.text += StrFormat("\nauto policy per iteration:\n%-14s %12s %10s %12s\n",
                        "iteration", "frontier", "direction", "duration");
  for (const core::ArchivedOperation* iter :
       auto_archive.FindOperations("Engine", "Iteration")) {
    const std::string row = "a4.auto." + iter->mission_id;
    const core::InfoValue* direction = iter->FindInfo("Direction");
    if (direction == nullptr) {
      return Status::NotFound(row + ": no Direction info");
    }
    out.text += StrFormat(
        "%-14s %12.0f %10s %11.3fs\n", iter->mission_id.c_str(),
        out.Number(row + ".frontier_edges", iter->InfoNumber("FrontierEdges")),
        direction->value.AsString().c_str(),
        out.Number(row + ".duration_s", iter->Duration().seconds()));
  }
  // The verdict is read off the ProcessGraph rows above.
  const double push = processing_s[platform::PgxdDirection::kPushOnly];
  const double pull = processing_s[platform::PgxdDirection::kPullOnly];
  const double chosen = processing_s[platform::PgxdDirection::kAuto];
  const char* faster = push <= pull ? "push-only" : "pull-only";
  const char* slower = push <= pull ? "pull-only" : "push-only";
  const double best = std::min(push, pull);
  out.text +=
      "\nexpected shape: auto pushes on the tiny early/late frontiers and "
      "pulls through the explosive middle, so it tracks the faster fixed "
      "policy and far outruns the slower one (the direction-optimizing BFS "
      "result). Here auto ";
  out.text += chosen <= best
                  ? std::string("is never slower than either fixed policy")
                  : StrFormat("trails %s by %.1f%%", faster,
                              100 * (chosen / best - 1));
  out.text += StrFormat(" and runs %.1fx faster than %s.\n",
                        std::max(push, pull) / chosen, slower);
  return out;
}

// -------------------------------------------------------------- sweeps ----

// Sweep S1 (Graphalytics-style): Ts/Td/Tp of Giraph and PowerGraph over
// graph size and worker count.
Result<Artifact> SweepScalability() {
  Artifact out;
  // One Giraph and one PowerGraph line per configuration; `width` is the
  // axis column's. A configuration without a graph is the reference job
  // itself (dg_scale, 8 workers), whose runs the figures already made.
  auto add_lines = [&out](const std::string& row, int width,
                          unsigned long long axis,
                          const Result<graph::Graph>* graph,
                          const Workload& workload) -> Status {
    for (const Platform& platform : {kGiraph, kPowerGraph}) {
      const std::string name = row + "." + platform.name;
      GRANULA_ASSIGN_OR_RETURN(
          Job job, graph == nullptr
                       ? ReferenceJob(name, platform.name)
                       : RunJob(name, platform.name, *graph, workload));
      out.text += StrFormat(
          "%-12s %*llu %8.2fs %8.2fs %8.2fs %8.2fs\n", platform.title, width,
          axis, out.Number(name + ".total_s", job.root().Duration().seconds()),
          out.Number(name + ".ts_s", job.Seconds("SetupTime")),
          out.Number(name + ".td_s", job.Seconds("IoTime")),
          out.Number(name + ".tp_s", job.Seconds("ProcessingTime")));
    }
    return Status::OK();
  };

  out.text = "Sweep S1a: graph size (8 nodes, 8 workers, BFS)\n";
  out.text += StrFormat("%-12s %10s %9s %9s %9s %9s\n", "platform",
                        "vertices", "total", "Ts", "Td", "Tp");
  for (unsigned long long n : {25000ull, 50000ull, 100000ull, 200000ull}) {
    const std::string row = StrFormat("s1.size%llu", n);
    if (n == 100000) {  // dg_scale
      GRANULA_RETURN_IF_ERROR(add_lines(row, 10, n, nullptr, Workload{}));
      continue;
    }
    const Result<graph::Graph> graph = Datagen(n, 1000);
    GRANULA_RETURN_IF_ERROR(add_lines(row, 10, n, &graph, Workload{}));
  }

  out.text += "\nSweep S1b: worker count (dg_scale 100k vertices, BFS)\n";
  out.text += StrFormat("%-12s %8s %9s %9s %9s %9s\n", "platform",
                        "workers", "total", "Ts", "Td", "Tp");
  for (uint32_t workers : {1u, 2u, 4u, 8u}) {
    Workload workload;
    workload.job.num_workers = workers;
    GRANULA_RETURN_IF_ERROR(add_lines(StrFormat("s1.workers%u", workers), 8,
                                      workers,
                                      workers == 8 ? nullptr : &DgScale(),
                                      workload));
  }
  out.text +=
      "\nexpected shapes: Giraph Td shrinks with workers (parallel HDFS "
      "load) while PowerGraph Td barely moves (sequential reader — adding "
      "machines does not help); Giraph Ts is flat in graph size but grows "
      "slightly with workers (more containers to allocate).\n";
  return out;
}

// Sweep S2: Tp of every platform x algorithm pair, one metric definition
// across platforms through the shared domain model.
Result<Artifact> SweepAlgorithms() {
  Artifact out;
  out.text =
      "Sweep S2: processing time Tp (seconds) per platform and algorithm\n"
      "(30k-vertex Datagen graph, 8 nodes; identical outputs across "
      "platforms are enforced by the test suite)\n\n";
  // A moderate graph keeps 20 full runs fast.
  const Result<graph::Graph> g = Datagen(30000, 1000, 12.0);
  out.text += StrFormat("%-12s %10s %10s %10s %10s\n", "platform", "BFS",
                        "SSSP", "WCC", "PageRank");
  for (const Platform& platform :
       {kGiraph, kPowerGraph, Platform{"pgxd", "PGX.D"},
        Platform{"graphmat", "GraphMat"}, Platform{"hadoop", "Hadoop"}}) {
    out.text += StrFormat("%-12s", platform.title);
    for (algo::AlgorithmId id :
         {algo::AlgorithmId::kBfs, algo::AlgorithmId::kSssp,
          algo::AlgorithmId::kWcc, algo::AlgorithmId::kPageRank}) {
      const std::string row = StrFormat("s2.%s.", platform.name) +
                              std::string(algo::AlgorithmName(id));
      Workload workload;
      workload.spec = Algorithm(id);
      workload.spec.max_iterations = 6;
      GRANULA_ASSIGN_OR_RETURN(Job job,
                               RunJob(row, platform.name, g, workload));
      out.text += StrFormat(
          " %9.2fs", out.Number(row + ".tp_s", job.Seconds("ProcessingTime")));
    }
    out.text += "\n";
  }
  return out;
}

// Sweep S3: the Giraph BFS decomposition over ten Datagen seeds and two
// other graph families — how stable Fig. 5's single-run numbers are.
Result<Artifact> SweepDatasets() {
  Artifact out;
  out.text =
      "Sweep S3: stability of the Giraph BFS decomposition across "
      "datasets\n\n";
  struct Phase {
    const char* label;
    const char* key;
    const char* info;  // the domain layer's fraction of the job
    Summary summary;
  };
  Phase phases[] = {{"Setup (Ts)", "ts", "SetupTimeFraction", {}},
                    {"I/O (Td)", "td", "IoTimeFraction", {}},
                    {"Processing", "tp", "ProcessingTimeFraction", {}}};

  out.text += "ten Datagen instances (100k vertices, seeds 1..10):\n";
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    GRANULA_ASSIGN_OR_RETURN(
        Job job, RunJob(StrFormat("s3.datagen.seed%llu",
                                  static_cast<unsigned long long>(seed)),
                        "giraph", Datagen(100000, seed)));
    for (Phase& phase : phases) {
      phase.summary.Add(job.root().InfoNumber(phase.info));
    }
  }
  for (const Phase& phase : phases) {
    const std::string row = std::string("s3.datagen.") + phase.key;
    const Summary& s = phase.summary;
    out.text += StrFormat(
        "  %-14s mean %5.1f%%  stdev %4.2fpp  [%4.1f%%, %4.1f%%]\n",
        phase.label, out.Number(row + ".mean_pct", 100 * s.Mean()),
        out.Number(row + ".stdev_pp", 100 * s.Stdev()),
        out.Number(row + ".min_pct", 100 * s.Min()),
        out.Number(row + ".max_pct", 100 * s.Max()));
  }

  out.text += "\nother graph families (same scale):\n";
  out.text += StrFormat("  %-14s %8s %8s %8s\n", "family", "Ts", "Td", "Tp");
  graph::RmatConfig rmat;
  rmat.scale = 17;  // 131k vertices
  rmat.edge_factor = 11.0;
  const std::pair<const char*, Result<graph::Graph>> families[] = {
      {"rmat-17", graph::GenerateRmat(rmat)},
      {"uniform", graph::GenerateUniform(100000, 750000, 77)}};
  // Each family's phases from the largest share down, e.g. "Td > Ts > Tp".
  std::string orderings;
  for (const auto& [family, graph] : families) {
    const std::string row = std::string("s3.") + family;
    GRANULA_ASSIGN_OR_RETURN(Job job, RunJob(row, "giraph", graph));
    out.text += StrFormat("  %-14s", family);
    std::vector<std::pair<double, std::string>> shares;
    for (const Phase& phase : phases) {
      shares.emplace_back(
          out.Number(row + "." + phase.key + "_pct",
                     100 * job.root().InfoNumber(phase.info)),
          std::string("T") + phase.key[1]);
      out.text += StrFormat(" %7.1f%%", shares.back().first);
    }
    out.text += "\n";
    std::sort(shares.rbegin(), shares.rend());
    orderings += StrFormat("%s %s %s > %s > %s", orderings.empty() ? "" : ";",
                           family, shares[0].second.c_str(),
                           shares[1].second.c_str(), shares[2].second.c_str());
  }
  out.text +=
      "\nexpected shape: across Datagen seeds the fractions move by at "
      "most a few percentage points (the decomposition is a property of "
      "the platform, not the dataset instance); different graph families "
      "shift the shares moderately. Observed order by family:" +
      orderings + ".\n";
  return out;
}

int PrintArtifact(std::string_view binary) {
  for (const ArtifactFunction& entry : kArtifacts) {
    if (entry.binary != binary) continue;
    Result<Artifact> artifact = entry.compute();
    if (!artifact.ok()) {
      std::fprintf(stderr, "%s: cannot compute %s\n", entry.binary,
                   artifact.status().ToString().c_str());
      return 1;
    }
    std::fputs(artifact->text.c_str(), stdout);
    for (const auto& [file, svg] : artifact->svgs) {
      Status s = core::WriteSvgFile(file, svg);
      if (!s.ok()) {
        std::fprintf(stderr, "%s: %s\n", entry.binary, s.ToString().c_str());
        return 1;
      }
    }
    return 0;
  }
  std::fprintf(stderr, "no paper artifact is printed by %.*s\n",
               static_cast<int>(binary.size()), binary.data());
  return 1;
}

}  // namespace granula::bench
