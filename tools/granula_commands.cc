#include "granula_commands.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "common/result.h"
#include "common/strings.h"
#include "granula/analysis/chokepoint.h"
#include "granula/analysis/comparative.h"
#include "granula/analysis/regression.h"
#include "granula/archive/archiver.h"
#include "granula/archive/lint.h"
#include "granula/archive/gba.h"
#include "granula/archive/repository.h"
#include "granula/bench/sweep.h"
#include "granula/serve/feed.h"
#include "granula/serve/fleet_service.h"
#include "granula/serve/server.h"
#include "granula/serve/webhook.h"
#include "granula/live/fleet.h"
#include "granula/live/record_source.h"
#include "granula/live/retry_sink.h"
#include "granula/live/watch.h"
#include "granula/models/models.h"
#include "granula/visual/comparative_view.h"
#include "granula/visual/model_view.h"
#include "granula/visual/report.h"
#include "granula/visual/svg.h"
#include "granula/visual/text.h"
#include "graph/io.h"
#include "platforms/dispatch.h"
#include "platforms/registry.h"
#include "sim/faults.h"

namespace granula::cli {
namespace {

// ------------------------------------------------------------- flags ----

class Flags {
 public:
  static Result<Flags> Parse(const std::vector<std::string>& args) {
    Flags flags;
    // args[0] is the command.
    for (size_t i = 1; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("unexpected argument: " + arg);
      }
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags.values_[arg.substr(2)].push_back("true");
      } else {
        flags.values_[arg.substr(2, eq - 2)].push_back(arg.substr(eq + 1));
      }
    }
    return flags;
  }

  // Single-valued accessors: the last occurrence wins, like most CLIs.
  std::string Get(const std::string& name, std::string fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second.back();
  }
  // Every occurrence, in order — for sweep axes, where "--graphs=a
  // --graphs=b" accumulates (a graph spec may contain commas, so repeated
  // flags are the only unambiguous list syntax).
  std::vector<std::string> GetAll(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

// Every command's numeric flags: a value must parse in full and lie in
// range — never atoll/atof's silent 0 for "abc", nor a negative count
// wrapped into a huge unsigned one. The first bad flag is kept, so a
// command reads them all and then answers exit 64 once, before any work.
class NumericFlags {
 public:
  explicit NumericFlags(const Flags& flags) : flags_(flags) {}

  uint64_t Uint(const std::string& name, uint64_t fallback, uint64_t lo,
                uint64_t hi) {
    if (!flags_.Has(name)) return fallback;
    Result<uint64_t> value = ParseUint64(flags_.Get(name));
    if (value.ok() && *value >= lo && *value <= hi) return *value;
    Fail(name, StrFormat("%llu-%llu", static_cast<unsigned long long>(lo),
                         static_cast<unsigned long long>(hi)));
    return fallback;
  }

  double NonNegative(const std::string& name, double fallback) {
    if (!flags_.Has(name)) return fallback;
    Result<double> value = ParseFiniteDouble(flags_.Get(name));
    if (value.ok() && *value >= 0) return *value;
    Fail(name, "a non-negative number");
    return fallback;
  }

  // False (after printing "granula COMMAND: bad --flag ...") when any
  // flag read so far was bad.
  bool Ok(std::FILE* err, const char* command) const {
    if (error_.empty()) return true;
    std::fprintf(err, "granula %s: %s\n", command, error_.c_str());
    return false;
  }

 private:
  void Fail(const std::string& name, const std::string& expected) {
    if (error_.empty()) {
      error_ = "bad --" + name + " '" + flags_.Get(name) + "' (expected " +
               expected + ")";
    }
  }

  const Flags& flags_;
  std::string error_;
};

// ------------------------------------------------------------ helpers ----

Result<core::PerformanceModel> ModelByName(const std::string& name) {
  if (name == "domain") return core::MakeGraphProcessingDomainModel();
  Result<core::PerformanceModel> model = platform::ModelForPlatform(name);
  if (model.ok()) return model;
  return Status::InvalidArgument(
      "unknown model '" + name +
      "' (giraph|powergraph|hadoop|pgxd|graphmat|domain)");
}

// --fault=SPEC[,SPEC...] (grammar: sim::FaultPlan::Parse) plus the
// retry-policy knobs. --fault-seed adds a seeded random plan on top
// (--fault-count faults).
Result<sim::FaultPlan> ParseFaultFlags(const Flags& flags,
                                       NumericFlags& nums,
                                       uint32_t num_workers,
                                       uint64_t max_step) {
  sim::FaultPlan plan;
  uint64_t seed = nums.Uint("fault-seed", 1, 0, UINT64_MAX);
  uint64_t count = nums.Uint("fault-count", 2, 0, UINT32_MAX);
  if (flags.Has("fault-seed")) {
    plan = sim::FaultPlan::Random(seed, num_workers, max_step,
                                  static_cast<uint32_t>(count));
  }
  if (flags.Has("fault")) {
    GRANULA_ASSIGN_OR_RETURN(sim::FaultPlan parsed,
                             sim::FaultPlan::Parse(flags.Get("fault")));
    for (const sim::FaultSpec& spec : parsed.specs()) plan.Add(spec);
  }
  plan.retry.max_attempts =
      static_cast<uint32_t>(nums.Uint("max-attempts", 4, 0, UINT32_MAX));
  plan.retry.checkpoint_interval =
      nums.Uint("checkpoint-interval", 2, 0, UINT64_MAX);
  return plan;
}

Result<core::PerformanceArchive> LoadArchive(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open archive " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return core::PerformanceArchive::FromJsonString(buffer.str());
}

// ----------------------------------------------------------- commands ----

Result<int> CmdRun(const Flags& flags, std::FILE* out, std::FILE* err) {
  std::string platform_name = flags.Get("platform", "giraph");
  algo::AlgorithmSpec spec;
  GRANULA_ASSIGN_OR_RETURN(spec.id,
                           algo::ParseAlgorithm(flags.Get("algorithm", "BFS")));
  NumericFlags nums(flags);
  spec.source = nums.Uint("source", 1, 0, UINT64_MAX);
  spec.max_iterations = nums.Uint("iterations", 10, 0, UINT64_MAX);
  cluster::ClusterConfig cluster_config;
  cluster_config.num_nodes =
      static_cast<uint32_t>(nums.Uint("nodes", 8, 0, UINT32_MAX));
  platform::JobConfig job_config;
  job_config.num_workers = static_cast<uint32_t>(
      nums.Uint("workers", cluster_config.num_nodes, 0, UINT32_MAX));
  job_config.live_log_path = flags.Get("live-log");
  job_config.live_log_delay_us =
      nums.Uint("live-log-delay-us", 0, 0, UINT64_MAX);
  GRANULA_ASSIGN_OR_RETURN(
      job_config.faults, ParseFaultFlags(flags, nums, job_config.num_workers,
                                         spec.max_iterations));
  core::Archiver::Options archiver_options;
  archiver_options.max_level =
      static_cast<int>(nums.Uint("model-level", 0, 0, INT_MAX));
  if (!nums.Ok(err, "run")) return kExitUsage;

  GRANULA_ASSIGN_OR_RETURN(core::PerformanceModel model,
                           platform::ModelForPlatform(platform_name));
  if (Status supported =
          platform::CheckPlatformSupports(platform_name, spec);
      !supported.ok()) {
    std::fprintf(err, "granula run: %s\n", supported.message().c_str());
    return kExitUsage;
  }
  if (flags.Has("slow-node")) {
    // Strictly validated: both fields must parse and the factor must be
    // positive. (strtoull/atof would quietly turn "abc:xyz" into "node 0
    // at factor 0.0" — a config typo silently zeroing a node's speed.)
    std::vector<std::string> parts = StrSplit(flags.Get("slow-node"), ':');
    if (parts.size() != 2) {
      std::fprintf(err, "granula run: --slow-node expects ID:FACTOR, got "
                        "'%s'\n", flags.Get("slow-node").c_str());
      return kExitUsage;
    }
    Result<uint64_t> node = ParseUint64(parts[0]);
    Result<double> factor = ParseFiniteDouble(parts[1]);
    if (!node.ok() || !factor.ok() || *factor <= 0) {
      std::fprintf(err,
                   "granula run: --slow-node expects an integer node id and "
                   "a positive speed factor, got '%s'\n",
                   flags.Get("slow-node").c_str());
      return kExitUsage;
    }
    if (*node >= cluster_config.num_nodes) {
      std::fprintf(err,
                   "granula run: --slow-node id %llu out of range (cluster "
                   "has %u nodes)\n",
                   static_cast<unsigned long long>(*node),
                   cluster_config.num_nodes);
      return kExitUsage;
    }
    cluster_config.node_speed_factors.assign(cluster_config.num_nodes, 1.0);
    cluster_config.node_speed_factors[*node] = *factor;
  }

  GRANULA_ASSIGN_OR_RETURN(
      graph::Graph graph,
      graph::GraphFromSpec(flags.Get("graph", "datagen:20000")));
  GRANULA_ASSIGN_OR_RETURN(
      platform::JobResult result,
      platform::RunForPlatform(platform_name, graph, spec, cluster_config,
                               job_config));

  if (flags.Has("log-out")) {
    GRANULA_RETURN_IF_ERROR(
        core::WriteLogRecords(flags.Get("log-out"), result.records));
    std::fprintf(out, "raw platform log written to %s\n",
                 flags.Get("log-out").c_str());
  }

  GRANULA_ASSIGN_OR_RETURN(
      core::PerformanceArchive archive,
      core::Archiver(archiver_options)
          .Build(model, result.records, std::move(result.environment),
                 {{"platform", platform_name},
                  {"algorithm", flags.Get("algorithm", "BFS")},
                  {"graph", flags.Get("graph", "datagen:20000")}}));

  std::fprintf(out, "%s", core::RenderBreakdownBar(archive).c_str());
  std::fprintf(out,
               "supersteps/iterations: %llu   virtual time: %.2fs   "
               "operations archived: %llu\n",
               static_cast<unsigned long long>(result.supersteps),
               result.total_seconds,
               static_cast<unsigned long long>(archive.OperationCount()));
  if (!job_config.faults.empty()) {
    std::fprintf(out,
                 "fault injection: %llu failed attempt(s), %llu restart(s), "
                 "%.2fs lost to recovery%s\n",
                 static_cast<unsigned long long>(result.failed_attempts),
                 static_cast<unsigned long long>(result.restarts),
                 result.lost_seconds,
                 result.completed
                     ? ""
                     : "; job did NOT complete (retries exhausted), archive "
                       "status is incomplete");
  }

  if (flags.Has("save-repo")) {
    core::ArchiveRepository repo(flags.Get("save-repo"));
    GRANULA_ASSIGN_OR_RETURN(std::string saved, repo.Save(archive));
    std::fprintf(out, "archive saved to repository as '%s'\n", saved.c_str());
  }
  if (flags.Has("archive-out")) {
    std::ofstream file(flags.Get("archive-out"));
    if (!file) {
      return Status::IoError("cannot write " + flags.Get("archive-out"));
    }
    file << archive.ToJsonString();
    std::fprintf(out, "archive written to %s\n",
                 flags.Get("archive-out").c_str());
  }
  if (flags.Has("html-out")) {
    core::ReportOptions report_options;
    report_options.title = platform_name + " " +
                           flags.Get("algorithm", "BFS") + " on " +
                           flags.Get("graph", "datagen:20000");
    report_options.chokepoint_options.cluster_cpu_capacity =
        static_cast<double>(cluster_config.num_nodes) *
        cluster_config.cores_per_node;
    if (platform_name == "powergraph") {
      report_options.timeline_actor_type = "Rank";
      report_options.timeline_mission_type = "Gather";
    }
    GRANULA_RETURN_IF_ERROR(core::WriteHtmlReport(archive, report_options,
                                                  flags.Get("html-out")));
    std::fprintf(out, "HTML report written to %s\n",
                 flags.Get("html-out").c_str());
  }
  if (flags.Has("svg-prefix")) {
    std::string prefix = flags.Get("svg-prefix");
    (void)core::WriteSvgFile(prefix + "_breakdown.svg",
                             core::RenderBreakdownSvg(archive));
    (void)core::WriteSvgFile(prefix + "_utilization.svg",
                             core::RenderUtilizationSvg(archive));
    std::fprintf(out, "SVGs written to %s_{breakdown,utilization}.svg\n",
                 prefix.c_str());
  }
  return result.completed ? kExitOk : kExitFatal;
}

// granula bench — the sweep driver. Axes come from --config=FILE (the
// JSON form documented on SweepSpec::FromJson) and/or axis flags; flags
// override the config axis for axis. All config/axis mistakes are usage
// errors (exit 64); a failing regression gate is exit 2, like compare.
Result<int> CmdBench(const Flags& flags, std::FILE* out, std::FILE* err) {
  bench::SweepSpec spec;
  if (flags.Has("config")) {
    Result<bench::SweepSpec> loaded =
        bench::SweepSpec::FromJsonFile(flags.Get("config"));
    if (!loaded.ok()) {
      std::fprintf(err, "granula bench: %s\n",
                   loaded.status().message().c_str());
      return kExitUsage;
    }
    spec = std::move(*loaded);
  }

  // Comma-splittable axes (their values never contain commas).
  auto csv = [&flags](const std::string& name) {
    std::vector<std::string> values;
    for (const std::string& one : flags.GetAll(name)) {
      for (const std::string& part : StrSplit(one, ',')) {
        if (!part.empty()) values.push_back(part);
      }
    }
    return values;
  };
  if (flags.Has("platforms")) spec.platforms = csv("platforms");
  if (flags.Has("algorithms")) spec.algorithms = csv("algorithms");
  // Graph specs contain commas ("uniform:500,2000"), so each --graphs
  // flag is exactly one spec; same for --faults (NAME=SPEC, SPEC may be a
  // comma-separated plan).
  if (flags.Has("graphs")) spec.graphs = flags.GetAll("graphs");
  if (flags.Has("nodes")) {
    spec.node_counts.clear();
    for (const std::string& part : csv("nodes")) {
      Result<uint64_t> nodes = ParseUint64(part);
      if (!nodes.ok() || *nodes == 0) {
        std::fprintf(err,
                     "granula bench: --nodes expects positive integers, got "
                     "'%s'\n", part.c_str());
        return kExitUsage;
      }
      spec.node_counts.push_back(static_cast<uint32_t>(*nodes));
    }
  }
  if (flags.Has("faults")) {
    spec.faults.clear();
    for (const std::string& one : flags.GetAll("faults")) {
      size_t eq = one.find('=');
      if (eq == 0 || eq == std::string::npos) {
        std::fprintf(err,
                     "granula bench: --faults expects NAME=SPEC (e.g. "
                     "crash2=crash:2:1), got '%s'\n", one.c_str());
        return kExitUsage;
      }
      spec.faults.push_back({one.substr(0, eq), one.substr(eq + 1)});
    }
  }
  NumericFlags nums(flags);
  spec.iterations = nums.Uint("iterations", spec.iterations, 0, UINT64_MAX);
  spec.source = static_cast<int64_t>(
      nums.Uint("source", static_cast<uint64_t>(spec.source), 0, INT64_MAX));
  spec.max_attempts = static_cast<uint32_t>(
      nums.Uint("max-attempts", spec.max_attempts, 0, UINT32_MAX));
  spec.checkpoint_interval = nums.Uint(
      "checkpoint-interval", spec.checkpoint_interval, 0, UINT64_MAX);
  spec.model_level = static_cast<int>(
      nums.Uint("model-level", static_cast<uint64_t>(spec.model_level), 0,
                INT_MAX));
  // --depth cuts the regression gate's flatten tables.
  const int depth = static_cast<int>(nums.Uint("depth", 0, 0, INT_MAX));
  core::RegressionOptions regression_options;
  regression_options.tolerance = nums.NonNegative("tolerance", 0.10);
  regression_options.max_depth = depth;
  if (!nums.Ok(err, "bench")) return kExitUsage;

  bench::SweepOptions options;
  options.repo_dir = flags.Get("repo", "sweep-archives");

  // Expand first: every axis typo surfaces as a usage error before any
  // job has run.
  Result<std::vector<bench::SweepJob>> jobs = bench::ExpandSweep(spec);
  if (!jobs.ok()) {
    std::fprintf(err, "granula bench: %s\n", jobs.status().message().c_str());
    return kExitUsage;
  }

  std::fprintf(out, "sweep: %zu job(s) -> repository %s\n", jobs->size(),
               options.repo_dir.c_str());
  GRANULA_ASSIGN_OR_RETURN(bench::SweepResult sweep,
                           bench::RunSweep(spec, options, out));
  if (!sweep.all_completed) {
    std::fprintf(out, "note: some jobs did not complete (retries "
                      "exhausted); their archives are incomplete\n");
  }

  // The archives are reduced by zero-copy scans (ScanSweepSummaries):
  // bodies are mmap'd and columnar-walked in place, nothing below the
  // summary is ever materialized.
  core::ArchiveRepository repo(options.repo_dir);
  GRANULA_ASSIGN_OR_RETURN(std::vector<core::SweepSummary> entries,
                           core::ScanSweepSummaries(repo, depth));
  std::string report =
      core::RenderComparativeReport(core::BuildComparativeReport(entries));
  std::fprintf(out, "\n%s", report.c_str());
  if (flags.Has("report-out")) {
    std::ofstream file(flags.Get("report-out"));
    if (!file) {
      return Status::IoError("cannot write " + flags.Get("report-out"));
    }
    file << report;
    std::fprintf(out, "comparative report written to %s\n",
                 flags.Get("report-out").c_str());
  }

  if (!flags.Has("baseline")) return kExitOk;

  // Regression gate: candidate sweep vs. the committed baseline sweep.
  // Both a measured regression and a job missing from the candidate fail
  // the gate — a sweep that silently stops covering a baseline job must
  // not pass CI.
  core::ArchiveRepository baseline_repo(flags.Get("baseline"));
  GRANULA_ASSIGN_OR_RETURN(std::vector<core::SweepSummary> baseline_entries,
                           core::ScanSweepSummaries(baseline_repo, depth));
  core::SweepRegressionSummary summary = core::CompareSweepSummaries(
      baseline_entries, entries, regression_options);
  std::fprintf(out, "\n%s",
               core::RenderSweepRegressionSummary(summary).c_str());
  bool gate_failed = summary.HasRegressions() || !summary.missing.empty();
  return gate_failed ? kExitRegressions : kExitOk;
}

Result<int> CmdLint(const Flags& flags, std::FILE* out) {
  if (!flags.Has("log")) {
    return Status::InvalidArgument(
        "lint requires --log=FILE (JSONL, see run --log-out)");
  }
  GRANULA_ASSIGN_OR_RETURN(std::vector<core::LogRecord> records,
                           core::ReadLogRecords(flags.Get("log")));

  core::LintReport report = core::LintLog(records);
  std::fprintf(out, "%zu record(s) in %s\n%s\n", records.size(),
               flags.Get("log").c_str(), report.Summary().c_str());

  if (flags.Has("model") || flags.Has("archive-out")) {
    if (!flags.Has("model")) {
      return Status::InvalidArgument("--archive-out requires --model=NAME");
    }
    core::Archiver::Options options;
    std::string tolerance = flags.Get("tolerance", "repair");
    if (tolerance == "strict") {
      options.tolerance = core::Archiver::Tolerance::kStrict;
    } else if (tolerance == "repair") {
      options.tolerance = core::Archiver::Tolerance::kRepair;
    } else {
      return Status::InvalidArgument("unknown --tolerance '" + tolerance +
                                     "' (want strict|repair)");
    }
    GRANULA_ASSIGN_OR_RETURN(core::PerformanceModel model,
                             ModelByName(flags.Get("model")));
    GRANULA_ASSIGN_OR_RETURN(
        core::PerformanceArchive archive,
        core::Archiver(options).Build(model, records, {},
                                      {{"source_log", flags.Get("log")}}));
    std::fprintf(out,
                 "archive built: %llu operation(s), %zu finding(s) "
                 "quarantined\n",
                 static_cast<unsigned long long>(archive.OperationCount()),
                 archive.lint.findings.size());
    if (flags.Has("archive-out")) {
      std::ofstream file(flags.Get("archive-out"));
      if (!file) {
        return Status::IoError("cannot write " + flags.Get("archive-out"));
      }
      file << archive.ToJsonString();
      std::fprintf(out, "repaired archive written to %s\n",
                   flags.Get("archive-out").c_str());
    }
  }
  return report.HasFatal() ? kExitFatalLint : kExitOk;
}

Result<int> CmdAnalyze(const Flags& flags, std::FILE* out, std::FILE* err) {
  if (!flags.Has("archive")) {
    return Status::InvalidArgument("analyze requires --archive=FILE");
  }
  NumericFlags nums(flags);
  core::ChokepointOptions options;
  options.cluster_cpu_capacity = nums.NonNegative("capacity", 128.0);
  if (!nums.Ok(err, "analyze")) return kExitUsage;
  GRANULA_ASSIGN_OR_RETURN(core::PerformanceArchive archive,
                           LoadArchive(flags.Get("archive")));
  std::fprintf(out, "%s\n", core::RenderBreakdownBar(archive).c_str());
  std::fprintf(out, "%s",
               core::RenderFindings(core::AnalyzeChokepoints(archive, options))
                   .c_str());
  return kExitOk;
}

Result<int> CmdCompare(const Flags& flags, std::FILE* out, std::FILE* err) {
  if (!flags.Has("baseline") || !flags.Has("candidate")) {
    return Status::InvalidArgument(
        "compare requires --baseline=FILE --candidate=FILE");
  }
  NumericFlags nums(flags);
  core::RegressionOptions options;
  options.tolerance = nums.NonNegative("tolerance", 0.10);
  options.max_depth = static_cast<int>(nums.Uint("depth", 0, 0, INT_MAX));
  if (!nums.Ok(err, "compare")) return kExitUsage;
  GRANULA_ASSIGN_OR_RETURN(core::PerformanceArchive baseline,
                           LoadArchive(flags.Get("baseline")));
  GRANULA_ASSIGN_OR_RETURN(core::PerformanceArchive candidate,
                           LoadArchive(flags.Get("candidate")));
  core::RegressionReport report =
      core::CompareArchives(baseline, candidate, options);
  std::fprintf(out, "%s", core::RenderRegressionReport(report).c_str());
  if (flags.Has("svg-out")) {
    GRANULA_RETURN_IF_ERROR(core::WriteSvgFile(
        flags.Get("svg-out"), core::RenderComparisonSvg(baseline, candidate)));
    std::fprintf(out, "comparison SVG written to %s\n",
                 flags.Get("svg-out").c_str());
  }
  return report.HasRegressions() ? kExitRegressions : kExitOk;
}

Result<int> CmdWatch(const Flags& flags, std::FILE* out, std::FILE* err) {
  if (!flags.Has("log")) {
    return Status::InvalidArgument(
        "watch requires --log=FILE (the JSONL live log of a running job, "
        "see run --live-log)");
  }
  GRANULA_ASSIGN_OR_RETURN(core::PerformanceModel model,
                           ModelByName(flags.Get("model", "giraph")));
  core::WatchOptions options;
  NumericFlags nums(flags);
  options.log_path = flags.Get("log");
  options.timeout_s = nums.NonNegative("timeout", 30.0);
  options.max_depth = static_cast<int>(nums.Uint("depth", 3, 0, INT_MAX));
  options.ansi = flags.Has("ansi");
  options.quiet = flags.Has("quiet");
  options.alert_jsonl_path = flags.Get("alert-log");
  options.fleet.poll_interval_ms = nums.NonNegative("poll-ms", 50.0);
  options.fleet.stall_timeout_s = nums.NonNegative("stall-timeout", 0.0);
  options.fleet.archiver.max_level =
      static_cast<int>(nums.Uint("model-level", 0, 0, INT_MAX));
  options.fleet.chokepoints.cluster_cpu_capacity = nums.NonNegative(
      "capacity", options.fleet.chokepoints.cluster_cpu_capacity);
  if (!nums.Ok(err, "watch")) return kExitUsage;
  GRANULA_ASSIGN_OR_RETURN(core::WatchSummary summary,
                           core::WatchLog(model, options, out));
  if (flags.Has("archive-out") && summary.archive.root != nullptr) {
    std::ofstream file(flags.Get("archive-out"));
    if (!file) {
      return Status::IoError("cannot write " + flags.Get("archive-out"));
    }
    file << summary.archive.ToJsonString();
    std::fprintf(out, "archive written to %s\n",
                 flags.Get("archive-out").c_str());
  }
  return summary.completed ? kExitOk : kExitWatchTimeout;
}

std::string FormatSavedTime(int64_t unix_seconds) {
  if (unix_seconds <= 0) return "-";
  std::time_t t = static_cast<std::time_t>(unix_seconds);
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &t);
#else
  gmtime_r(&t, &tm_utc);
#endif
  char buf[24];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M", &tm_utc);
  return buf;
}

void PrintEntryTable(const std::vector<core::ArchiveRepository::Entry>& entries,
                     std::FILE* out) {
  std::fprintf(out, "%-28s %-12s %-10s %-10s %10s %10s  %-16s %s\n", "name",
               "platform", "algorithm", "status", "total", "ops",
               "saved (UTC)", "fmt");
  for (const auto& entry : entries) {
    std::fprintf(
        out, "%-28s %-12s %-10s %-10s %9.2fs %10llu  %-16s %s\n",
        entry.name.c_str(), entry.platform.c_str(), entry.algorithm.c_str(),
        entry.status.c_str(), entry.total_seconds,
        static_cast<unsigned long long>(entry.operations),
        FormatSavedTime(entry.saved_unix_seconds).c_str(),
        std::string(core::ArchiveFormatName(entry.format)).c_str());
  }
}

Result<int> CmdList(const Flags& flags, std::FILE* out) {
  core::ArchiveRepository repo(flags.Get("repo", "."));
  GRANULA_ASSIGN_OR_RETURN(auto entries, repo.List());
  PrintEntryTable(entries, out);
  return kExitOk;
}

// granula pack — one-way import of a repository written by an older
// granula: every JSON archive body becomes GBA and the index is rewritten.
// JSON leaves a repository one archive at a time, via `query --name`.
Result<int> CmdPack(const Flags& flags, std::FILE* out, std::FILE* err) {
  if (!flags.Has("repo")) {
    return Status::InvalidArgument("pack requires --repo=DIR");
  }
  const std::string to = flags.Get("to", "gba");
  if (to != "gba") {
    std::fprintf(err,
                 "granula pack: --to=%s is not supported; GBA is the only "
                 "repository body format (export one archive as JSON with "
                 "'granula query --repo=DIR --name=NAME')\n",
                 to.c_str());
    return kExitUsage;
  }
  core::ArchiveRepository repo(flags.Get("repo"));
  GRANULA_ASSIGN_OR_RETURN(core::ArchiveRepository::PackStats stats,
                           repo.Pack());
  std::fprintf(out,
               "packed %s: %zu archive(s) converted to gba (%zu already "
               "there), %llu -> %llu bytes\n",
               flags.Get("repo").c_str(), stats.converted, stats.skipped,
               static_cast<unsigned long long>(stats.bytes_before),
               static_cast<unsigned long long>(stats.bytes_after));
  return kExitOk;
}

// granula query — the index/partial-load reader. Without --name, filters
// the repository index (no archive body is opened); with --name, prints
// the archive as JSON (the export form), one subtree (--path, decoded
// without touching the rest of the body), or the quarantine findings
// (--findings).
Result<int> CmdQuery(const Flags& flags, std::FILE* out, std::FILE* err) {
  if (!flags.Has("repo")) {
    return Status::InvalidArgument(
        "query requires --repo=DIR (a repository made by bench/run "
        "--save-repo)");
  }
  core::ArchiveRepository repo(flags.Get("repo"));
  if (flags.Has("name")) {
    const std::string name = flags.Get("name");
    if (flags.Has("path")) {
      GRANULA_ASSIGN_OR_RETURN(auto subtree,
                               repo.FetchSubtree(name, flags.Get("path")));
      const std::string format = flags.Get("format", "json");
      if (format == "gba") {
        // Raw GBA subtree bytes — the same serialization the serve
        // daemon's content negotiation emits.
        if (!flags.Has("out")) {
          std::fprintf(err,
                       "granula query: --format=gba writes binary bytes and "
                       "requires --out=FILE\n");
          return kExitUsage;
        }
        const std::string bytes = core::EncodeGbaSubtree(*subtree);
        std::ofstream file(flags.Get("out"),
                           std::ios::binary | std::ios::trunc);
        if (!file || !file.write(bytes.data(),
                                 static_cast<std::streamsize>(bytes.size()))) {
          return Status::IoError("cannot write " + flags.Get("out"));
        }
        std::fprintf(out, "wrote %zu GBA byte(s) to %s\n", bytes.size(),
                     flags.Get("out").c_str());
        return kExitOk;
      }
      if (format != "json") {
        std::fprintf(err,
                     "granula query: unknown --format '%s' (json|gba)\n",
                     format.c_str());
        return kExitUsage;
      }
      std::fprintf(out, "%s\n", subtree->ToJson().Dump(2).c_str());
      return kExitOk;
    }
    if (flags.Has("findings")) {
      // Level-1 load: metadata + lint without decoding the tree.
      GRANULA_ASSIGN_OR_RETURN(core::PerformanceArchive archive,
                               repo.Load(name, 1));
      std::fprintf(out, "%s\n", archive.lint.ToJson().Dump(2).c_str());
      return kExitOk;
    }
    GRANULA_ASSIGN_OR_RETURN(core::PerformanceArchive archive,
                             repo.Load(name));
    std::fprintf(out, "%s\n", archive.ToJsonString().c_str());
    return kExitOk;
  }
  core::ArchiveRepository::Query query;
  query.platform = flags.Get("platform");
  query.algorithm = flags.Get("algorithm");
  query.status = flags.Get("status");
  NumericFlags nums(flags);
  query.saved_since =
      static_cast<int64_t>(nums.Uint("since", 0, 0, INT64_MAX));
  query.saved_until =
      static_cast<int64_t>(nums.Uint("until", 0, 0, INT64_MAX));
  if (!nums.Ok(err, "query")) return kExitUsage;
  GRANULA_ASSIGN_OR_RETURN(auto entries, repo.Select(query));
  PrintEntryTable(entries, out);
  return kExitOk;
}

// The daemons (serve, fleet, feed) run until SIGINT/SIGTERM, then drain.
std::atomic<bool> g_serve_stop{false};

void ServeSignalHandler(int) {
  g_serve_stop.store(true, std::memory_order_release);
}

// Blocks until SIGINT or SIGTERM arrives, then restores the default
// handlers.
void WaitForStopSignal() {
  g_serve_stop.store(false, std::memory_order_release);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  while (!g_serve_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
}

// granula serve — the embedded HTTP daemon over an archive repository.
// Runs until SIGINT/SIGTERM, then drains gracefully. Exit 64 on bad
// flags, 1 when the address cannot be bound or the repository is
// unreadable.
Result<int> CmdServe(const Flags& flags, std::FILE* out, std::FILE* err) {
  const std::string root = flags.Get("root", flags.Get("repo"));
  if (root.empty()) {
    std::fprintf(err,
                 "granula serve: --root=DIR (the archive repository to "
                 "serve) is required\n");
    return kExitUsage;
  }

  serve::ServerOptions options;
  NumericFlags nums(flags);
  options.host = flags.Get("host", "127.0.0.1");
  options.port = static_cast<int>(nums.Uint("port", 8080, 0, 65535));
  options.threads = static_cast<int>(nums.Uint("threads", 0, 0, 1024));
  options.timeout_ms =
      static_cast<int>(nums.Uint("timeout-ms", 5000, 1, 3600000));
  if (!nums.Ok(err, "serve")) return kExitUsage;

  core::ArchiveRepository repo(root);
  Result<std::vector<core::ArchiveRepository::Entry>> entries = repo.List();
  if (!entries.ok()) {
    std::fprintf(err, "granula serve: cannot read repository %s: %s\n",
                 root.c_str(), entries.status().ToString().c_str());
    return kExitFatal;
  }

  serve::ArchiveService service(&repo, serve::ServiceOptions{});
  serve::HttpServer server(&service, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(err, "granula serve: %s\n", started.ToString().c_str());
    return kExitFatal;
  }

  std::fprintf(out,
               "granula serve: %zu archive(s) from %s on http://%s:%d/ "
               "(Ctrl-C drains)\n",
               entries->size(), root.c_str(), options.host.c_str(),
               server.port());
  std::fflush(out);

  WaitForStopSignal();

  std::fprintf(out, "granula serve: draining...\n");
  std::fflush(out);
  server.Stop();
  std::fprintf(out, "granula serve: stopped\n");
  return kExitOk;
}

// --source=NAME=file:PATH or NAME=tcp://HOST:PORT[/PATH]. A TCP source
// follows the feed over HTTP, GETting PATH (default "/") with a Range
// header that carries its resume offset.
Result<std::pair<std::string, std::unique_ptr<core::RecordSource>>>
ParseSourceSpec(const std::string& spec, int reconnect_budget) {
  auto bad = [&spec](const std::string& why) {
    return Status::InvalidArgument(
        "bad --source '" + spec + "'" + why +
        " (expected NAME=file:PATH or NAME=tcp://HOST:PORT[/PATH])");
  };
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) return bad("");
  const std::string target = spec.substr(eq + 1);
  std::unique_ptr<core::RecordSource> source;
  if (StartsWith(target, "file:")) {
    if (target.size() == 5) return bad(": empty file path");
    source = std::make_unique<core::FileRecordSource>(target.substr(5));
  } else {
    Result<serve::HttpUrl> url =
        serve::ParseHttpUrl(target, "tcp://", /*default_port=*/0);
    if (!url.ok()) return bad(": " + url.status().message());
    serve::TcpRecordSource::Options options;
    options.host = url->host;
    options.port = url->port;
    options.path = url->path;
    options.disconnect_budget = reconnect_budget;
    source = std::make_unique<serve::TcpRecordSource>(std::move(options));
  }
  return std::make_pair(spec.substr(0, eq), std::move(source));
}

// granula fleet — the multi-job supervisor daemon: follows streamed logs
// (push over HTTP, pull over TCP/file), assembles one archive per job,
// raises alerts through fault-hardened sinks, and finalizes everything
// into --root on SIGINT. Exit 64 on bad flags, 1 when the address cannot
// be bound.
Result<int> CmdFleet(const Flags& flags, std::FILE* out, std::FILE* err) {
  const std::string root = flags.Get("root", flags.Get("repo"));
  if (root.empty()) {
    std::fprintf(err,
                 "granula fleet: --root=DIR (where finalized archives "
                 "land) is required\n");
    return kExitUsage;
  }

  NumericFlags nums(flags);
  serve::ServerOptions server_options;
  server_options.host = flags.Get("host", "127.0.0.1");
  server_options.port = static_cast<int>(nums.Uint("port", 8090, 0, 65535));
  server_options.threads = static_cast<int>(nums.Uint("threads", 0, 0, 1024));
  server_options.timeout_ms =
      static_cast<int>(nums.Uint("timeout-ms", 5000, 1, 3600000));
  core::FleetOptions fleet_options;
  fleet_options.queue_capacity =
      static_cast<size_t>(nums.Uint("queue-cap", 8192, 0, SIZE_MAX));
  fleet_options.stall_timeout_s = nums.NonNegative("stall-timeout", 0);
  fleet_options.poll_interval_ms = nums.NonNegative("poll-ms", 20);
  core::RetrySinkOptions retry_options;
  retry_options.max_attempts =
      static_cast<uint32_t>(nums.Uint("alert-retries", 4, 0, UINT32_MAX));
  retry_options.dead_letter_path = flags.Get("dead-letter");
  const int alert_timeout_ms =
      static_cast<int>(nums.Uint("alert-timeout-ms", 1000, 0, INT_MAX));
  const int reconnect_budget =
      static_cast<int>(nums.Uint("reconnect-budget", 8, 0, INT_MAX));
  if (!nums.Ok(err, "fleet")) return kExitUsage;

  GRANULA_ASSIGN_OR_RETURN(core::PerformanceModel default_model,
                           ModelByName(flags.Get("model", "giraph")));

  fleet_options.repo_dir = root;
  fleet_options.model_resolver = &ModelByName;
  core::FleetSupervisor fleet(std::move(default_model),
                              std::move(fleet_options));

  // Alert sinks: hardened webhook / command-hook deliveries plus an
  // optional local JSONL log. Delivery counters surface on /stats.
  std::vector<std::shared_ptr<core::RetryingAlertSink>> retry_sinks;
  for (const std::string& url : flags.GetAll("webhook")) {
    Result<std::unique_ptr<serve::WebhookDelivery>> delivery =
        serve::WebhookDelivery::Open(url, alert_timeout_ms);
    if (!delivery.ok()) {
      std::fprintf(err, "granula fleet: bad --webhook '%s': %s\n",
                   url.c_str(), delivery.status().ToString().c_str());
      return kExitUsage;
    }
    retry_sinks.push_back(std::make_shared<core::RetryingAlertSink>(
        std::move(delivery).value(), retry_options));
  }
  if (flags.Has("alert-cmd")) {
    retry_sinks.push_back(std::make_shared<core::RetryingAlertSink>(
        std::make_unique<core::CommandDelivery>(flags.Get("alert-cmd")),
        retry_options));
  }
  for (const std::shared_ptr<core::RetryingAlertSink>& sink : retry_sinks) {
    fleet.AddAlertSink(sink);
  }
  if (flags.Has("alert-log")) {
    GRANULA_ASSIGN_OR_RETURN(
        std::unique_ptr<core::JsonlAlertSink> jsonl,
        core::JsonlAlertSink::Open(flags.Get("alert-log")));
    fleet.AddAlertSink(std::shared_ptr<core::AlertSink>(std::move(jsonl)));
  }

  for (const std::string& spec : flags.GetAll("source")) {
    auto source = ParseSourceSpec(spec, reconnect_budget);
    if (!source.ok()) {
      std::fprintf(err, "granula fleet: %s\n",
                   source.status().ToString().c_str());
      return kExitUsage;
    }
    Status added = fleet.AddSource(source->first, std::move(source->second));
    if (!added.ok()) return added;
  }

  core::ArchiveRepository repo(root);
  serve::ArchiveService archives(&repo, serve::ServiceOptions{});
  serve::FleetService service(&fleet, &archives);
  for (const std::shared_ptr<core::RetryingAlertSink>& sink : retry_sinks) {
    service.AddSinkStats(sink);
  }

  GRANULA_RETURN_IF_ERROR(fleet.Start());
  serve::HttpServer server(&service, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    fleet.Drain();
    std::fprintf(err, "granula fleet: %s\n", started.ToString().c_str());
    return kExitFatal;
  }

  std::fprintf(out,
               "granula fleet: supervising on http://%s:%d/ into %s "
               "(Ctrl-C drains)\n",
               server_options.host.c_str(), server.port(), root.c_str());
  std::fflush(out);

  WaitForStopSignal();

  std::fprintf(out, "granula fleet: draining...\n");
  std::fflush(out);
  // Stop ingest first so the drain sees a quiesced queue, then finalize
  // every open job into the repository and flush the sinks.
  server.Stop();
  fleet.Drain();

  core::FleetSupervisor::Stats stats = fleet.stats();
  std::fprintf(out,
               "granula fleet: %llu job(s) — %llu complete, %llu "
               "incomplete; %llu record(s), %llu alert(s)\n",
               static_cast<unsigned long long>(stats.jobs),
               static_cast<unsigned long long>(stats.complete),
               static_cast<unsigned long long>(stats.incomplete),
               static_cast<unsigned long long>(stats.records),
               static_cast<unsigned long long>(stats.alerts));
  for (const std::shared_ptr<core::RetryingAlertSink>& sink : retry_sinks) {
    core::RetryingAlertSink::Stats delivery = sink->stats();
    std::fprintf(out,
                 "granula fleet: sink %s — delivered %llu, dead-lettered "
                 "%llu\n",
                 sink->describe().c_str(),
                 static_cast<unsigned long long>(delivery.delivered),
                 static_cast<unsigned long long>(delivery.dead_lettered));
  }
  return kExitOk;
}

// granula feed — serves a JSONL log file to TcpRecordSource followers
// over HTTP (chunked, resumable with Range). Exit 64 on bad flags, 1 when
// the address cannot be bound.
Result<int> CmdFeed(const Flags& flags, std::FILE* out, std::FILE* err) {
  const std::string log = flags.Get("log");
  if (log.empty()) {
    std::fprintf(err,
                 "granula feed: --log=PATH (the JSONL log to serve) is "
                 "required\n");
    return kExitUsage;
  }
  NumericFlags nums(flags);
  serve::LogFeedService feed(log, nums.NonNegative("poll-ms", 5));
  // Constants, not flags: 32 followers at once, and a follower that stops
  // reading for 2 s is dropped.
  serve::ServerOptions options;
  options.host = flags.Get("host", "127.0.0.1");
  options.port = static_cast<int>(nums.Uint("port", 7070, 0, 65535));
  options.threads = 32;
  options.timeout_ms = 2000;
  if (!nums.Ok(err, "feed")) return kExitUsage;

  serve::HttpServer server(&feed, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(err, "granula feed: %s\n", started.ToString().c_str());
    return kExitFatal;
  }
  std::fprintf(out, "granula feed: serving %s on %s:%d (Ctrl-C stops)\n",
               log.c_str(), options.host.c_str(), server.port());
  std::fflush(out);

  WaitForStopSignal();
  server.Stop();
  std::fprintf(out, "granula feed: stopped\n");
  return kExitOk;
}

Result<int> CmdModel(const Flags& flags, std::FILE* out) {
  GRANULA_ASSIGN_OR_RETURN(core::PerformanceModel model,
                           ModelByName(flags.Get("name", "giraph")));
  std::fprintf(out, "%s", core::RenderModelTree(model).c_str());
  return kExitOk;
}

}  // namespace

int RunGranula(const std::vector<std::string>& args, std::FILE* out,
               std::FILE* err) {
  if (args.empty()) {
    std::fprintf(err,
                 "usage: granula run|bench|lint|analyze|compare|watch|list|"
                 "query|pack|serve|fleet|feed|model|table1 [--flags]\n"
                 "       (see the header of tools/granula_cli.cc)\n");
    return kExitUsage;
  }
  const std::string& command = args[0];
  Result<Flags> flags = Flags::Parse(args);
  if (!flags.ok()) {
    std::fprintf(err, "%s\n", flags.status().message().c_str());
    return kExitUsage;
  }

  Result<int> code = Status::Internal("unset");
  if (command == "run") {
    code = CmdRun(*flags, out, err);
  } else if (command == "bench") {
    code = CmdBench(*flags, out, err);
  } else if (command == "lint") {
    code = CmdLint(*flags, out);
  } else if (command == "analyze") {
    code = CmdAnalyze(*flags, out, err);
  } else if (command == "compare") {
    code = CmdCompare(*flags, out, err);
  } else if (command == "watch") {
    code = CmdWatch(*flags, out, err);
  } else if (command == "list") {
    code = CmdList(*flags, out);
  } else if (command == "query") {
    code = CmdQuery(*flags, out, err);
  } else if (command == "pack") {
    code = CmdPack(*flags, out, err);
  } else if (command == "serve") {
    code = CmdServe(*flags, out, err);
  } else if (command == "fleet") {
    code = CmdFleet(*flags, out, err);
  } else if (command == "feed") {
    code = CmdFeed(*flags, out, err);
  } else if (command == "model") {
    code = CmdModel(*flags, out);
  } else if (command == "table1") {
    std::fprintf(out, "%s", platform::RenderPlatformTable().c_str());
    code = kExitOk;
  } else {
    std::fprintf(err, "unknown command '%s'\n", command.c_str());
    return kExitUsage;
  }

  if (!code.ok()) {
    std::fprintf(err, "granula: %s\n", code.status().ToString().c_str());
    return kExitFatal;
  }
  return *code;
}

}  // namespace granula::cli
