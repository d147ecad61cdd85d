#ifndef GRANULA_PLATFORMS_ENGINE_JOB_H_
#define GRANULA_PLATFORMS_ENGINE_JOB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/api.h"
#include "algorithms/gas.h"
#include "algorithms/pregel.h"
#include "cluster/cluster.h"
#include "cluster/monitor.h"
#include "common/result.h"
#include "granula/models/models.h"
#include "granula/monitor/job_logger.h"
#include "graph/graph.h"
#include "platforms/platform.h"
#include "sim/faults.h"
#include "sim/simulator.h"

namespace granula::platform {

// The job harness every simulated engine builds on. One instance runs one
// job in a private simulator. It owns what every engine shares — the
// simulated cluster, the environment monitor, the Granula logger, the fault
// injector and the attempt accounting — and writes out once the steps every
// engine repeats: Execute() and the job's root operation around the
// domain-level phases of paper Fig. 3 (Startup, LoadGraph, ProcessGraph,
// OffloadGraph, Cleanup). An engine supplies its input setup and the
// implementation levels below each phase.
class EngineJob {
 public:
  EngineJob(const graph::Graph& graph,
            const cluster::ClusterConfig& cluster_config,
            const JobConfig& job_config);
  virtual ~EngineJob() = default;
  EngineJob(const EngineJob&) = delete;
  EngineJob& operator=(const EngineJob&) = delete;

  // Checks the worker count, wires monitoring (log-write faults, live
  // streaming), runs Setup(), simulates the job and fills `out`.
  Status Execute(JobResult* out);

 protected:
  // Builds the job's inputs before the simulation starts: input files,
  // partitioning, adjacency, and whatever state the engine initializes
  // itself (GasJob resets its own per attempt).
  virtual Status Setup() = 0;
  // Mission id of the job's root operation ("GiraphJob").
  virtual const char* JobName() const = 0;
  // Everything under the root operation. The default runs the phases
  // once; abort-and-retry engines run failed attempts first.
  virtual sim::Task<> RunAttempts(core::OpId root) { return RunPhases(root); }

  virtual sim::Task<> RunStartup(core::OpId root) = 0;
  virtual sim::Task<> RunLoadGraph(core::OpId root) = 0;
  virtual sim::Task<> RunProcessGraph(core::OpId root) = 0;
  virtual sim::Task<> RunOffloadGraph(core::OpId root) = 0;
  virtual sim::Task<> RunCleanup(core::OpId root) = 0;

  // The five phases in order. A failure (job_failed_) stops the job after
  // the phase it struck in, leaving open whatever that phase left open.
  sim::Task<> RunPhases(core::OpId root);

  // Opens a Job-actor operation under `parent` (a phase when `mission_id`
  // is left empty, named like its type).
  core::OpId StartJobOperation(core::OpId parent, const char* mission_type,
                               std::string mission_id = "");

  // Runs `per_worker(w)` for every worker concurrently and joins them.
  sim::Task<> ForEachWorker(std::function<sim::Task<>(uint32_t)> per_worker);

  // In-place retries of a load-time read: every fault `fault_at(retry)`
  // returns costs its partial work plus a backoff, priced as a
  // FailedAttempt child of `parent` named `<name_prefix><retry + 1>`.
  // Resolves to false once the retry policy is exhausted, with job_failed_
  // set; the caller then closes its own operations.
  sim::Task<bool> RetryLoad(
      core::OpId parent, std::string actor_type, std::string actor_id,
      std::string name_prefix,
      std::function<const sim::FaultSpec*(uint32_t)> fault_at);

  const graph::Graph& graph_;
  // A copy: the logger's write-fault hook and the injector refer to its
  // fault plan for the whole run.
  JobConfig job_config_;
  const uint64_t input_bytes_;

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::EnvironmentMonitor monitor_;
  core::JobLogger logger_;
  sim::FaultInjector injector_;

  // Algorithm output and progress, reported in JobResult.
  std::vector<double> values_;
  uint64_t iteration_ = 0;

  // Attempt accounting. `job_attempt_` counts whole-job resubmissions; the
  // root gets an Attempts info when there were any.
  bool job_failed_ = false;
  uint32_t job_attempt_ = 0;
  uint64_t failed_attempts_ = 0;
  uint64_t restarts_ = 0;
  SimTime lost_time_;

 private:
  sim::Task<> Main();
};

// The program factory of each programming model.
template <typename Program>
Result<std::unique_ptr<Program>> MakeProgram(const algo::AlgorithmSpec& spec);
template <>
inline Result<std::unique_ptr<algo::PregelProgram>>
MakeProgram<algo::PregelProgram>(const algo::AlgorithmSpec& spec) {
  return algo::MakePregelProgram(spec);
}
template <>
inline Result<std::unique_ptr<algo::GasProgram>>
MakeProgram<algo::GasProgram>(const algo::AlgorithmSpec& spec) {
  return algo::MakeGasProgram(spec);
}

// The body of every XPlatform::Run: builds the engine's program, runs one
// `Job` (constructed from the cost model, `extra` engine options, graph,
// program and configs) and returns its result.
template <typename Job, typename Cost, typename... Extra>
Result<JobResult> RunEngineJob(const Cost& cost, const graph::Graph& graph,
                               const algo::AlgorithmSpec& spec,
                               const cluster::ClusterConfig& cluster_config,
                               const JobConfig& job_config,
                               const Extra&... extra) {
  GRANULA_ASSIGN_OR_RETURN(auto program,
                           MakeProgram<typename Job::Program>(spec));
  Job job(cost, extra..., graph, *program, cluster_config, job_config);
  JobResult result;
  GRANULA_RETURN_IF_ERROR(job.Execute(&result));
  return result;
}

}  // namespace granula::platform

#endif  // GRANULA_PLATFORMS_ENGINE_JOB_H_
