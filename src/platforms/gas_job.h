#ifndef GRANULA_PLATFORMS_GAS_JOB_H_
#define GRANULA_PLATFORMS_GAS_JOB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/gas.h"
#include "platforms/engine_job.h"
#include "sim/sync.h"

namespace granula::platform {

// The superstep driver shared by the engines that run GasPrograms
// (PowerGraph, GraphMat, PGX.D). All three are batch jobs with one worker
// per node, synchronous iterations and no checkpoints. The driver holds the
// vertex, accumulator and frontier state, resubmits a failed job from
// scratch, and runs the master iteration loop and each worker's process
// loop. An engine supplies its phases, the body of one worker's iteration,
// and two hooks around the loop.
class GasJob : public EngineJob {
 public:
  using Program = algo::GasProgram;

  // `worker_type` names the engine's worker actors ("Rank" -> "Rank-0").
  GasJob(const graph::Graph& graph, const algo::GasProgram& program,
         const cluster::ClusterConfig& cluster_config,
         const JobConfig& job_config, const char* worker_type);

 protected:
  // One worker's share of iteration `iteration_` under `iteration_op_`.
  // Workers meet at `stage_barrier_` between the iteration's stages.
  virtual sim::Task<> WorkerIteration(uint32_t worker) = 0;
  // Called right after the iteration operation opens.
  virtual void OnIterationStart() {}
  // Called after the driver's own between-iteration resets.
  virtual void OnIterationEnd() {}

  std::string WorkerActor(uint32_t worker) const;
  sim::Cpu& WorkerCpu(uint32_t worker) {
    return cluster_.node(worker).cpu();
  }

  // Folds `contribution` into the accumulator of `v` with the program's
  // Sum (the first contribution initializes it).
  void Accumulate(graph::VertexId v, double contribution) {
    if (acc_has_[v] != 0) {
      acc_[v] = program_.Sum(acc_[v], contribution);
    } else {
      acc_[v] = contribution;
      acc_has_[v] = 1;
    }
  }

  // Apply where a vertex is active only while its value changes (GraphMat,
  // PGX.D): applies every vertex of `owned` that is active or received a
  // contribution, and puts a vertex whose value changed and that asks to
  // scatter on the next frontier. Host-parallel over `owned`; counts merge
  // in chunk order.
  struct ApplyCounts {
    uint64_t applies = 0;
    // Summed `adjacency` degree of the newly activated vertices.
    uint64_t activated_degree = 0;
  };
  ApplyCounts ApplyChangedValues(const std::vector<graph::VertexId>& owned,
                                 const graph::Csr& adjacency);

  const algo::GasProgram& program_;
  const std::string worker_type_;

  sim::Barrier start_barrier_;
  sim::Barrier end_barrier_;
  sim::Barrier stage_barrier_;

  // Attempt-scoped algorithm state; inputs (partitions, adjacency) live in
  // the engine and survive restarts. The active-set sizes are maintained
  // incrementally instead of scanning all vertices.
  std::vector<uint8_t> active_, next_active_;
  std::vector<double> acc_;
  std::vector<uint8_t> acc_has_;
  uint64_t active_count_ = 0;
  uint64_t next_active_count_ = 0;

  core::OpId iteration_op_ = core::kNoOp;

 private:
  sim::Task<> RunAttempts(core::OpId root) override;
  sim::Task<> RunFailedAttempt(core::OpId root, const sim::FaultSpec& fault);
  sim::Task<> RunRestart(core::OpId root);
  void InitAlgorithmState();

  sim::Task<> RunProcessGraph(core::OpId root) override;
  sim::Task<> WorkerProcessLoop(uint32_t worker);

  bool process_done_ = false;
  // The doomed attempt in flight, if any.
  bool crash_pending_ = false;
  uint64_t crash_at_iteration_ = 0;
  uint32_t crash_worker_ = 0;
  SimTime crash_work_;
};

}  // namespace granula::platform

#endif  // GRANULA_PLATFORMS_GAS_JOB_H_
