#ifndef GRANULA_PLATFORMS_COST_MODEL_H_
#define GRANULA_PLATFORMS_COST_MODEL_H_

#include "common/sim_time.h"

namespace granula::platform {

// Virtual-time cost constants for the simulated platforms.
//
// Calibration methodology (see DESIGN.md): the constants below are inputs,
// fixed once, chosen so that the *reference workload* (BFS on the Datagen-
// like graph of bench/paper_numbers.cc, 8 nodes) lands near the paper's Fig. 5
// proportions. Everything else — per-superstep imbalance, the PowerGraph
// single-loader idle pattern, barrier waits — is emergent from structure,
// not tuned. The same constants drive every experiment and test.
//
// The per-byte/per-vertex magnitudes are larger than physical hardware
// costs because the simulated graph is ~100x smaller than dg1000; scaling
// unit costs up by the same factor preserves phase ratios while keeping
// runs laptop-fast.

struct GiraphCostModel {
  // LoadGraph: text parsing + vertex/edge object creation per input byte
  // (Java deserialization is the CPU-heavy load the paper observes in
  // Fig. 6).
  SimTime parse_cpu_per_byte = SimTime::Micros(440);
  // ProcessGraph.
  SimTime compute_per_vertex = SimTime::Micros(900);
  SimTime compute_per_message = SimTime::Micros(500);
  uint64_t bytes_per_message = 16;
  SimTime prestep_overhead = SimTime::Millis(120);
  SimTime poststep_overhead = SimTime::Millis(80);
  // OffloadGraph: serialize a result line per vertex.
  SimTime serialize_cpu_per_byte = SimTime::Micros(40);
  uint64_t result_bytes_per_vertex = 40;
  // Checkpoint (fault injection only): serialized vertex value + active
  // flag + pending messages written to HDFS every k supersteps.
  uint64_t checkpoint_bytes_per_vertex = 24;
  // Cleanup stages (paper Fig. 4 level 2).
  SimTime abort_workers = SimTime::Seconds(3.2);
  SimTime client_cleanup = SimTime::Seconds(1.8);
  SimTime server_cleanup = SimTime::Seconds(2.2);
  SimTime zk_cleanup = SimTime::Seconds(2.0);
};

struct PowerGraphCostModel {
  // LoadGraph: rank 0 parses the whole file sequentially (the Fig. 7
  // bottleneck); finalization builds the distributed graph in parallel.
  SimTime parse_cpu_per_byte = SimTime::Micros(160);
  SimTime finalize_cpu_per_edge = SimTime::Micros(2000);
  // ProcessGraph (GAS engine, C++: cheaper per unit than Giraph).
  SimTime gather_per_edge = SimTime::Micros(110);
  SimTime apply_per_vertex = SimTime::Micros(130);
  SimTime scatter_per_edge = SimTime::Micros(70);
  uint64_t bytes_per_sync = 12;  // master<->mirror accumulator/value sync
  SimTime iteration_overhead = SimTime::Millis(120);
  // OffloadGraph.
  SimTime serialize_cpu_per_byte = SimTime::Micros(2);
  uint64_t result_bytes_per_vertex = 12;
};

}  // namespace granula::platform

#endif  // GRANULA_PLATFORMS_COST_MODEL_H_
