#ifndef GRANULA_GRAPH_GENERATORS_H_
#define GRANULA_GRAPH_GENERATORS_H_

#include <cstdint>

#include "common/result.h"
#include "graph/graph.h"

namespace granula::graph {

// LDBC-Datagen-inspired synthetic social network. Reproduces the two
// structural properties the paper's experiment depends on:
//  * power-law degree distribution (Zipf-distributed expected degrees,
//    Chung-Lu edge sampling), and
//  * community structure with a small diameter (a fraction of edges stays
//    inside a vertex's community; the rest are global), so BFS exhibits the
//    explosive mid-run frontier of Fig. 8.
struct DatagenConfig {
  uint64_t num_vertices = 1000000;
  double avg_degree = 15.0;        // dg1000 is ~30M persons / ~1B edges
  double degree_exponent = 1.25;   // Zipf exponent of expected degrees
  double community_edge_fraction = 0.6;
  uint64_t seed = 42;
};
Result<Graph> GenerateDatagen(const DatagenConfig& config);

// R-MAT (Graph500-style) recursive generator.
struct RmatConfig {
  uint64_t scale = 16;  // num_vertices = 2^scale
  double edge_factor = 16.0;
  double a = 0.57, b = 0.19, c = 0.19;  // d = 1 - a - b - c
  uint64_t seed = 42;
};
Result<Graph> GenerateRmat(const RmatConfig& config);

// Erdős–Rényi G(n, m): `num_edges` uniform random edges (no self loops).
Result<Graph> GenerateUniform(uint64_t num_vertices, uint64_t num_edges,
                              uint64_t seed);

// Deterministic shapes used by tests and examples.
Graph MakePath(uint64_t n);        // 0-1-2-...-(n-1)
Graph MakeCycle(uint64_t n);
Graph MakeStar(uint64_t n);        // center 0, leaves 1..n-1
Graph MakeComplete(uint64_t n);
Graph MakeBinaryTree(uint64_t n);  // parent(i) = (i-1)/2
Graph MakeGrid(uint64_t rows, uint64_t cols);

}  // namespace granula::graph

#endif  // GRANULA_GRAPH_GENERATORS_H_
