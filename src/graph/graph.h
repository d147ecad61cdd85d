#ifndef GRANULA_GRAPH_GRAPH_H_
#define GRANULA_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"

namespace granula::graph {

using VertexId = uint64_t;

struct Edge {
  VertexId src;
  VertexId dst;

  bool operator==(const Edge&) const = default;
};

class Csr;

// An immutable graph held as an edge list. Vertices are dense ids in
// [0, num_vertices). Platform engines partition the edge list and build
// local adjacency, or traverse the graph's one shared UndirectedCsr().
//
// What depends only on the edges (the undirected CSR, the edge-list file
// size) is computed at most once per graph, on first use, and shared
// read-only by every caller on any thread and by every copy of the Graph.
// A moved-from Graph may only be assigned to or destroyed.
class Graph {
 public:
  Graph();

  // Validates that every endpoint is < num_vertices.
  static Result<Graph> Create(uint64_t num_vertices, std::vector<Edge> edges,
                              bool directed);

  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return edges_.size(); }
  bool directed() const { return directed_; }
  const std::vector<Edge>& edges() const { return edges_; }

  // Total vertices + edges, the "size" metric the paper uses for dg1000
  // ("1.03 billion vertices and edges").
  uint64_t scale() const { return num_vertices_ + num_edges(); }

  // Csr::BuildUndirected(num_vertices(), edges()), built on the first call
  // and shared from then on. Thread-safe.
  const Csr& UndirectedCsr() const;

 private:
  struct Derived;
  friend uint64_t EdgeListFileBytes(const Graph& graph);

  Graph(uint64_t num_vertices, std::vector<Edge> edges, bool directed);

  uint64_t num_vertices_ = 0;
  std::vector<Edge> edges_;
  bool directed_ = true;
  std::shared_ptr<Derived> derived_;
};

// Compressed sparse row adjacency built from a Graph. For undirected graphs
// each edge appears in both endpoints' neighbor lists. For directed graphs,
// `out` selects out- or in-neighbors. Every neighbor list is sorted (a
// parallel edge appears once per copy). Construction is two stable
// counting passes on the calling thread: arcs are grouped by target, then
// the groups are walked in target order and each arc is placed in its
// source's list, so the lists come out sorted with no atomics and no
// per-vertex sort, and the result never depends on the host-thread count.
class Csr {
 public:
  // An undirected graph's CSR is a copy of graph.UndirectedCsr().
  static Csr Build(const Graph& graph, bool out = true);

  // Adjacency of the *undirected view* of an edge set: both endpoints list
  // each other regardless of the graph's directedness. This is what the
  // platform engines traverse (they treat every input as undirected), and
  // it also builds per-partition adjacency from a partition's local edges.
  static Csr BuildUndirected(uint64_t num_vertices,
                             std::span<const Edge> edges);

  uint64_t num_vertices() const { return offsets_.size() - 1; }
  uint64_t num_arcs() const { return targets_.size(); }

  std::span<const VertexId> neighbors(VertexId v) const {
    return std::span<const VertexId>(targets_.data() + offsets_[v],
                                     targets_.data() + offsets_[v + 1]);
  }
  uint64_t degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

 private:
  std::vector<uint64_t> offsets_;  // size num_vertices + 1
  std::vector<VertexId> targets_;
};

// Size in bytes of the graph rendered as a whitespace-separated decimal
// edge-list text file ("src dst\n" per edge) — the format both simulated
// platforms read. Drives every simulated I/O duration. Computed once per
// graph and shared like UndirectedCsr().
uint64_t EdgeListFileBytes(const Graph& graph);

// Size in bytes of a vertex-list text file ("id\n" per vertex).
uint64_t VertexListFileBytes(const Graph& graph);

}  // namespace granula::graph

#endif  // GRANULA_GRAPH_GRAPH_H_
