#include "graph/graph.h"

#include <mutex>

#include "common/strings.h"

namespace granula::graph {

// The graph's edge-derived values, each filled in once on first use.
struct Graph::Derived {
  std::once_flag csr_once;
  Csr csr;
  std::once_flag bytes_once;
  uint64_t edge_list_bytes = 0;
};

Graph::Graph() : derived_(std::make_shared<Derived>()) {}

Graph::Graph(uint64_t num_vertices, std::vector<Edge> edges, bool directed)
    : num_vertices_(num_vertices),
      edges_(std::move(edges)),
      directed_(directed),
      derived_(std::make_shared<Derived>()) {}

Result<Graph> Graph::Create(uint64_t num_vertices, std::vector<Edge> edges,
                            bool directed) {
  for (const Edge& e : edges) {
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      return Status::InvalidArgument(
          StrFormat("edge (%llu, %llu) out of range for %llu vertices",
                    static_cast<unsigned long long>(e.src),
                    static_cast<unsigned long long>(e.dst),
                    static_cast<unsigned long long>(num_vertices)));
    }
  }
  return Graph(num_vertices, std::move(edges), directed);
}

const Csr& Graph::UndirectedCsr() const {
  std::call_once(derived_->csr_once, [this] {
    derived_->csr = Csr::BuildUndirected(num_vertices_, edges_);
  });
  return derived_->csr;
}

namespace {

// Shared CSR construction (the two counting passes described at Csr).
// `emit(e, f)` calls f(from, to) for each arc the edge contributes.
template <typename EmitFn>
void BuildCsrArcs(uint64_t n, std::span<const Edge> edges, EmitFn emit,
                  std::vector<uint64_t>* offsets,
                  std::vector<VertexId>* targets) {
  offsets->assign(n + 1, 0);
  std::vector<uint64_t> group_end(n + 1, 0);
  for (const Edge& e : edges) {
    emit(e, [&](VertexId from, VertexId to) {
      ++(*offsets)[from + 1];
      ++group_end[to + 1];
    });
  }
  for (uint64_t v = 0; v < n; ++v) {
    (*offsets)[v + 1] += (*offsets)[v];
    group_end[v + 1] += group_end[v];
  }
  // group_end[t] starts as the first slot of t's group and, used as its
  // fill cursor, ends as the group's end.
  std::vector<VertexId> sources((*offsets)[n]);
  for (const Edge& e : edges) {
    emit(e, [&](VertexId from, VertexId to) {
      sources[group_end[to]++] = from;
    });
  }
  targets->resize((*offsets)[n]);
  std::vector<uint64_t> cursor(offsets->begin(), offsets->end() - 1);
  uint64_t i = 0;
  for (VertexId to = 0; to < n; ++to) {
    for (; i < group_end[to]; ++i) {
      (*targets)[cursor[sources[i]]++] = to;
    }
  }
}

}  // namespace

Csr Csr::Build(const Graph& graph, bool out) {
  if (!graph.directed()) return graph.UndirectedCsr();
  Csr csr;
  BuildCsrArcs(
      graph.num_vertices(), graph.edges(),
      [out](const Edge& e, auto&& arc) {
        if (out) {
          arc(e.src, e.dst);
        } else {
          arc(e.dst, e.src);
        }
      },
      &csr.offsets_, &csr.targets_);
  return csr;
}

Csr Csr::BuildUndirected(uint64_t num_vertices, std::span<const Edge> edges) {
  Csr csr;
  BuildCsrArcs(
      num_vertices, edges,
      [](const Edge& e, auto&& arc) {
        arc(e.src, e.dst);
        arc(e.dst, e.src);
      },
      &csr.offsets_, &csr.targets_);
  return csr;
}

namespace {

uint64_t DecimalDigits(uint64_t v) {
  uint64_t digits = 1;
  while (v >= 10) {
    v /= 10;
    ++digits;
  }
  return digits;
}

}  // namespace

uint64_t EdgeListFileBytes(const Graph& graph) {
  Graph::Derived& derived = *graph.derived_;
  std::call_once(derived.bytes_once, [&] {
    uint64_t bytes = 0;
    for (const Edge& e : graph.edges()) {
      bytes += DecimalDigits(e.src) + DecimalDigits(e.dst) + 2;  // ' ', '\n'
    }
    derived.edge_list_bytes = bytes;
  });
  return derived.edge_list_bytes;
}

uint64_t VertexListFileBytes(const Graph& graph) {
  uint64_t bytes = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    bytes += DecimalDigits(v) + 1;  // '\n'
  }
  return bytes;
}

}  // namespace granula::graph
