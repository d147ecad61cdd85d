#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"

namespace granula::graph {

namespace {

// Samples an index from `cumulative` (a non-empty prefix-sum array of
// positive weights) proportionally to the underlying weights.
uint64_t SampleCumulative(const std::vector<double>& cumulative, Rng& rng) {
  double total = cumulative.back();
  double u = rng.NextDouble() * total;
  auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
  if (it == cumulative.end()) --it;
  return static_cast<uint64_t>(it - cumulative.begin());
}


// Independent per-chunk generator so edge sampling parallelizes: the stream
// depends only on (seed, chunk), never on the host-thread count.
Rng ChunkRng(uint64_t seed, uint64_t chunk) {
  uint64_t state = seed + 0x9e3779b97f4a7c15ull * (chunk + 1);
  return Rng(SplitMix64(state));
}

}  // namespace

Result<Graph> GenerateDatagen(const DatagenConfig& config) {
  if (config.num_vertices == 0) {
    return Status::InvalidArgument("num_vertices must be positive");
  }
  if (config.avg_degree <= 0) {
    return Status::InvalidArgument("avg_degree must be positive");
  }
  if (config.community_edge_fraction < 0 ||
      config.community_edge_fraction > 1) {
    return Status::InvalidArgument(
        "community_edge_fraction must be in [0, 1]");
  }
  const uint64_t n = config.num_vertices;
  Rng rng(config.seed);

  // Expected degree of vertex v: Zipf over a random permutation of ranks, so
  // high-degree hubs are spread over the id space (as Datagen's person ids
  // are).
  std::vector<uint64_t> rank(n);
  for (uint64_t v = 0; v < n; ++v) rank[v] = v + 1;
  rng.Shuffle(rank);

  // The pow() per vertex is pure, so it parallelizes without touching the
  // sequential sampling stream below; the sum stays sequential to keep its
  // floating-point fold order (and thus the generated graph) unchanged.
  std::vector<double> weight(n);
  ParallelFor(0, n, ChunkedGrain(n), [&](uint64_t, uint64_t b, uint64_t e) {
    for (uint64_t v = b; v < e; ++v) {
      weight[v] = std::pow(static_cast<double>(rank[v]),
                           -1.0 / config.degree_exponent);
    }
  });
  double weight_sum = 0;
  for (uint64_t v = 0; v < n; ++v) weight_sum += weight[v];
  // Normalize so the expected total degree hits avg_degree * n.
  double scale =
      config.avg_degree * static_cast<double>(n) / weight_sum;
  for (double& w : weight) w *= scale;

  // Community assignment: round-robin over sqrt(n) communities of skewed
  // sizes.
  const uint64_t num_communities = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::sqrt(static_cast<double>(n))));
  std::vector<uint64_t> community(n);
  std::vector<std::vector<VertexId>> members(num_communities);
  for (uint64_t v = 0; v < n; ++v) {
    // Zipf community sizes: low community ids are larger.
    uint64_t c = rng.NextZipf(num_communities, 1.1) - 1;
    community[v] = c;
    members[c].push_back(v);
  }

  // Global cumulative weights for Chung-Lu sampling.
  std::vector<double> cumulative(n);
  double acc = 0;
  for (uint64_t v = 0; v < n; ++v) {
    acc += weight[v];
    cumulative[v] = acc;
  }

  // The rejection-sampling loop consumes one sequential random stream; it
  // stays single-threaded so a seed keeps producing the exact same graph
  // (downstream tests and archived runs depend on the content, not just
  // the statistics). Rmat/Uniform below chunk their streams instead.
  const uint64_t m = static_cast<uint64_t>(
      config.avg_degree * static_cast<double>(n) / 2.0);
  std::vector<Edge> edges;
  edges.reserve(m);
  uint64_t attempts = 0;
  const uint64_t max_attempts = m * 4 + 1024;
  while (edges.size() < m && attempts < max_attempts) {
    ++attempts;
    VertexId src = SampleCumulative(cumulative, rng);
    VertexId dst;
    if (rng.NextBool(config.community_edge_fraction) &&
        members[community[src]].size() > 1) {
      const auto& local = members[community[src]];
      dst = local[rng.NextBounded(local.size())];
    } else {
      dst = SampleCumulative(cumulative, rng);
    }
    if (src == dst) continue;
    edges.push_back(Edge{src, dst});
  }
  return Graph::Create(n, std::move(edges), /*directed=*/false);
}

Result<Graph> GenerateRmat(const RmatConfig& config) {
  if (config.scale == 0 || config.scale > 30) {
    return Status::InvalidArgument("scale must be in [1, 30]");
  }
  double d = 1.0 - config.a - config.b - config.c;
  if (config.a < 0 || config.b < 0 || config.c < 0 || d < 0) {
    return Status::InvalidArgument("quadrant probabilities must sum to <= 1");
  }
  const uint64_t n = uint64_t{1} << config.scale;
  const uint64_t m =
      static_cast<uint64_t>(config.edge_factor * static_cast<double>(n));
  // Each chunk samples its slice of the edge array from its own
  // (seed, chunk)-derived stream — same graph for any host-thread count.
  std::vector<Edge> edges(m);
  const uint64_t grain = ChunkedGrain(m, /*max_chunks=*/64,
                                      /*min_grain=*/8192);
  ParallelFor(0, m, grain, [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
    Rng crng = ChunkRng(config.seed, chunk);
    for (uint64_t i = cb; i < ce; ++i) {
      uint64_t src = 0, dst = 0;
      for (uint64_t bit = 0; bit < config.scale; ++bit) {
        double u = crng.NextDouble();
        src <<= 1;
        dst <<= 1;
        if (u < config.a) {
          // top-left quadrant: neither bit set
        } else if (u < config.a + config.b) {
          dst |= 1;
        } else if (u < config.a + config.b + config.c) {
          src |= 1;
        } else {
          src |= 1;
          dst |= 1;
        }
      }
      edges[i] = Edge{src, dst};
    }
  });
  return Graph::Create(n, std::move(edges), /*directed=*/true);
}

Result<Graph> GenerateUniform(uint64_t num_vertices, uint64_t num_edges,
                              uint64_t seed) {
  if (num_vertices < 2) {
    return Status::InvalidArgument("need at least 2 vertices");
  }
  // Each chunk rejection-samples its exact slice of the edge array from
  // its own (seed, chunk)-derived stream (num_vertices >= 2, so rejection
  // always terminates).
  std::vector<Edge> edges(num_edges);
  const uint64_t grain = ChunkedGrain(num_edges, /*max_chunks=*/64,
                                      /*min_grain=*/8192);
  ParallelFor(0, num_edges, grain,
              [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                Rng crng = ChunkRng(seed, chunk);
                for (uint64_t i = cb; i < ce; ++i) {
                  for (;;) {
                    VertexId src = crng.NextBounded(num_vertices);
                    VertexId dst = crng.NextBounded(num_vertices);
                    if (src == dst) continue;
                    edges[i] = Edge{src, dst};
                    break;
                  }
                }
              });
  return Graph::Create(num_vertices, std::move(edges), /*directed=*/false);
}

Graph MakePath(uint64_t n) {
  std::vector<Edge> edges;
  for (uint64_t v = 0; v + 1 < n; ++v) edges.push_back(Edge{v, v + 1});
  return std::move(Graph::Create(n, std::move(edges), false)).value();
}

Graph MakeCycle(uint64_t n) {
  std::vector<Edge> edges;
  for (uint64_t v = 0; v + 1 < n; ++v) edges.push_back(Edge{v, v + 1});
  if (n >= 2) edges.push_back(Edge{n - 1, 0});
  return std::move(Graph::Create(n, std::move(edges), false)).value();
}

Graph MakeStar(uint64_t n) {
  std::vector<Edge> edges;
  for (uint64_t v = 1; v < n; ++v) edges.push_back(Edge{0, v});
  return std::move(Graph::Create(n, std::move(edges), false)).value();
}

Graph MakeComplete(uint64_t n) {
  std::vector<Edge> edges;
  for (uint64_t u = 0; u < n; ++u) {
    for (uint64_t v = u + 1; v < n; ++v) edges.push_back(Edge{u, v});
  }
  return std::move(Graph::Create(n, std::move(edges), false)).value();
}

Graph MakeBinaryTree(uint64_t n) {
  std::vector<Edge> edges;
  for (uint64_t v = 1; v < n; ++v) edges.push_back(Edge{(v - 1) / 2, v});
  return std::move(Graph::Create(n, std::move(edges), false)).value();
}

Graph MakeGrid(uint64_t rows, uint64_t cols) {
  std::vector<Edge> edges;
  auto id = [cols](uint64_t r, uint64_t c) { return r * cols + c; };
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint64_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back(Edge{id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back(Edge{id(r, c), id(r + 1, c)});
    }
  }
  return std::move(Graph::Create(rows * cols, std::move(edges), false))
      .value();
}

}  // namespace granula::graph
