#ifndef GRANULA_GRAPH_IO_H_
#define GRANULA_GRAPH_IO_H_

#include <string>

#include "common/result.h"
#include "graph/graph.h"

namespace granula::graph {

// Real-filesystem graph I/O in the whitespace-separated decimal edge-list
// format the simulated platforms model ("src dst\n" per line; '#' comments
// and blank lines ignored on read). Lets users run the pipeline on their
// own datasets (e.g. SNAP exports) instead of synthetic graphs.

// Writes `graph` as an edge-list text file. The byte count written equals
// EdgeListFileBytes(graph) (no comments are emitted), keeping simulated
// I/O costs consistent with real files.
Status WriteEdgeListFile(const Graph& graph, const std::string& path);

// Reads an edge-list text file. Vertex ids may be arbitrary (sparse)
// uint64 values; they are densified to [0, n) in first-appearance order.
// `directed` tags the result; duplicate edges and self-loops are kept.
// Lines split on '\n' only; each non-comment line starts with two decimal
// fields read as `std::istream >> uint64_t` would (optional sign, '-'
// wrapping modulo 2^64) and may carry anything after them. A bad line is
// Corruption naming "path:LINE:"; an unreadable file is IoError.
Result<Graph> ReadEdgeListFile(const std::string& path, bool directed);

// Writes per-vertex values as "vertex value\n" lines (the simulated
// platforms' OffloadGraph output, materialized for real use).
Status WriteValuesFile(const std::vector<double>& values,
                       const std::string& path);

// Materializes a graph from the textual spec grammar shared by
// `granula run --graph=` and sweep-config "graphs" entries:
//   datagen:N[,DEG]   Datagen-like social graph (default 100000,15)
//   rmat:SCALE[,EF]   R-MAT, 2^SCALE vertices  (default 16,16)
//   uniform:N,M       Erdős–Rényi G(n, m)
//   file:PATH         edge-list text file
// Numeric fields are parsed strictly; "uniform:abc,10" is an error, not
// a zero-vertex graph.
Result<Graph> GraphFromSpec(const std::string& spec);

}  // namespace granula::graph

#endif  // GRANULA_GRAPH_IO_H_
