#ifndef GRANULA_PLATFORMS_DISPATCH_H_
#define GRANULA_PLATFORMS_DISPATCH_H_

#include <string>
#include <vector>

#include "algorithms/api.h"
#include "cluster/cluster.h"
#include "common/result.h"
#include "granula/model/performance_model.h"
#include "graph/graph.h"
#include "platforms/platform.h"

namespace granula::platform {

// Name-driven dispatch onto the simulated engines, shared by `granula run`
// and `granula bench` so the platform list, the engine/model pairing, and
// the unknown-platform error exist exactly once. The set of valid names is
// derived from the `implemented_here` rows of PlatformRegistry(), not from
// a hand-maintained if/else chain.

// Canonical CLI spelling of a registry display name: lowercase with
// non-alphanumerics dropped ("PGX.D" -> "pgxd").
std::string CanonicalPlatformName(const std::string& name);

// Canonical names of every platform with a simulated engine, in registry
// (paper Table 1) order: giraph, powergraph, graphmat, pgxd, hadoop.
const std::vector<std::string>& ImplementedPlatformNames();

// Resolves `name` (any spelling) against the implemented engines; returns
// the canonical name or InvalidArgument listing every valid choice.
Result<std::string> ResolvePlatformName(const std::string& name);

// The performance model paired with the named engine, or InvalidArgument
// listing the valid names.
Result<core::PerformanceModel> ModelForPlatform(const std::string& name);

// OK when the named engine has a program for `spec`'s algorithm, else
// InvalidArgument naming both. The verdict is the engine's own program
// factory's, so a sweep or run can refuse an unsupported pair before any
// job starts.
Status CheckPlatformSupports(const std::string& name,
                             const algo::AlgorithmSpec& spec);

// Runs one job on the named engine, or InvalidArgument listing the valid
// names. `name` is matched canonically, so "PGX.D" and "pgxd" both work.
Result<JobResult> RunForPlatform(const std::string& name,
                                 const graph::Graph& graph,
                                 const algo::AlgorithmSpec& spec,
                                 const cluster::ClusterConfig& cluster_config,
                                 const JobConfig& job_config);

}  // namespace granula::platform

#endif  // GRANULA_PLATFORMS_DISPATCH_H_
