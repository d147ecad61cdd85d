#include "platforms/dispatch.h"

#include <cctype>

#include "granula/models/models.h"
#include "platforms/engine_job.h"
#include "platforms/giraph.h"
#include "platforms/graphmat.h"
#include "platforms/hadoop.h"
#include "platforms/pgxd.h"
#include "platforms/powergraph.h"
#include "platforms/registry.h"

namespace granula::platform {
namespace {

// One simulated engine: its canonical name, paired performance model, the
// program type it runs (which decides the algorithms it supports) and a
// default-configured run.
struct Engine {
  const char* name;
  core::PerformanceModel (*model)();
  Status (*supports)(const algo::AlgorithmSpec&);
  Result<JobResult> (*run)(const graph::Graph&, const algo::AlgorithmSpec&,
                           const cluster::ClusterConfig&, const JobConfig&);
};

// Whether an engine running `Program`s can run `spec`: the factory's own
// verdict, so support is never listed by hand.
template <typename Program>
Status CheckProgram(const algo::AlgorithmSpec& spec) {
  return MakeProgram<Program>(spec).status();
}

template <typename Platform>
Result<JobResult> RunDefault(const graph::Graph& graph,
                             const algo::AlgorithmSpec& spec,
                             const cluster::ClusterConfig& cluster_config,
                             const JobConfig& job_config) {
  return Platform().Run(graph, spec, cluster_config, job_config);
}

constexpr Engine kEngines[] = {
    {"giraph", core::MakeGiraphModel, CheckProgram<algo::PregelProgram>,
     RunDefault<GiraphPlatform>},
    {"powergraph", core::MakePowerGraphModel, CheckProgram<algo::GasProgram>,
     RunDefault<PowerGraphPlatform>},
    {"graphmat", core::MakeGraphMatModel, CheckProgram<algo::GasProgram>,
     RunDefault<GraphMatPlatform>},
    {"pgxd", core::MakePgxdModel, CheckProgram<algo::GasProgram>,
     RunDefault<PgxdPlatform>},
    {"hadoop", core::MakeHadoopModel, CheckProgram<algo::PregelProgram>,
     RunDefault<HadoopPlatform>},
};

std::string UnknownPlatformMessage(const std::string& name) {
  std::string message = "unknown platform '" + name + "' (";
  const std::vector<std::string>& names = ImplementedPlatformNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) message += "|";
    message += names[i];
  }
  return message + ")";
}

Result<const Engine*> FindEngine(const std::string& name) {
  GRANULA_ASSIGN_OR_RETURN(std::string canonical, ResolvePlatformName(name));
  for (const Engine& engine : kEngines) {
    if (canonical == engine.name) return &engine;
  }
  return Status::Internal("registry lists '" + canonical +
                          "' as implemented but no engine is wired up");
}

}  // namespace

std::string CanonicalPlatformName(const std::string& name) {
  std::string canonical;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      canonical += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return canonical;
}

const std::vector<std::string>& ImplementedPlatformNames() {
  static const std::vector<std::string>& names = *[] {
    auto* result = new std::vector<std::string>;
    for (const PlatformInfo& info : PlatformRegistry()) {
      if (info.implemented_here) {
        result->push_back(CanonicalPlatformName(info.name));
      }
    }
    return result;
  }();
  return names;
}

Result<std::string> ResolvePlatformName(const std::string& name) {
  std::string canonical = CanonicalPlatformName(name);
  for (const std::string& candidate : ImplementedPlatformNames()) {
    if (candidate == canonical) return candidate;
  }
  return Status::InvalidArgument(UnknownPlatformMessage(name));
}

Result<core::PerformanceModel> ModelForPlatform(const std::string& name) {
  GRANULA_ASSIGN_OR_RETURN(const Engine* engine, FindEngine(name));
  return engine->model();
}

Status CheckPlatformSupports(const std::string& name,
                             const algo::AlgorithmSpec& spec) {
  GRANULA_ASSIGN_OR_RETURN(const Engine* engine, FindEngine(name));
  Status supported = engine->supports(spec);
  if (supported.ok()) return supported;
  return Status::InvalidArgument(
      std::string(engine->name) + " cannot run " +
      std::string(algo::AlgorithmName(spec.id)) + ": " + supported.message());
}

Result<JobResult> RunForPlatform(const std::string& name,
                                 const graph::Graph& graph,
                                 const algo::AlgorithmSpec& spec,
                                 const cluster::ClusterConfig& cluster_config,
                                 const JobConfig& job_config) {
  GRANULA_ASSIGN_OR_RETURN(const Engine* engine, FindEngine(name));
  return engine->run(graph, spec, cluster_config, job_config);
}

}  // namespace granula::platform
