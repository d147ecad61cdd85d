// Pins every engine's output across commits. For each engine x algorithm x
// fault plan on a small Datagen graph, a 64-bit FNV-1a digest covers the
// JSONL bytes of the platform log, the environment records, the bit
// patterns of the vertex values and the JobResult counters. The digests in
// tests/data/engine_pins.txt were recorded once; a refactor of the engines
// must reproduce them exactly. On a mismatch the test prints the case and
// the observed digest.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "graph/generators.h"
#include "platforms/dispatch.h"

namespace granula::platform {
namespace {

class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) {
    unsigned char le[8];
    for (int i = 0; i < 8; ++i) {
      le[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    Bytes(le, sizeof(le));
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t Digest(const JobResult& r) {
  Fnv1a h;
  std::string line;
  for (const core::LogRecord& record : r.records) {
    line.clear();
    record.AppendJsonl(line);
    h.Str(line);
  }
  for (const core::EnvironmentRecord& e : r.environment) {
    h.U64(e.node);
    h.Str(e.hostname);
    h.F64(e.time_seconds);
    h.F64(e.cpu_seconds_per_second);
    h.F64(e.net_bytes_per_second);
    h.F64(e.disk_bytes_per_second);
  }
  h.U64(r.vertex_values.size());
  for (double v : r.vertex_values) h.F64(v);
  h.U64(r.supersteps);
  h.F64(r.total_seconds);
  h.U64(r.network_bytes);
  h.U64(r.completed ? 1 : 0);
  h.U64(r.failed_attempts);
  h.U64(r.restarts);
  h.F64(r.lost_seconds);
  return h.value();
}

struct Plan {
  const char* label;
  const char* spec;
};

// None, then one plan per fault kind the engines react to, then a crash
// that fails more often than the retry policy allows.
constexpr Plan kPlans[] = {
    {"none", ""},
    {"crash", "crash:1:2"},
    {"task", "task:2:1"},
    {"storage", "storage:0:2"},
    {"logwrite", "logdrop:7,logtrunc:15"},
    {"exhausted", "crash:1:1:9"},
};

constexpr algo::AlgorithmId kAlgorithms[] = {
    algo::AlgorithmId::kBfs, algo::AlgorithmId::kPageRank,
    algo::AlgorithmId::kWcc, algo::AlgorithmId::kSssp,
    algo::AlgorithmId::kCdlp};

std::map<std::string, std::string> ReadPins() {
  std::ifstream in(std::string(GRANULA_TEST_DATA_DIR) + "/engine_pins.txt");
  EXPECT_TRUE(in.good()) << "missing tests/data/engine_pins.txt";
  std::map<std::string, std::string> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    fields >> name >> digest;
    pins[name] = digest;
  }
  return pins;
}

TEST(EnginePinTest, OutputsMatchRecordedDigests) {
  graph::DatagenConfig config;
  config.num_vertices = 600;
  config.avg_degree = 6.0;
  config.seed = 23;
  auto g = graph::GenerateDatagen(config);
  ASSERT_TRUE(g.ok()) << g.status();

  std::map<std::string, std::string> pins = ReadPins();
  ASSERT_FALSE(pins.empty());
  std::map<std::string, bool> seen;
  for (const std::string& platform : ImplementedPlatformNames()) {
    for (algo::AlgorithmId id : kAlgorithms) {
      for (const Plan& plan : kPlans) {
        std::string name = platform + "/" +
                           std::string(algo::AlgorithmName(id)) + "/" +
                           plan.label;
        algo::AlgorithmSpec spec;
        spec.id = id;
        spec.source = 3;
        spec.max_iterations = 5;
        JobConfig job;
        job.num_workers = 4;
        if (*plan.spec != '\0') {
          auto faults = sim::FaultPlan::Parse(plan.spec);
          ASSERT_TRUE(faults.ok()) << faults.status();
          job.faults = std::move(*faults);
        }
        auto result =
            RunForPlatform(platform, *g, spec, cluster::ClusterConfig{}, job);
        auto pin = pins.find(name);
        if (!result.ok()) {
          // An algorithm the engine has no program for is simply not a
          // case; anything pinned must run.
          EXPECT_TRUE(pin == pins.end() &&
                      result.status().code() == StatusCode::kUnimplemented)
              << name << ": " << result.status();
          continue;
        }
        seen[name] = true;
        std::string observed = StrFormat(
            "%016llx", static_cast<unsigned long long>(Digest(*result)));
        if (pin == pins.end()) {
          ADD_FAILURE() << "unpinned case " << name << " " << observed;
        } else if (pin->second != observed) {
          ADD_FAILURE() << "pin mismatch " << name << " " << observed
                        << " (pinned " << pin->second << ")";
        }
      }
    }
  }
  for (const auto& [name, digest] : pins) {
    EXPECT_TRUE(seen.count(name) > 0) << "pinned case never ran: " << name;
  }
}

}  // namespace
}  // namespace granula::platform
