// Pins the regression gate across commits: the flatten (operation tree ->
// path -> seconds), the diff over two flattened tables, and the sweep gate
// over two scanned repositories. A seeded generator builds baseline trees
// whose sibling names make every flatten rule fire — duplicate names (all
// get "#k"), names containing '/' that collide with genuinely nested paths,
// names ending in "#k" or "'" that collide with the suffixes the flatten
// itself adds (so the "'" guard fires, sometimes twice), and empty mission
// ids (the name falls back to the mission type). Durations include zero,
// negative and saturated values and values on the `min_seconds` edge; the
// candidate tree rescales durations onto and around the `tolerance` edge,
// renames, drops and adds operations. For each seed and depth cut (0, 2,
// 3) a 64-bit FNV-1a digest of both flattened tables (order and exact
// seconds) and one of the rendered report plus its exact fields must equal
// the ones in tests/data/regression_pins.txt, and so must the digest of the
// rendered sweep gate over two repositories of the same trees. On a
// mismatch the test prints the observed pin line. The tree flatten must
// also equal the flatten of the same archive read through ArchiveView.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "granula/analysis/comparative.h"
#include "granula/analysis/regression.h"
#include "granula/archive/archive.h"
#include "granula/archive/gba.h"
#include "granula/archive/repository.h"
#include "granula/archive/view.h"
#include "granula/visual/comparative_view.h"

namespace granula::core {
namespace {

constexpr uint64_t kSeeds = 32;
constexpr int kDepths[] = {0, 2, 3};

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex(uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMinSecondsNanos = 50'000'000;  // RegressionOptions default

using Node = std::shared_ptr<ArchivedOperation>;

Node MakeNode(std::string mission_type, std::string mission_id,
              int64_t start, int64_t end) {
  auto op = std::make_shared<ArchivedOperation>();
  op->actor_type = "Worker";
  op->actor_id = "w";
  op->mission_type = std::move(mission_type);
  op->mission_id = std::move(mission_id);
  op->SetInfo("StartTime", Json(start), "pin");
  op->SetInfo("EndTime", Json(end), "pin");
  return op;
}

int64_t StartOf(const ArchivedOperation& op) {
  return op.StartTime().nanos();
}

class TreeGen {
 public:
  explicit TreeGen(uint64_t seed) : rng_(seed * 7919 + 13) {}

  PerformanceArchive Baseline() {
    PerformanceArchive archive;
    archive.model_name = "regression-pin";
    Node root = MakeNode("Job", rng_.NextBool(0.5) ? "Job" : "", 0,
                         4'000'000'000);
    AddChildren(root.get(), 1);
    // A collision cluster: "a" with a child "b", beside "a/b" and "a/b'"
    // in random order — the guard must fire on whichever comes later in
    // pre-order, twice for "a/b'".
    if (rng_.NextBool(0.7)) {
      std::vector<Node> cluster;
      Node a = MakeNode("Phase", "a", 0, 1'000'000'000);
      a->children.push_back(MakeNode("Step", "b", 0, Duration()));
      cluster.push_back(a);
      cluster.push_back(MakeNode("Phase", "a/b", 0, Duration()));
      cluster.push_back(MakeNode("Phase", "a/b'", 0, Duration()));
      rng_.Shuffle(cluster);
      for (Node& n : cluster) root->children.push_back(std::move(n));
    }
    archive.root = root;
    return archive;
  }

  // The candidate: the baseline's shape with durations rescaled around
  // the tolerance edge, some operations renamed, dropped or added.
  PerformanceArchive Candidate(const PerformanceArchive& baseline) {
    PerformanceArchive archive;
    archive.model_name = baseline.model_name;
    archive.root = Perturb(*baseline.root, 0);
    return archive;
  }

 private:
  int64_t Duration() {
    switch (rng_.NextBounded(10)) {
      case 0:
        return 0;
      case 1:
        return -static_cast<int64_t>(rng_.NextBounded(1'000'000'000));
      case 2:
        return kMinSecondsNanos;
      case 3:
        return kMinSecondsNanos - 1;
      default:
        return static_cast<int64_t>(rng_.NextBounded(2'000'000'000));
    }
  }

  // Start/end pairs, a few of them saturating Duration() at either end.
  std::pair<int64_t, int64_t> Times() {
    const uint64_t pick = rng_.NextBounded(24);
    if (pick == 0) return {kMin, kMax};
    if (pick == 1) return {kMax, kMin};
    const int64_t start = static_cast<int64_t>(rng_.NextBounded(1'000'000));
    return {start, start + Duration()};
  }

  std::string Name() {
    static constexpr const char* kNames[] = {
        "Load", "Load", "x",   "x",   "x#1", "x#2", "p",
        "p'",   "q/r",  "q",   "Superstep-1", "",  "", "Load#1"};
    return kNames[rng_.NextBounded(std::size(kNames))];
  }

  std::string Type() {
    static constexpr const char* kTypes[] = {"Phase", "Step", "Load", "q"};
    return kTypes[rng_.NextBounded(std::size(kTypes))];
  }

  void AddChildren(ArchivedOperation* parent, int level) {
    if (level > 4) return;
    const uint64_t n = rng_.NextBounded(level == 1 ? 6 : 4);
    for (uint64_t i = 0; i < n; ++i) {
      auto [start, end] = Times();
      std::string name = Name();
      // "q" with a child "r" collides with a sibling "q/r".
      Node child = MakeNode(Type(), name, start, end);
      if (name == "q") {
        child->children.push_back(MakeNode("Step", "r", 0, Duration()));
      } else if (rng_.NextBool(0.6)) {
        AddChildren(child.get(), level + 1);
      }
      parent->children.push_back(std::move(child));
    }
  }

  Node Perturb(const ArchivedOperation& base, int level) {
    auto op = std::make_shared<ArchivedOperation>(base);
    op->children.clear();
    const int64_t start = StartOf(base);
    const int64_t d = base.Duration().nanos();
    // Keep saturated and negative durations as they are; rescale the rest.
    if (d >= 0 && d < 4'000'000'000 && level > 0) {
      int64_t scaled = d;
      switch (rng_.NextBounded(10)) {
        case 0:
          scaled = d + d / 10;  // on the tolerance edge (+10 %)
          break;
        case 1:
          scaled = d - d / 10;  // on the improvement edge (-10 %)
          break;
        case 2:
          scaled = d + d / 10 - 1;
          break;
        case 3:
          scaled = d * 2;
          break;
        case 4:
          scaled = d / 2;
          break;
        case 5:
          scaled = 0;
          break;
        case 6:
          scaled = kMinSecondsNanos;
          break;
        default:
          break;
      }
      op->SetInfo("EndTime", Json(start + scaled), "pin");
    }
    if (level > 0 && rng_.NextBool(0.05)) {
      op->mission_id = op->mission_id.empty() ? "renamed" : "";
    }
    for (const OperationPtr& child : base.children) {
      if (rng_.NextBool(0.08)) continue;  // dropped
      op->children.push_back(Perturb(*child, level + 1));
    }
    if (rng_.NextBool(0.1)) {
      op->children.push_back(MakeNode("Phase", "added", 0, Duration()));
    }
    return op;
  }

  Rng rng_;
};

// Order and exact values of a flattened table; compiles against any table
// type whose entries bind as [path, seconds].
template <typename Table>
std::string DumpTable(const Table& table) {
  std::string out;
  for (const auto& [path, seconds] : table) {
    out.append(path.data(), path.size());
    out += StrFormat("\t%a\n", seconds);
  }
  return out;
}

std::string DumpReport(const RegressionReport& report) {
  std::string out = RenderRegressionReport(report);
  out += StrFormat("--\n%a %a\n", report.total_baseline_seconds,
                   report.total_candidate_seconds);
  for (const auto* deltas : {&report.regressions, &report.improvements}) {
    for (const OperationDelta& d : *deltas) {
      out += StrFormat("%s %a %a %a\n", d.path.c_str(), d.baseline_seconds,
                       d.candidate_seconds, d.relative_change);
    }
    out += "--\n";
  }
  for (const std::string& path : report.added) out += "+" + path + "\n";
  for (const std::string& path : report.removed) out += "-" + path + "\n";
  return out;
}

RegressionOptions OptionsFor(uint64_t seed, int depth) {
  RegressionOptions options;
  options.max_depth = depth;
  if (seed % 4 == 3) {
    // A wider band, and no floor: tiny and zero durations take part.
    options.tolerance = 0.25;
    options.min_seconds = 0;
  }
  return options;
}

struct Pins {
  std::map<std::pair<uint64_t, int>, std::pair<std::string, std::string>>
      compare;
  std::map<int, std::string> sweep;
};

Pins ReadPins() {
  std::ifstream in(std::string(GRANULA_TEST_DATA_DIR) +
                   "/regression_pins.txt");
  EXPECT_TRUE(in.good()) << "missing tests/data/regression_pins.txt";
  Pins pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    if (first == "sweep") {
      int depth = 0;
      std::string digest;
      fields >> depth >> digest;
      pins.sweep[depth] = digest;
      continue;
    }
    uint64_t seed = std::stoull(first);
    int depth = 0;
    std::string flat, report;
    fields >> depth >> flat >> report;
    pins.compare[{seed, depth}] = {flat, report};
  }
  return pins;
}

TEST(RegressionPinTest, CompareArchivesMatchesRecordedDigests) {
  const Pins pins = ReadPins();
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    TreeGen gen(seed);
    const PerformanceArchive base = gen.Baseline();
    const PerformanceArchive cand = gen.Candidate(base);
    for (int depth : kDepths) {
      const std::string flat =
          Hex(Fnv1a(DumpTable(FlattenArchive(base, depth)) + "==\n" +
                    DumpTable(FlattenArchive(cand, depth))));
      const std::string report = Hex(Fnv1a(
          DumpReport(CompareArchives(base, cand, OptionsFor(seed, depth)))));
      auto it = pins.compare.find({seed, depth});
      if (it == pins.compare.end()) {
        ADD_FAILURE() << "no pin; observed: " << seed << " " << depth << " "
                      << flat << " " << report;
        continue;
      }
      EXPECT_EQ(it->second.first, flat)
          << "observed: " << seed << " " << depth << " " << flat << " "
          << report;
      EXPECT_EQ(it->second.second, report)
          << "observed: " << seed << " " << depth << " " << flat << " "
          << report;
    }
  }
}

TEST(RegressionPinTest, GeneratorMakesEveryFlattenRuleFire) {
  bool duplicate = false, guard = false, double_guard = false,
       fallback = false, regression = false, improvement = false,
       added = false, removed = false;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    TreeGen gen(seed);
    const PerformanceArchive base = gen.Baseline();
    const PerformanceArchive cand = gen.Candidate(base);
    for (const auto& [path, seconds] : FlattenArchive(base, 0)) {
      const std::string p(path.data(), path.size());
      duplicate |= p.find("/x#2") != std::string::npos;
      guard |= p.find("/a/b'") != std::string::npos;
      double_guard |= p.find("/a/b''") != std::string::npos;
      fallback |= p.find("/Phase") != std::string::npos ||
                  p.find("/Step") != std::string::npos;
    }
    const RegressionReport report =
        CompareArchives(base, cand, OptionsFor(seed, 0));
    regression |= report.HasRegressions();
    improvement |= !report.improvements.empty();
    added |= !report.added.empty();
    removed |= !report.removed.empty();
  }
  EXPECT_TRUE(duplicate);
  EXPECT_TRUE(guard);
  EXPECT_TRUE(double_guard);
  EXPECT_TRUE(fallback);
  EXPECT_TRUE(regression);
  EXPECT_TRUE(improvement);
  EXPECT_TRUE(added);
  EXPECT_TRUE(removed);
}

TEST(RegressionPinTest, TreeFlattenEqualsViewFlatten) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    TreeGen gen(seed);
    const PerformanceArchive base = gen.Baseline();
    const PerformanceArchive cand = gen.Candidate(base);
    for (const PerformanceArchive* archive : {&base, &cand}) {
      const std::string gba = EncodeGba(*archive);
      auto view = ArchiveView::Open(gba);
      ASSERT_TRUE(view.ok()) << view.status();
      for (int depth : kDepths) {
        EXPECT_EQ(FlattenArchiveView(*view, depth),
                  FlattenArchive(*archive, depth))
            << "seed " << seed << " depth " << depth;
      }
    }
  }
}

std::string FreshRepo(const std::string& name) {
  std::string dir = testing::TempDir() + "/regression_pin_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

TEST(RegressionPinTest, SweepGateMatchesRecordedDigests) {
  ArchiveRepository baseline(FreshRepo("base"));
  ArchiveRepository candidate(FreshRepo("cand"));
  ASSERT_TRUE(baseline.Init().ok());
  ASSERT_TRUE(candidate.Init().ok());
  // Seed 1 is baseline-only and seed 2 candidate-only; the rest are in
  // both sweeps under the same name.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    TreeGen gen(seed);
    PerformanceArchive base = gen.Baseline();
    PerformanceArchive cand = gen.Candidate(base);
    base.job_metadata = {{"platform", "pin"}, {"nodes", "4"}};
    cand.job_metadata = base.job_metadata;
    const std::string name = StrFormat("job-%02d", static_cast<int>(seed));
    if (seed != 2) {
      ASSERT_TRUE(baseline.Save(base, name).ok());
    }
    if (seed != 1) {
      ASSERT_TRUE(candidate.Save(cand, name).ok());
    }
  }
  const Pins pins = ReadPins();
  for (int depth : kDepths) {
    auto base = ScanSweepSummaries(baseline, depth);
    auto cand = ScanSweepSummaries(candidate, depth);
    ASSERT_TRUE(base.ok() && cand.ok());
    const std::string digest = Hex(Fnv1a(RenderSweepRegressionSummary(
        CompareSweepSummaries(*base, *cand, OptionsFor(0, depth)))));
    auto it = pins.sweep.find(depth);
    if (it == pins.sweep.end()) {
      ADD_FAILURE() << "no pin; observed: sweep " << depth << " " << digest;
      continue;
    }
    EXPECT_EQ(it->second, digest)
        << "observed: sweep " << depth << " " << digest;
  }
}

}  // namespace
}  // namespace granula::core
