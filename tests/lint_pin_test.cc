// Pins the lint pass and the repair-mode archive built on it across
// commits. A seeded generator writes adversarial logs: duplicate StartOps
// that win or lose on seq, duplicate and inverted EndOps, orphan Infos and
// EndOps, parent cycles (self-parents included) with chains dangling off
// them, extra roots whose subtree sizes tie, parents absent from the log,
// unmodeled operations, and half the seeds with scrambled seqs. For each
// seed a 64-bit FNV-1a digest of LintReport::Summary() and one of the GBA
// encoding of Archiver::Build under Tolerance::kRepair (or of its error
// status) must equal the ones recorded in tests/data/lint_pins.txt. A
// rewrite of lint or assembly must reproduce them exactly; on a mismatch
// the test prints the seed and the observed digests. Every seq in a log is
// unique, so the result must not depend on the order of the records.

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "granula/archive/archiver.h"
#include "granula/archive/gba.h"
#include "granula/archive/lint.h"

namespace granula::core {
namespace {

constexpr uint64_t kSeeds = 96;

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct OpType {
  const char* actor;
  const char* mission;
};

// Index 0 is the root type; "Spill" is absent from the model, so its
// operations are spliced out and their children hoisted.
constexpr OpType kTypes[] = {{"Job", "Root"},
                             {"Job", "Phase"},
                             {"Worker", "Step"},
                             {"Worker", "Compute"},
                             {"Worker", "Spill"}};

PerformanceModel PinModel() {
  PerformanceModel model("lint-pin");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Job", "Phase", "Job", "Root");
  (void)model.AddOperation("Worker", "Step", "Job", "Phase");
  (void)model.AddOperation("Worker", "Compute", "Worker", "Step");
  (void)model.AddRule("Job", "Root",
                      MakeChildAggregateRule("Phases", Aggregate::kCount,
                                             "Duration"));
  (void)model.AddRule("Job", "Root",
                      MakeChildAggregateRule("MeanPhase", Aggregate::kMean,
                                             "Duration", "Phase"));
  (void)model.AddRule("Job", "Phase",
                      MakeChildAggregateRule("StepTime", Aggregate::kSum,
                                             "Duration", "Step"));
  (void)model.AddRule("Worker", "Step",
                      MakeChildAggregateRule("MaxItems", Aggregate::kMax,
                                             "Items", "Compute"));
  (void)model.AddRule("Worker", "Step", MakeRateRule("ItemsPerSecond",
                                                     "Items"));
  return model;
}

class LogGenerator {
 public:
  explicit LogGenerator(uint64_t seed) : rng_(seed), seed_(seed) {}

  std::vector<LogRecord> Generate() {
    // The primary tree, then extra roots (some tied in size with each
    // other or with the primary tree), then cycles with dangling chains,
    // then a tree under a parent that never started.
    const int main_size =
        seed_ % 8 == 0 ? 150 : 3 + static_cast<int>(rng_.NextBounded(40));
    AddTree(kNoOp, main_size, 0);
    std::vector<int> extra_sizes;
    for (int i = 0, n = static_cast<int>(rng_.NextBounded(4)); i < n; ++i) {
      int size = 1 + static_cast<int>(rng_.NextBounded(6));
      if (rng_.NextBool(0.2)) size = main_size;
      if (!extra_sizes.empty() && rng_.NextBool(0.4)) size = extra_sizes[0];
      extra_sizes.push_back(size);
      AddTree(kNoOp, size, static_cast<int>(rng_.NextBounded(2)) * 4);
    }
    for (int i = 0, n = static_cast<int>(rng_.NextBounded(3)); i < n; ++i) {
      AddCycle(1 + static_cast<int>(rng_.NextBounded(4)));
    }
    if (rng_.NextBool(0.3)) {
      AddTree(FreshId(), 1 + static_cast<int>(rng_.NextBounded(5)), 1);
    }

    for (const Spec& op : ops_) EmitOperation(op);
    for (int i = 0, n = static_cast<int>(rng_.NextBounded(4)); i < n; ++i) {
      LogRecord info = Info(FreshId());
      InsertAnywhere(std::move(info));
    }
    for (int i = 0, n = static_cast<int>(rng_.NextBounded(3)); i < n; ++i) {
      LogRecord end;
      end.kind = LogRecord::Kind::kEndOp;
      end.op_id = FreshId();
      end.time = Tick(rng_.NextBounded(60));
      InsertAnywhere(std::move(end));
    }

    // Seqs: emission order for even seeds, scrambled for odd ones. Either
    // way a duplicate inserted before its original gets the lower seq.
    std::vector<uint64_t> seqs(records_.size());
    for (size_t i = 0; i < seqs.size(); ++i) seqs[i] = 1 + 2 * i;
    if (seed_ % 2 == 1) rng_.Shuffle(seqs);
    for (size_t i = 0; i < records_.size(); ++i) records_[i].seq = seqs[i];
    return std::move(records_);
  }

 private:
  struct Spec {
    uint64_t id;
    uint64_t parent;
    int type;
  };

  static SimTime Tick(uint64_t n) {
    // Coarse ticks so sibling start times tie and the stable child order
    // is exercised.
    return SimTime::Nanos(static_cast<int64_t>(n) * 100'000'000);
  }

  uint64_t FreshId() {
    while (true) {
      uint64_t id = 1 + rng_.NextBounded(100'000);
      if (used_ids_.insert(id).second) return id;
    }
  }

  void AddTree(uint64_t parent, int size, int root_type) {
    const size_t first = ops_.size();
    ops_.push_back({FreshId(), parent, root_type});
    for (int i = 1; i < size; ++i) {
      uint64_t parent_id =
          ops_[first + rng_.NextBounded(static_cast<uint64_t>(i))].id;
      ops_.push_back(
          {FreshId(), parent_id, 1 + static_cast<int>(rng_.NextBounded(4))});
    }
  }

  // A parent cycle of `length` operations (1 = self-parent), with up to
  // three chains (and a small subtree) hanging off its members.
  void AddCycle(int length) {
    const size_t first = ops_.size();
    for (int i = 0; i < length; ++i) {
      ops_.push_back({FreshId(), kNoOp, 1 + static_cast<int>(i % 4)});
    }
    for (int i = 0; i < length; ++i) {
      ops_[first + i].parent = ops_[first + (i + 1) % length].id;
    }
    for (int c = 0, n = static_cast<int>(rng_.NextBounded(4)); c < n; ++c) {
      uint64_t parent =
          ops_[first + rng_.NextBounded(static_cast<uint64_t>(length))].id;
      for (int d = 0, depth = 1 + static_cast<int>(rng_.NextBounded(3));
           d < depth; ++d) {
        uint64_t id = FreshId();
        ops_.push_back({id, parent, 2});
        parent = id;
      }
    }
    if (rng_.NextBool(0.5)) AddTree(ops_.back().id, 3, 2);
  }

  LogRecord Start(const Spec& op, SimTime time) {
    LogRecord r;
    r.kind = LogRecord::Kind::kStartOp;
    r.op_id = op.id;
    r.parent_id = op.parent;
    r.time = time;
    r.actor_type = kTypes[op.type].actor;
    r.mission_type = kTypes[op.type].mission;
    if (!rng_.NextBool(0.2)) {
      r.actor_id = StrFormat("%s-%d", r.actor_type.c_str(),
                             static_cast<int>(rng_.NextBounded(5)));
    }
    if (!rng_.NextBool(0.2)) {
      r.mission_id = StrFormat("%s-%d", r.mission_type.c_str(),
                               static_cast<int>(rng_.NextBounded(7)));
    }
    return r;
  }

  LogRecord Info(uint64_t op_id) {
    static constexpr const char* kNames[] = {"Items", "Bytes", "Note"};
    LogRecord r;
    r.kind = LogRecord::Kind::kInfo;
    r.op_id = op_id;
    r.info_name = kNames[rng_.NextBounded(3)];
    switch (rng_.NextBounded(3)) {
      case 0:
        r.info_value = Json(static_cast<int64_t>(rng_.NextBounded(1000)));
        break;
      case 1:
        r.info_value = Json(rng_.NextDouble() * 100);
        break;
      default:
        r.info_value = Json(StrFormat("note-%d",
                                      static_cast<int>(rng_.NextBounded(9))));
        break;
    }
    return r;
  }

  LogRecord End(uint64_t op_id, SimTime time) {
    LogRecord r;
    r.kind = LogRecord::Kind::kEndOp;
    r.op_id = op_id;
    r.time = time;
    return r;
  }

  void EmitOperation(const Spec& op) {
    const uint64_t start_tick = 10 + rng_.NextBounded(40);
    const SimTime start = Tick(start_tick);
    records_.push_back(Start(op, start));
    if (rng_.NextBool(0.12)) {
      // A duplicate StartOp, inserted anywhere: before the original it
      // wins on seq. It may disagree on the annotation and the parent.
      Spec dup = op;
      if (rng_.NextBool(0.3) && !ops_.empty()) {
        dup.parent = rng_.NextBool(0.3)
                         ? kNoOp
                         : ops_[rng_.NextBounded(ops_.size())].id;
      }
      InsertAnywhere(Start(dup, Tick(rng_.NextBounded(60))));
    }
    for (int i = 0, n = static_cast<int>(rng_.NextBounded(4)); i < n; ++i) {
      records_.push_back(Info(op.id));
    }
    const SimTime end = Tick(start_tick + rng_.NextBounded(30));
    const SimTime inverted = Tick(rng_.NextBounded(start_tick));
    switch (rng_.NextBounded(12)) {
      case 0:  // lost EndOp
        break;
      case 1:  // only an inverted EndOp
        records_.push_back(End(op.id, inverted));
        break;
      case 2:  // inverted, then valid
        records_.push_back(End(op.id, inverted));
        records_.push_back(End(op.id, end));
        break;
      case 3:  // valid, then a duplicate
        records_.push_back(End(op.id, end));
        records_.push_back(End(op.id, Tick(start_tick + 31)));
        break;
      case 4:  // valid, then inverted
        records_.push_back(End(op.id, end));
        records_.push_back(End(op.id, inverted));
        break;
      case 5:  // a duplicate inserted anywhere
        records_.push_back(End(op.id, end));
        InsertAnywhere(End(op.id, Tick(start_tick + rng_.NextBounded(30))));
        break;
      default:
        records_.push_back(End(op.id, end));
        break;
    }
  }

  void InsertAnywhere(LogRecord record) {
    size_t pos = rng_.NextBounded(records_.size() + 1);
    records_.insert(records_.begin() + static_cast<std::ptrdiff_t>(pos),
                    std::move(record));
  }

  Rng rng_;
  uint64_t seed_;
  std::set<uint64_t> used_ids_;
  std::vector<Spec> ops_;
  std::vector<LogRecord> records_;
};

struct Outcome {
  std::string summary;
  std::string archive;  // GBA bytes, or "error: <status>"
};

Outcome LintAndArchive(const std::vector<LogRecord>& records) {
  Archiver::Options options;
  options.tolerance = Archiver::Tolerance::kRepair;
  Result<PerformanceArchive> archive = Archiver(options).Build(
      PinModel(), records, {}, {{"platform", "lint-pin"}});
  Outcome out;
  out.summary = LintLog(records).Summary();
  out.archive = archive.ok() ? EncodeGba(*archive)
                             : "error: " + archive.status().ToString();
  return out;
}

std::map<uint64_t, std::pair<std::string, std::string>> ReadPins() {
  std::ifstream in(std::string(GRANULA_TEST_DATA_DIR) + "/lint_pins.txt");
  EXPECT_TRUE(in.good()) << "missing tests/data/lint_pins.txt";
  std::map<uint64_t, std::pair<std::string, std::string>> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t seed = 0;
    std::string summary, archive;
    fields >> seed >> summary >> archive;
    pins[seed] = {summary, archive};
  }
  return pins;
}

std::string Hex(uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

TEST(LintPinTest, AdversarialLogsMatchRecordedDigests) {
  const auto pins = ReadPins();
  EXPECT_EQ(pins.size(), kSeeds);
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Outcome out = LintAndArchive(LogGenerator(seed).Generate());
    const std::string summary = Hex(Fnv1a(out.summary));
    const std::string archive = Hex(Fnv1a(out.archive));
    auto pin = pins.find(seed);
    EXPECT_TRUE(pin != pins.end() && pin->second.first == summary &&
                pin->second.second == archive)
        << "observed: " << seed << " " << summary << " " << archive;
  }
}

// The generator really produces every defect class, so the pins cover
// each branch of the pass.
TEST(LintPinTest, GeneratorCoversEveryDefectClass) {
  std::set<LintDefect> seen;
  size_t failed_builds = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::vector<LogRecord> records = LogGenerator(seed).Generate();
    for (const LintFinding& f : LintLog(records).findings) {
      seen.insert(f.defect);
    }
    if (LintAndArchive(records).archive.rfind("error: ", 0) == 0) {
      ++failed_builds;
    }
  }
  EXPECT_EQ(seen.size(), 9u);
  // Most seeds still yield a best-effort archive.
  EXPECT_LT(failed_builds, kSeeds / 4);
}

TEST(LintPinTest, RecordOrderDoesNotMatter) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::vector<LogRecord> records = LogGenerator(seed).Generate();
    const Outcome want = LintAndArchive(records);
    Rng rng(seed * 7919);
    for (int round = 0; round < 3; ++round) {
      rng.Shuffle(records);
      Outcome got = LintAndArchive(records);
      EXPECT_EQ(got.summary, want.summary) << "seed " << seed;
      EXPECT_TRUE(got.archive == want.archive) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace granula::core
