// ArchiveView's one contract: every field reachable through the zero-copy
// view equals the same field on the archive that was encoded, and the
// view's Decode() rebuilds that archive exactly. These tests sweep that
// equivalence across all five platforms x three algorithms (faulted and
// quarantined runs included), randomized info values, the flatten/
// chokepoint consumers built on the view, and the degenerate shapes (zero
// ops, root-only tree, empty symbol blob) pinned by a committed golden
// fixture — then mutate encoded bytes to show Open() is the one gate a
// hostile file has to pass.

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "granula/analysis/chokepoint.h"
#include "granula/analysis/regression.h"
#include "granula/archive/archiver.h"
#include "granula/archive/gba.h"
#include "granula/archive/view.h"
#include "granula/models/models.h"
#include "graph/generators.h"
#include "platforms/giraph.h"
#include "platforms/graphmat.h"
#include "platforms/hadoop.h"
#include "platforms/pgxd.h"
#include "platforms/powergraph.h"

namespace granula::platform {
namespace {

constexpr const char* kPlatformNames[] = {"Giraph", "PowerGraph", "GraphMat",
                                          "Pgxd", "Hadoop"};

graph::Graph TestGraph() {
  graph::DatagenConfig config;
  config.num_vertices = 1200;
  config.avg_degree = 6.0;
  config.seed = 17;
  auto g = graph::GenerateDatagen(config);
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

algo::AlgorithmSpec SpecFor(algo::AlgorithmId id) {
  algo::AlgorithmSpec spec;
  spec.id = id;
  spec.source = 1;
  if (id == algo::AlgorithmId::kPageRank) spec.max_iterations = 4;
  return spec;
}

Result<JobResult> RunPlatform(int which, const graph::Graph& g,
                              const algo::AlgorithmSpec& spec,
                              const JobConfig& job = {}) {
  cluster::ClusterConfig cluster;
  switch (which) {
    case 0:
      return GiraphPlatform().Run(g, spec, cluster, job);
    case 1:
      return PowerGraphPlatform().Run(g, spec, cluster, job);
    case 2:
      return GraphMatPlatform().Run(g, spec, cluster, job);
    case 3:
      return PgxdPlatform().Run(g, spec, cluster, job);
    default:
      return HadoopPlatform().Run(g, spec, cluster, job);
  }
}

core::PerformanceModel ModelFor(int which) {
  switch (which) {
    case 0:
      return core::MakeGiraphModel();
    case 1:
      return core::MakePowerGraphModel();
    case 2:
      return core::MakeGraphMatModel();
    case 3:
      return core::MakePgxdModel();
    default:
      return core::MakeHadoopModel();
  }
}

core::PerformanceArchive BuildArchive(int which, algo::AlgorithmId id,
                                      const JobConfig& job = {}) {
  const graph::Graph g = TestGraph();
  auto result = RunPlatform(which, g, SpecFor(id), job);
  EXPECT_TRUE(result.ok()) << result.status();
  auto archive = core::Archiver().Build(
      ModelFor(which), result->records, std::move(result->environment),
      {{"platform", kPlatformNames[which]}, {"algorithm", "x"}});
  EXPECT_TRUE(archive.ok()) << archive.status();
  return std::move(archive).value();
}

// Recursively checks one view cursor against one materialized operation:
// identity columns, tree shape, info rows (names, sources, full values),
// the numeric accessors, and the time accessors (bit-identical SimTimes).
void ExpectOpEquivalent(const core::ArchiveView::Op& view_op,
                        const core::ArchivedOperation& op,
                        const std::string& where) {
  ASSERT_TRUE(static_cast<bool>(view_op)) << where;
  EXPECT_EQ(view_op.actor_type(), op.actor_type) << where;
  EXPECT_EQ(view_op.actor_id(), op.actor_id) << where;
  EXPECT_EQ(view_op.mission_type(), op.mission_type) << where;
  EXPECT_EQ(view_op.mission_id(), op.mission_id) << where;
  EXPECT_EQ(view_op.name(),
            op.mission_id.empty() ? op.mission_type : op.mission_id)
      << where;
  EXPECT_EQ(view_op.subtree_size(), op.SubtreeSize()) << where;

  ASSERT_EQ(view_op.info_count(), op.infos.size()) << where;
  // GBA writes infos in sorted-name order; ArchivedOperation::infos is a
  // std::map, so row k lines up with the k-th map entry.
  uint32_t k = 0;
  for (const auto& [name, info] : op.infos) {
    EXPECT_EQ(view_op.info_name(k), name) << where;
    EXPECT_EQ(view_op.info_source(k), info.source) << where;
    auto value = view_op.info_value(k);
    ASSERT_TRUE(value.ok()) << where << "/" << name << ": " << value.status();
    EXPECT_EQ(value->Dump(2), info.value.Dump(2)) << where << "/" << name;
    EXPECT_TRUE(view_op.HasInfo(name)) << where << "/" << name;
    // InfoNumber must agree on every info, numeric or not (the fallback
    // sentinel proves non-numeric infos read as absent on both sides).
    EXPECT_EQ(view_op.InfoNumber(name, -12345.5),
              op.InfoNumber(name, -12345.5))
        << where << "/" << name;
    ++k;
  }
  EXPECT_FALSE(view_op.HasInfo("NoSuchInfoName")) << where;
  EXPECT_EQ(view_op.InfoNumber("NoSuchInfoName", 7.25), 7.25) << where;

  EXPECT_EQ(view_op.StartTime().nanos(), op.StartTime().nanos()) << where;
  EXPECT_EQ(view_op.EndTime().nanos(), op.EndTime().nanos()) << where;
  EXPECT_EQ(view_op.Duration().nanos(), op.Duration().nanos()) << where;

  // Children, in order, via FirstChild/NextSibling.
  core::ArchiveView::Op child = view_op.FirstChild();
  for (size_t i = 0; i < op.children.size(); ++i) {
    ASSERT_TRUE(static_cast<bool>(child))
        << where << ": missing child " << i;
    ExpectOpEquivalent(child, *op.children[i],
                       where + "/" + std::to_string(i));
    child = child.NextSibling();
  }
  EXPECT_FALSE(static_cast<bool>(child)) << where << ": extra child";
}

// The contract under test, spelled out once: open a view over the encoded
// bytes, check that Decode() rebuilds the archive, and check every
// reachable field against the original tree.
void ExpectViewEquivalent(const core::PerformanceArchive& archive,
                          const std::string& label) {
  const std::string gba = core::EncodeGba(archive);
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok()) << label << ": " << view.status();
  auto decoded = view->Decode();
  ASSERT_TRUE(decoded.ok()) << label << ": " << decoded.status();
  EXPECT_EQ(decoded->ToJsonString(), archive.ToJsonString()) << label;

  EXPECT_EQ(view->byte_size(), gba.size()) << label;
  EXPECT_EQ(view->status(), archive.status) << label;
  EXPECT_EQ(view->model_name(), archive.model_name) << label;

  ASSERT_EQ(view->metadata_count(), archive.job_metadata.size()) << label;
  uint32_t i = 0;
  for (const auto& [key, value] : archive.job_metadata) {
    EXPECT_EQ(view->metadata_key(i), key) << label;
    EXPECT_EQ(view->metadata_value(i), value) << label;
    EXPECT_EQ(view->Metadata(key), value) << label;
    ++i;
  }
  EXPECT_EQ(view->Metadata("no_such_key", "fb"), "fb") << label;

  ASSERT_EQ(view->environment_count(), archive.environment.size()) << label;
  for (uint32_t e = 0; e < view->environment_count(); ++e) {
    core::ArchiveView::EnvRecord r = view->environment(e);
    const core::EnvironmentRecord& expected = archive.environment[e];
    EXPECT_EQ(r.node, expected.node) << label;
    EXPECT_EQ(r.hostname, expected.hostname) << label;
    EXPECT_EQ(r.time_seconds, expected.time_seconds) << label;
    EXPECT_EQ(r.cpu_seconds_per_second, expected.cpu_seconds_per_second)
        << label;
    EXPECT_EQ(r.net_bytes_per_second, expected.net_bytes_per_second) << label;
    EXPECT_EQ(r.disk_bytes_per_second, expected.disk_bytes_per_second)
        << label;
  }

  EXPECT_EQ(view->lint_count(), archive.lint.findings.size()) << label;
  auto lint = view->DecodeLint();
  ASSERT_TRUE(lint.ok()) << label << ": " << lint.status();
  EXPECT_EQ(*lint, archive.lint) << label;

  ASSERT_EQ(view->has_root(), archive.root != nullptr) << label;
  if (archive.root != nullptr) {
    EXPECT_EQ(view->operation_count(), archive.root->SubtreeSize()) << label;
    ExpectOpEquivalent(view->root(), *archive.root, label + ":root");
  } else {
    EXPECT_EQ(view->operation_count(), 0u) << label;
    EXPECT_FALSE(static_cast<bool>(view->root())) << label;
  }

  // Symbol table round trip: every interned string resolves back to the
  // same id it was found under.
  for (uint32_t s = 0; s < view->symbol_count(); ++s) {
    auto found = view->FindSymbol(view->Symbol(s));
    ASSERT_TRUE(found.has_value()) << label;
    EXPECT_EQ(view->Symbol(*found), view->Symbol(s)) << label;
  }
  EXPECT_FALSE(view->FindSymbol("never-interned-symbol").has_value()) << label;

  // The analysis consumers built on the view must agree with the tree
  // path exactly (these are what serve and the bench gate run on).
  for (int max_depth : {0, 2, 3}) {
    EXPECT_EQ(core::FlattenArchiveView(*view, max_depth),
              core::FlattenArchive(archive, max_depth))
        << label << " flatten depth " << max_depth;
  }
  core::ChokepointOptions chokepoints;
  chokepoints.cluster_cpu_capacity = 16.0;
  std::vector<core::Finding> from_tree =
      core::AnalyzeChokepoints(archive, chokepoints);
  std::vector<core::Finding> from_view =
      core::AnalyzeChokepoints(*view, chokepoints);
  ASSERT_EQ(from_view.size(), from_tree.size()) << label;
  for (size_t f = 0; f < from_tree.size(); ++f) {
    EXPECT_EQ(from_view[f].kind, from_tree[f].kind) << label;
    EXPECT_EQ(from_view[f].severity, from_tree[f].severity) << label;
    EXPECT_EQ(from_view[f].operation, from_tree[f].operation) << label;
    EXPECT_EQ(from_view[f].description, from_tree[f].description) << label;
    EXPECT_EQ(from_view[f].metric, from_tree[f].metric) << label;
  }
}

// ------------------------------------------------ platform sweep ----------

class ViewPlatformSweep
    : public ::testing::TestWithParam<std::tuple<int, algo::AlgorithmId>> {};

TEST_P(ViewPlatformSweep, ViewMatchesDecodedTree) {
  const auto [which, id] = GetParam();
  ExpectViewEquivalent(BuildArchive(which, id), kPlatformNames[which]);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, ViewPlatformSweep,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(algo::AlgorithmId::kBfs,
                                         algo::AlgorithmId::kPageRank,
                                         algo::AlgorithmId::kWcc)));

TEST(ViewFaultedTest, CrashRecoveryArchivesMatch) {
  for (int which = 0; which < 5; ++which) {
    JobConfig job;
    sim::FaultSpec crash;
    crash.kind = sim::FaultKind::kWorkerCrash;
    crash.worker = 2;
    crash.step = 1;
    job.faults.Add(crash);
    ExpectViewEquivalent(BuildArchive(which, algo::AlgorithmId::kPageRank, job),
                         std::string(kPlatformNames[which]) + " faulted");
  }
}

TEST(ViewFaultedTest, QuarantinedArchiveMatchesIncludingLint) {
  const graph::Graph g = TestGraph();
  JobConfig job;
  sim::FaultSpec drop;
  drop.kind = sim::FaultKind::kLogWrite;
  drop.log_seq = 40;
  drop.log_effect = sim::LogWriteFault::kDrop;
  job.faults.Add(drop);
  auto result = RunPlatform(0, g, SpecFor(algo::AlgorithmId::kPageRank), job);
  ASSERT_TRUE(result.ok()) << result.status();

  core::Archiver::Options options;
  options.tolerance = core::Archiver::Tolerance::kRepair;
  auto archive = core::Archiver(options).Build(
      core::MakeGiraphModel(), result->records,
      std::move(result->environment), {{"platform", "Giraph"}});
  ASSERT_TRUE(archive.ok()) << archive.status();
  ASSERT_FALSE(archive->lint.clean());
  ExpectViewEquivalent(*archive, "quarantined");
}

// ------------------------------------------- randomized info values ------

std::string RandomName(Rng& rng) {
  std::string s = "K";
  const size_t len = 1 + rng.NextBounded(12);
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng.NextBounded(26));
  }
  return s;
}

Json RandomValue(Rng& rng, int depth) {
  switch (rng.NextBounded(depth >= 3 ? 5 : 7)) {
    case 0:
      return Json();
    case 1:
      return Json(rng.NextBool(0.5));
    case 2:
      return Json(rng.NextInt(-1000000000000000000, 1000000000000000000));
    case 3:
      return Json(rng.NextDouble() * 1e9 - 5e8);
    case 4:
      return Json(RandomName(rng));
    case 5: {
      Json arr = Json::MakeArray();
      const uint64_t n = rng.NextBounded(4);
      for (uint64_t i = 0; i < n; ++i) arr.Append(RandomValue(rng, depth + 1));
      return arr;
    }
    default: {
      Json obj = Json::MakeObject();
      const uint64_t n = rng.NextBounded(4);
      for (uint64_t i = 0; i < n; ++i) {
        obj[RandomName(rng)] = RandomValue(rng, depth + 1);
      }
      return obj;
    }
  }
}

TEST(ViewPropertyTest, RandomInfoValuesMatchAcrossAllShapes) {
  // Every Json shape an info can carry — nulls, both bools, full-range
  // ints, doubles, strings, nested arrays/objects — decoded through the
  // view's lazy value codec. 25 seeded variants on a real archive.
  core::PerformanceArchive base = BuildArchive(0, algo::AlgorithmId::kBfs);
  Rng rng(20260810);
  for (int iteration = 0; iteration < 25; ++iteration) {
    core::PerformanceArchive archive;
    archive.job_metadata = base.job_metadata;
    archive.model_name = base.model_name;
    archive.status = base.status;
    archive.environment = base.environment;
    archive.lint = base.lint;
    // A copy of the root node shares the base's subtrees below it.
    auto root = std::make_shared<core::ArchivedOperation>(*base.root);
    const int infos = 1 + static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < infos; ++i) {
      root->SetInfo(RandomName(rng), RandomValue(rng, 0),
                    rng.NextBool(0.5) ? "measured" : "derived");
    }
    archive.root = std::move(root);
    ExpectViewEquivalent(archive, "iteration " + std::to_string(iteration));
  }
}

// ------------------------------------------------ degenerate shapes ------

TEST(ViewDegenerateTest, ZeroOpArchiveWithEmptySymbolBlob) {
  // The most degenerate archive the pipeline can produce: no root (zero
  // ops), no metadata, no environment, no lint. The symbol table holds
  // only the model's "" and the string blob is empty — every section
  // boundary collapses to its header.
  core::PerformanceArchive archive;
  ExpectViewEquivalent(archive, "zero-op");

  const std::string gba = core::EncodeGba(archive);
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_FALSE(view->has_root());
  EXPECT_EQ(core::FlattenArchiveView(*view, 0), core::FlatOps{});
  EXPECT_TRUE(core::AnalyzeChokepoints(*view, {}).empty());
}

TEST(ViewDegenerateTest, RootOnlyTree) {
  core::PerformanceArchive archive;
  auto node = std::make_shared<core::ArchivedOperation>();
  node->actor_type = "Job";
  node->actor_id = "J1";
  node->mission_type = "Run";
  archive.root = std::move(node);
  ExpectViewEquivalent(archive, "root-only");

  const std::string gba = core::EncodeGba(archive);
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok()) << view.status();
  core::ArchiveView::Op root = view->root();
  EXPECT_EQ(root.subtree_size(), 1u);
  EXPECT_FALSE(static_cast<bool>(root.FirstChild()));
  EXPECT_FALSE(static_cast<bool>(root.NextSibling()));
}

TEST(ViewDegenerateTest, StatusAndIncompleteRootSurvive) {
  core::PerformanceArchive archive;
  archive.status = core::ArchiveStatus::kIncomplete;
  auto root = std::make_shared<core::ArchivedOperation>();
  root->actor_type = "Job";
  root->mission_type = "Run";
  archive.root = std::move(root);
  ExpectViewEquivalent(archive, "incomplete");
}

// ------------------------------------------------- golden fixture --------

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ViewGoldenTest, DegenerateFixtureStillEncodesAndViewsByteExact) {
  // tests/data/golden_degenerate.{json,gba} pin the degenerate encoding
  // (zero ops, empty string blob). If this fails you changed the on-disk
  // layout of empty sections: bump kGbaVersion and regenerate — do NOT
  // just refresh the bytes.
  const std::string dir = GRANULA_TEST_DATA_DIR;
  const std::string golden_json =
      ReadFileOrDie(dir + "/golden_degenerate.json");
  const std::string golden_gba = ReadFileOrDie(dir + "/golden_degenerate.gba");
  ASSERT_FALSE(golden_json.empty());
  ASSERT_FALSE(golden_gba.empty());

  auto archive = core::PerformanceArchive::FromJsonString(golden_json);
  ASSERT_TRUE(archive.ok()) << archive.status();
  EXPECT_EQ(core::EncodeGba(*archive), golden_gba)
      << "degenerate GBA layout changed without a version bump";

  // Full decode, level-cut decode, and subtree decode all agree on the
  // fixture.
  auto view = core::ArchiveView::Open(golden_gba);
  ASSERT_TRUE(view.ok()) << view.status();
  auto decoded = view->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->ToJsonString(), archive->ToJsonString());
  EXPECT_EQ(decoded->root, nullptr);
  auto shallow = view->Decode(1);
  ASSERT_TRUE(shallow.ok()) << shallow.status();
  EXPECT_EQ(shallow->root, nullptr);
  EXPECT_EQ(view->DecodeSubtree("Root").status().code(),
            StatusCode::kNotFound);

  ExpectViewEquivalent(*archive, "golden degenerate");
}

// ------------------------------------------------- hygiene ---------------

TEST(ViewFormatTest, TruncationIsRejectedAtOpenNeverACrash) {
  // The view validates everything upfront, so a truncated file must be
  // rejected by Open() — accessors never get a chance to over-read.
  core::PerformanceArchive archive = BuildArchive(0, algo::AlgorithmId::kBfs);
  const std::string gba = core::EncodeGba(archive);
  for (size_t cut : {size_t{0}, size_t{4}, size_t{16}, size_t{71},
                     gba.size() / 4, gba.size() / 2, gba.size() - 1}) {
    const std::string prefix = gba.substr(0, cut);
    EXPECT_FALSE(core::ArchiveView::Open(prefix).ok()) << "cut at " << cut;
  }
}

// Everything a consumer may do with a view that Open() accepted: walk
// every row and info, run the analyses, materialise. Under ASan/UBSan a
// mutant that slips past Open() must still do all of this cleanly; the
// decodes may fail, but only with Corruption.
void ExerciseAcceptedView(const core::ArchiveView& view,
                          const std::string& label) {
  auto walk = [&](auto&& self, const core::ArchiveView::Op& op) -> void {
    (void)op.actor_type();
    (void)op.actor_id();
    (void)op.name();
    (void)op.Duration();
    (void)op.InfoNumber("WorkerImbalance", -1);
    for (uint32_t k = 0; k < op.info_count(); ++k) {
      (void)op.info_name(k);
      (void)op.info_source(k);
      auto value = op.info_value(k);
      if (!value.ok()) {
        EXPECT_EQ(value.status().code(), StatusCode::kCorruption) << label;
      }
    }
    for (auto child = op.FirstChild(); child; child = child.NextSibling()) {
      self(self, child);
    }
  };
  if (view.has_root()) walk(walk, view.root());
  for (uint32_t i = 0; i < view.environment_count(); ++i) {
    (void)view.environment(i);
  }
  for (uint32_t i = 0; i < view.metadata_count(); ++i) {
    (void)view.metadata_key(i);
    (void)view.metadata_value(i);
  }
  (void)view.model_name();
  (void)core::FlattenArchiveView(view, 0);
  core::ChokepointOptions chokepoints;
  chokepoints.cluster_cpu_capacity = 16.0;
  (void)core::AnalyzeChokepoints(view, chokepoints);
  for (int levels : {0, 2}) {
    auto decoded = view.Decode(levels);
    if (!decoded.ok()) {
      // An unknown lint defect name is the one non-value failure.
      EXPECT_TRUE(decoded.status().code() == StatusCode::kCorruption ||
                  decoded.status().code() == StatusCode::kInvalidArgument)
          << label << ": " << decoded.status();
    }
  }
  if (view.has_root()) {
    // NotFound when a mutated root name holds a '/'.
    auto subtree = view.DecodeSubtree(view.root().name());
    if (!subtree.ok()) {
      EXPECT_TRUE(subtree.status().code() == StatusCode::kCorruption ||
                  subtree.status().code() == StatusCode::kNotFound)
          << label << ": " << subtree.status();
    }
  }
}

TEST(ViewFormatTest, SeededMutantsFailOpenOrAreSafeToUse) {
  // A real archive plus nested info values (arrays, objects, strings),
  // so mutations land in every section including the value blob's
  // interior. Each mutant flips or overwrites bytes past the 16-byte
  // magic/version/size prefix (a size or magic change is rejected
  // outright), then either fails Open() or must survive every consumer.
  core::PerformanceArchive archive = BuildArchive(0, algo::AlgorithmId::kBfs);
  Json nested = Json::MakeObject();
  nested["list"] = Json::MakeArray();
  nested["list"].Append(Json(int64_t{7}));
  nested["list"].Append(Json("seven"));
  nested["inner"] = Json::MakeObject();
  nested["inner"]["pi"] = Json(3.25);
  nested["inner"]["flag"] = Json(true);
  auto root = std::make_shared<core::ArchivedOperation>(*archive.root);
  auto first = std::make_shared<core::ArchivedOperation>(*root->children[0]);
  root->SetInfo("Nested", nested, "derived");
  first->SetInfo("Tags", nested["list"], "derived");
  root->children[0] = std::move(first);
  archive.root = std::move(root);
  const std::string gba = core::EncodeGba(archive);

  Rng rng(20261017);
  int accepted = 0;
  constexpr int kMutants = 3000;
  for (int m = 0; m < kMutants; ++m) {
    std::string mutant = gba;
    const int edits = 1 + static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = 16 + rng.NextBounded(mutant.size() - 16);
      if (rng.NextBool(0.5)) {
        mutant[pos] = static_cast<char>(mutant[pos] ^
                                        (1u << rng.NextBounded(8)));
      } else {
        mutant[pos] = static_cast<char>(rng.NextBounded(256));
      }
    }
    auto view = core::ArchiveView::Open(mutant);
    if (!view.ok()) {
      EXPECT_EQ(view.status().code(), StatusCode::kCorruption)
          << "mutant " << m << ": " << view.status();
      continue;
    }
    ++accepted;
    ExerciseAcceptedView(*view, "mutant " + std::to_string(m));
  }
  // The sweep must reach past Open() often enough to mean something.
  EXPECT_GT(accepted, kMutants / 20);
}

uint64_t GetLittleEndian64(const std::string& bytes, size_t at) {
  uint64_t value = 0;
  for (int b = 7; b >= 0; --b) {
    value = value << 8 | static_cast<uint8_t>(bytes[at + b]);
  }
  return value;
}

void PutLittleEndian64(std::string& bytes, size_t at, uint64_t value) {
  for (int b = 0; b < 8; ++b, value >>= 8) {
    bytes[at + b] = static_cast<char>(value & 0xff);
  }
}

TEST(ViewFormatTest, SeededHeaderAndShiftMutantsFailOpenOrAreSafeToUse) {
  // The two mutant classes the sweep above never makes. Header mutants
  // edit the 72-byte header (magic, version, file size, section
  // offsets). Shift mutants insert or delete bytes past the header, which
  // moves every offset after the edit, and rewrite the header's file
  // size so the mutant gets past the size check into section validation.
  // A mutant either fails Open() or survives every consumer, and when it
  // decodes, the decoded archive re-encodes to a file that opens and
  // decodes to the same archive.
  core::PerformanceArchive archive = BuildArchive(0, algo::AlgorithmId::kBfs);
  const std::string gba = core::EncodeGba(archive);
  ASSERT_GT(gba.size(), core::kGbaHeaderSize);

  Rng rng(20261019);
  int accepted[2] = {0, 0};
  constexpr int kMutants = 2000;
  for (int m = 0; m < kMutants; ++m) {
    const bool shift = m % 2 == 1;
    std::string mutant = gba;
    if (!shift) {
      const int edits = 1 + static_cast<int>(rng.NextBounded(3));
      for (int e = 0; e < edits; ++e) {
        // Mostly the section offsets, whose low bits can move a section
        // and still pass the bounds checks.
        const size_t pos = rng.NextBool(0.25)
                               ? rng.NextBounded(core::kGbaHeaderSize)
                               : 16 + 8 * rng.NextBounded(7) +
                                     rng.NextBounded(2);
        if (rng.NextBool(0.5)) {
          mutant[pos] = static_cast<char>(mutant[pos] ^
                                          (1u << rng.NextBounded(8)));
        } else {
          mutant[pos] = static_cast<char>(rng.NextBounded(256));
        }
      }
    } else {
      const size_t pos =
          core::kGbaHeaderSize +
          rng.NextBounded(mutant.size() - core::kGbaHeaderSize);
      const size_t len = 1 + rng.NextBounded(16);
      const bool insert = rng.NextBool(0.5);
      if (insert) {
        std::string bytes(len, '\0');
        for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
        mutant.insert(pos, bytes);
      } else {
        mutant.erase(pos, len);
      }
      PutLittleEndian64(mutant, 8, mutant.size());
      if (rng.NextBool(0.5)) {
        // Also move the sections after the edit, so the shift lands
        // inside one section instead of misaligning every later one.
        for (size_t field = 16; field < core::kGbaHeaderSize; field += 8) {
          const uint64_t off = GetLittleEndian64(mutant, field);
          if (off <= pos) continue;
          PutLittleEndian64(mutant, field, insert ? off + len : off - len);
        }
      }
    }
    const std::string label =
        (shift ? "shift mutant " : "header mutant ") + std::to_string(m);
    auto view = core::ArchiveView::Open(mutant);
    if (!view.ok()) {
      // A mutated version word is the one non-corruption refusal.
      EXPECT_TRUE(view.status().code() == StatusCode::kCorruption ||
                  (!shift &&
                   view.status().code() == StatusCode::kInvalidArgument))
          << label << ": " << view.status();
      continue;
    }
    ++accepted[shift ? 1 : 0];
    ExerciseAcceptedView(*view, label);
    auto decoded = view->Decode();
    if (!decoded.ok()) continue;
    const std::string reencoded = core::EncodeGba(*decoded);
    auto reopened = core::ArchiveView::Open(reencoded);
    ASSERT_TRUE(reopened.ok()) << label << ": " << reopened.status();
    auto redecoded = reopened->Decode();
    ASSERT_TRUE(redecoded.ok()) << label << ": " << redecoded.status();
    EXPECT_EQ(redecoded->ToJsonString(), decoded->ToJsonString()) << label;
  }
  // Both classes must reach past Open() often enough to mean something.
  EXPECT_GT(accepted[0], kMutants / 200);
  EXPECT_GT(accepted[1], kMutants / 40);
}

TEST(ViewFormatTest, HostileTimesSaturateDuration) {
  // Open() accepts any int64 StartTime/EndTime; end - start must saturate
  // rather than overflow (UBSan) on both the view and the decoded tree.
  core::PerformanceArchive archive;
  auto root = std::make_shared<core::ArchivedOperation>();
  root->actor_type = "Job";
  root->mission_type = "Run";
  root->SetInfo("StartTime", Json(INT64_MIN), "measured");
  root->SetInfo("EndTime", Json(INT64_MAX), "measured");
  auto child = std::make_shared<core::ArchivedOperation>();
  child->actor_type = "Worker";
  child->mission_type = "Compute";
  child->SetInfo("StartTime", Json(INT64_MAX), "measured");
  child->SetInfo("EndTime", Json(INT64_MIN), "measured");
  root->children.push_back(std::move(child));
  archive.root = std::move(root);

  const std::string gba = core::EncodeGba(archive);
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->root().Duration(), SimTime::Max());
  EXPECT_EQ(view->root().FirstChild().Duration().nanos(), INT64_MIN);
  EXPECT_EQ(archive.root->Duration(), SimTime::Max());
  EXPECT_EQ(archive.root->children[0]->Duration().nanos(), INT64_MIN);

  // The paths serve's /findings and the bench gate run on these bodies.
  EXPECT_EQ(core::AnalyzeChokepoints(*view, {}).size(),
            core::AnalyzeChokepoints(archive, {}).size());
  EXPECT_EQ(core::FlattenArchiveView(*view, 0),
            core::FlattenArchive(archive, 0));
}

// ----------------------------------------------------- depth limit ------

// A chain of `levels` operations, each with StartTime and EndTime.
core::PerformanceArchive ChainArchive(int levels) {
  core::PerformanceArchive archive;
  std::shared_ptr<core::ArchivedOperation> parent;
  for (int level = levels; level >= 1; --level) {
    auto op = std::make_shared<core::ArchivedOperation>();
    op->actor_type = "Worker";
    op->mission_type = level == 1 ? "Root" : "Step";
    op->SetInfo("StartTime", Json(int64_t{level}), "test");
    op->SetInfo("EndTime", Json(int64_t{1000 - level}), "test");
    if (parent != nullptr) op->children.push_back(std::move(parent));
    parent = std::move(op);
  }
  archive.root = std::move(parent);
  return archive;
}

TEST(ViewDepthTest, ChainAtTheLimitOpensAndRoundTripsThroughJson) {
  const std::string gba =
      core::EncodeGba(ChainArchive(core::kMaxOperationDepth));
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(core::FlattenArchiveView(*view, 0).size(),
            static_cast<size_t>(core::kMaxOperationDepth));
  auto decoded = view->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto parsed = core::PerformanceArchive::FromJsonString(
      decoded->ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(core::EncodeGba(*parsed), gba);
}

TEST(ViewDepthTest, OneLevelDeeperIsCorruptionInEitherForm) {
  const core::PerformanceArchive archive =
      ChainArchive(core::kMaxOperationDepth + 1);
  const std::string gba = core::EncodeGba(archive);
  auto view = core::ArchiveView::Open(gba);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kCorruption) << view.status();
  // The JSON parser's own nesting cap refuses the same tree: the limit is
  // what the JSON form can hold.
  auto json = Json::Parse(archive.ToJsonString());
  ASSERT_FALSE(json.ok());
  EXPECT_NE(json.status().ToString().find("nesting too deep"),
            std::string::npos)
      << json.status();
}

// A root-only archive whose one info is `levels` nested empty arrays.
core::PerformanceArchive NestedInfoArchive(int levels) {
  Json value = Json::MakeArray();
  for (int i = 1; i < levels; ++i) {
    Json outer = Json::MakeArray();
    outer.Append(std::move(value));
    value = std::move(outer);
  }
  auto root = std::make_shared<core::ArchivedOperation>();
  root->actor_type = "Job";
  root->mission_type = "Run";
  root->SetInfo("Nested", std::move(value), "test");
  core::PerformanceArchive archive;
  archive.root = std::move(root);
  return archive;
}

TEST(ViewDepthTest, InfoValueAtTheJsonBudgetRoundTrips) {
  // Empty arrays nested L levels have nesting L - 1.
  const std::string gba =
      core::EncodeGba(NestedInfoArchive(core::MaxInfoValueNesting(1) + 1));
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok()) << view.status();
  auto decoded = view->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto parsed = core::PerformanceArchive::FromJsonString(
      decoded->ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(core::EncodeGba(*parsed), gba);
}

TEST(ViewDepthTest, InfoValueTooDeepForJsonIsCorruption) {
  // One level past the budget, and 300 levels: both fit the decoder's
  // stack, but not the JSON form, so accepting the body would hand out an
  // archive whose JSON never parses.
  for (int levels : {core::MaxInfoValueNesting(1) + 2, 300}) {
    const core::PerformanceArchive archive = NestedInfoArchive(levels);
    EXPECT_FALSE(
        core::PerformanceArchive::FromJsonString(archive.ToJsonString()).ok())
        << levels;
    const std::string gba = core::EncodeGba(archive);
    auto view = core::ArchiveView::Open(gba);  // values are checked lazily
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_EQ(view->Decode().status().code(), StatusCode::kCorruption)
        << levels;
    EXPECT_EQ(view->root().info_value(0).status().code(),
              StatusCode::kCorruption)
        << levels;
  }
}

}  // namespace
}  // namespace granula::platform
