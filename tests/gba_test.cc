// The GBA binary codec's one contract: for every archive the pipeline can
// produce, ToJson(Decode(Encode(a))) == ToJson(a), byte for byte. These
// tests sweep that across all five implemented platforms x three
// algorithms, faulted and quarantined runs, randomized info values, and a
// committed golden fixture that fails loudly if the format ever changes
// without a version bump. Partial decodes (one subtree, level cuts) must
// agree exactly with the full decode.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
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

class PoolSizeGuard {
 public:
  PoolSizeGuard() : original_(ThreadPool::Global().num_threads()) {}
  ~PoolSizeGuard() { ThreadPool::Global().Resize(original_); }

 private:
  int original_;
};

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

// The contract under test, spelled out once.
void ExpectByteExactRoundTrip(const core::PerformanceArchive& archive,
                              const std::string& label) {
  const std::string gba = core::EncodeGba(archive);
  EXPECT_TRUE(core::LooksLikeGba(gba)) << label;
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok()) << label << ": " << view.status();
  auto decoded = view->Decode();
  ASSERT_TRUE(decoded.ok()) << label << ": " << decoded.status();
  EXPECT_EQ(decoded->ToJsonString(), archive.ToJsonString())
      << label << ": decode(encode(a)) diverged";
  // Determinism: equal archives encode to identical bytes.
  EXPECT_EQ(core::EncodeGba(*decoded), gba) << label;
}

// ------------------------------------------------ platform sweep ----------

class GbaPlatformSweep
    : public ::testing::TestWithParam<std::tuple<int, algo::AlgorithmId>> {};

TEST_P(GbaPlatformSweep, RoundTripIsByteExact) {
  const auto [which, id] = GetParam();
  ExpectByteExactRoundTrip(BuildArchive(which, id), kPlatformNames[which]);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, GbaPlatformSweep,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(algo::AlgorithmId::kBfs,
                                         algo::AlgorithmId::kPageRank,
                                         algo::AlgorithmId::kWcc)));

TEST(GbaFaultedTest, CrashRecoveryArchivesRoundTrip) {
  // Failure operations (FailedAttempt/Restart), LostTime metrics, and the
  // fault-shaped tree must all survive the binary form.
  for (int which = 0; which < 5; ++which) {
    JobConfig job;
    sim::FaultSpec crash;
    crash.kind = sim::FaultKind::kWorkerCrash;
    crash.worker = 2;
    crash.step = 1;
    job.faults.Add(crash);
    ExpectByteExactRoundTrip(
        BuildArchive(which, algo::AlgorithmId::kPageRank, job),
        std::string(kPlatformNames[which]) + " faulted");
  }
}

TEST(GbaFaultedTest, QuarantinedArchiveRoundTripsLintReport) {
  // A torn log repaired under Tolerance::kRepair carries a non-empty
  // quarantine section; the lint findings must round trip exactly.
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

  const std::string gba = core::EncodeGba(*archive);
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok()) << view.status();
  auto decoded = view->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->lint, archive->lint);
  EXPECT_EQ(decoded->ToJsonString(), archive->ToJsonString());
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

TEST(GbaPropertyTest, RandomInfoValuesRoundTripByteExact) {
  // Every Json shape an info can carry — nulls, both bools, full-range
  // ints, doubles, strings, nested arrays/objects — through the tagged
  // binary value encoding. 40 seeded variants on a real archive.
  core::PerformanceArchive base = BuildArchive(0, algo::AlgorithmId::kBfs);
  Rng rng(20260809);
  for (int iteration = 0; iteration < 40; ++iteration) {
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
    ExpectByteExactRoundTrip(archive,
                             "iteration " + std::to_string(iteration));
  }
}

// ------------------------------------------------- partial decodes --------

TEST(GbaPartialTest, SubtreeMatchesFindByPath) {
  core::PerformanceArchive archive =
      BuildArchive(0, algo::AlgorithmId::kPageRank);
  const std::string gba = core::EncodeGba(archive);
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok());

  // Pick a mid-tree path from the archive itself: the root's second child.
  ASSERT_GE(archive.root->children.size(), 2u);
  const core::ArchivedOperation& child = *archive.root->children[1];
  const std::string segment =
      child.mission_id.empty() ? child.mission_type : child.mission_id;
  const std::string path = archive.root->mission_id + "/" + segment;

  const core::ArchivedOperation* expected = archive.FindByPath(path);
  ASSERT_NE(expected, nullptr) << path;
  auto subtree = view->DecodeSubtree(path);
  ASSERT_TRUE(subtree.ok()) << path << ": " << subtree.status();
  EXPECT_EQ((*subtree)->ToJson().Dump(2), expected->ToJson().Dump(2));
  EXPECT_EQ((*subtree)->SubtreeSize(), expected->SubtreeSize());

  auto missing = view->DecodeSubtree("Root/NoSuchChild");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(GbaPartialTest, ShallowDecodeCutsAtLevel) {
  core::PerformanceArchive archive =
      BuildArchive(0, algo::AlgorithmId::kPageRank);
  const std::string gba = core::EncodeGba(archive);
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok());

  auto level1 = view->Decode(1);
  ASSERT_TRUE(level1.ok());
  EXPECT_EQ(level1->OperationCount(), 1u);  // root only
  EXPECT_TRUE(level1->root->children.empty());
  // The cut drops children, never the root's own payload.
  EXPECT_EQ(level1->root->infos.size(), archive.root->infos.size());

  auto level2 = view->Decode(2);
  ASSERT_TRUE(level2.ok());
  EXPECT_EQ(level2->OperationCount(), 1u + archive.root->children.size());

  auto full = view->Decode(0);  // <= 0: no cut
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->ToJsonString(), archive.ToJsonString());
}

// ------------------------------------------------- format hygiene --------

TEST(GbaFormatTest, RejectsBadMagicAndWrongVersion) {
  core::PerformanceArchive archive = BuildArchive(0, algo::AlgorithmId::kBfs);
  std::string gba = core::EncodeGba(archive);

  std::string bad_magic = gba;
  bad_magic[0] = 'X';
  EXPECT_FALSE(core::LooksLikeGba(bad_magic));
  EXPECT_FALSE(core::ArchiveView::Open(bad_magic).ok());

  std::string bad_version = gba;
  bad_version[4] = static_cast<char>(core::kGbaVersion + 1);
  auto view = core::ArchiveView::Open(bad_version);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(view.status().message().find("version"), std::string::npos);
  EXPECT_EQ(core::ArchiveView::Open(bad_magic).status().code(),
            StatusCode::kCorruption);
}

TEST(GbaFormatTest, SizeMismatchAndCorruptColumnsAreCorruption) {
  core::PerformanceArchive archive = BuildArchive(0, algo::AlgorithmId::kBfs);
  const std::string gba = core::EncodeGba(archive);

  const std::string padded = gba + '\0';
  EXPECT_EQ(core::ArchiveView::Open(padded).status().code(),
            StatusCode::kCorruption);

  auto get_u64 = [](const std::string& bytes, uint64_t at) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= uint64_t{static_cast<uint8_t>(bytes[at + i])} << (8 * i);
    }
    return v;
  };
  auto expect_corruption = [](const std::string& bytes, const char* what) {
    auto view = core::ArchiveView::Open(bytes);
    ASSERT_FALSE(view.ok()) << what;
    EXPECT_EQ(view.status().code(), StatusCode::kCorruption) << what;
  };

  // Point row 0's actor_type at a symbol id past the string table. The
  // ops section offset is the third u64 of the section table.
  const uint64_t ops_off = get_u64(gba, 32);
  std::string bad_symbol = gba;
  for (int i = 0; i < 4; ++i) bad_symbol[ops_off + 4 + i] = '\xff';
  expect_corruption(bad_symbol, "symbol id out of range");

  // A string-blob length (offsets[count]) so large that blob start +
  // length wraps around u64: the offsets stay monotonic, so only an
  // overflow-safe bounds check catches it.
  const uint64_t strings_off = get_u64(gba, 16);
  uint32_t count = 0;
  for (int i = 0; i < 4; ++i) {
    count |= uint32_t{static_cast<uint8_t>(gba[strings_off + i])} << (8 * i);
  }
  std::string wrapped = gba;
  const uint64_t last = strings_off + 4 + 8 * uint64_t{count};
  const uint64_t huge = ~uint64_t{0} - 7;
  for (int i = 0; i < 8; ++i) {
    wrapped[last + i] = static_cast<char>(huge >> (8 * i));
  }
  expect_corruption(wrapped, "wrapping blob length");
}

TEST(GbaFormatTest, TruncationIsCorruptionNeverACrash) {
  core::PerformanceArchive archive = BuildArchive(0, algo::AlgorithmId::kBfs);
  const std::string gba = core::EncodeGba(archive);
  // Every prefix strictly shorter than the file must fail cleanly, as
  // Corruption, before any decode runs. Step through a spread of cut
  // points, always including the header boundary.
  for (size_t cut : {size_t{0}, size_t{4}, size_t{16}, size_t{71},
                     gba.size() / 4, gba.size() / 2, gba.size() - 1}) {
    const std::string prefix = gba.substr(0, cut);
    auto view = core::ArchiveView::Open(prefix);
    ASSERT_FALSE(view.ok()) << "cut at " << cut;
    EXPECT_EQ(view.status().code(), StatusCode::kCorruption)
        << "cut at " << cut;
  }
}

TEST(GbaFormatTest, ByteIdenticalAcrossHostThreadCounts) {
  // GRANULA_HOST_THREADS is a pure performance knob: the encoded bytes
  // must not depend on the pool size, or packed repositories would stop
  // being diffable across machines.
  PoolSizeGuard guard;
  std::vector<std::string> encodings;
  for (int threads : {1, 2, 8}) {
    ThreadPool::Global().Resize(threads);
    encodings.push_back(
        core::EncodeGba(BuildArchive(0, algo::AlgorithmId::kPageRank)));
  }
  EXPECT_EQ(encodings[0], encodings[1]);
  EXPECT_EQ(encodings[0], encodings[2]);
}

// ------------------------------------------------- golden fixture --------

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(GbaGoldenTest, CommittedFixtureStillEncodesByteExact) {
  // tests/data/golden_archive.{json,gba} are the same archive in both
  // formats, committed once. If this test fails you changed the on-disk
  // GBA layout: bump kGbaVersion, keep a reader for the old version (or
  // document the break), and regenerate the fixture — do NOT just refresh
  // the bytes and move on.
  const std::string dir = GRANULA_TEST_DATA_DIR;
  const std::string golden_json = ReadFileOrDie(dir + "/golden_archive.json");
  const std::string golden_gba = ReadFileOrDie(dir + "/golden_archive.gba");
  ASSERT_FALSE(golden_json.empty());
  ASSERT_FALSE(golden_gba.empty());

  auto archive = core::PerformanceArchive::FromJsonString(golden_json);
  ASSERT_TRUE(archive.ok()) << archive.status();

  EXPECT_EQ(core::kGbaVersion, 1u)
      << "version bumped: regenerate the golden fixture and keep this test "
         "honest about the new layout";
  const std::string encoded = core::EncodeGba(*archive);
  ASSERT_EQ(encoded.size(), golden_gba.size())
      << "GBA layout changed without a version bump";
  EXPECT_TRUE(encoded == golden_gba)
      << "GBA byte layout changed without a version bump";

  auto view = core::ArchiveView::Open(golden_gba);
  ASSERT_TRUE(view.ok()) << view.status();
  auto decoded = view->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->ToJsonString(), archive->ToJsonString());
}

}  // namespace
}  // namespace granula::platform
