// The reproduction's headline numbers, checked instead of only printed by
// bench/fig*: Fig. 5's domain-level breakdowns, Fig. 7's sequential-read
// fraction, Fig. 8's dominant superstep, and the introduction's
// Hadoop/Giraph processing-time penalty, all on the dg_scale reference
// workload of bench/workloads.h. Runs are deterministic virtual-time
// simulations, so the tolerances only absorb rounding of the recorded
// figures (EXPERIMENTS.md).

#include <string>

#include <gtest/gtest.h>

#include "bench/workloads.h"
#include "platforms/hadoop.h"

namespace granula::bench {
namespace {

struct Breakdown {
  double setup = 0;
  double io = 0;
  double processing = 0;
};

Breakdown SharesOf(const core::PerformanceArchive& archive) {
  const core::ArchivedOperation& root = *archive.root;
  double total = root.Duration().seconds();
  return {root.InfoNumber("SetupTime") * 1e-9 / total,
          root.InfoNumber("IoTime") * 1e-9 / total,
          root.InfoNumber("ProcessingTime") * 1e-9 / total};
}

double ProcessingSeconds(const platform::JobResult& result) {
  auto archive = core::Archiver().Build(
      core::MakeGraphProcessingDomainModel(), result.records, {}, {});
  EXPECT_TRUE(archive.ok()) << archive.status();
  return archive->root->InfoNumber("ProcessingTime") * 1e-9;
}

class PaperNumbersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    giraph_ = new platform::JobResult(RunGiraphReferenceJob());
    powergraph_ = new platform::JobResult(RunPowerGraphReferenceJob());
  }
  static void TearDownTestSuite() {
    delete giraph_;
    delete powergraph_;
  }

  static platform::JobResult* giraph_;
  static platform::JobResult* powergraph_;
};

platform::JobResult* PaperNumbersTest::giraph_ = nullptr;
platform::JobResult* PaperNumbersTest::powergraph_ = nullptr;

TEST_F(PaperNumbersTest, Fig5GiraphBreakdown) {
  Breakdown b =
      SharesOf(ArchiveJob(*giraph_, core::MakeGiraphModel(), "Giraph"));
  EXPECT_NEAR(b.setup * 100, 30.4, 0.1);
  EXPECT_NEAR(b.io * 100, 46.6, 0.1);
  EXPECT_NEAR(b.processing * 100, 23.1, 0.1);
}

TEST_F(PaperNumbersTest, Fig5PowerGraphIoShare) {
  Breakdown b = SharesOf(
      ArchiveJob(*powergraph_, core::MakePowerGraphModel(), "PowerGraph"));
  EXPECT_NEAR(b.io * 100, 96.8, 0.1);
}

TEST_F(PaperNumbersTest, Fig7SequentialReadFraction) {
  core::PerformanceArchive archive =
      ArchiveJob(*powergraph_, core::MakePowerGraphModel(), "PowerGraph");
  const core::ArchivedOperation* load =
      archive.FindByPath("PowerGraphJob/LoadGraph");
  ASSERT_NE(load, nullptr);
  EXPECT_NEAR(load->InfoNumber("SequentialReadFraction") * 100, 93.8, 0.1);
}

TEST_F(PaperNumbersTest, Fig8Compute4IsTheHeaviestSuperstep) {
  core::PerformanceArchive archive =
      ArchiveJob(*giraph_, core::MakeGiraphModel(), "Giraph");
  std::string heaviest;
  double heaviest_seconds = 0;
  for (const core::ArchivedOperation* op :
       archive.FindOperations("Worker", "Compute")) {
    double seconds = op->Duration().seconds();
    if (seconds > heaviest_seconds) {
      heaviest_seconds = seconds;
      heaviest = op->mission_id;
    }
  }
  EXPECT_EQ(heaviest, "Compute-4");
}

TEST_F(PaperNumbersTest, HadoopProcessingPenaltyOverGiraph) {
  auto hadoop = platform::HadoopPlatform().Run(
      MakeDgScaleGraph(), MakeBfsSpec(), MakeDas5LikeCluster(),
      MakeJobConfig());
  ASSERT_TRUE(hadoop.ok()) << hadoop.status();
  EXPECT_NEAR(ProcessingSeconds(*hadoop) / ProcessingSeconds(*giraph_), 15.4,
              0.05);
}

}  // namespace
}  // namespace granula::bench
