#ifndef GRANULA_BENCH_PAPER_NUMBERS_H_
#define GRANULA_BENCH_PAPER_NUMBERS_H_

// One function per reproduced paper artifact: Figs. 5-8, the
// introduction's Hadoop penalty, the failure diagnosis, ablations A1-A4
// and sweeps S1-S3. Each runs its jobs once and computes every number
// its bench binary prints. The binary prints the artifact's text;
// tests/paper_numbers_test.cc checks the same rows against
// tests/data/paper_numbers.txt, the table EXPERIMENTS.md quotes. Runs
// are deterministic virtual-time simulations, so a row moves only when
// the code does.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace granula::bench {

// One printed number, named "<artifact prefix>.<what>" as in the table.
struct Row {
  std::string name;
  double value = 0;
};

// What an artifact's binary prints, and every number in it.
struct Artifact {
  std::string text;       // the binary's stdout
  std::vector<Row> rows;  // the numbers `text` prints
  std::vector<std::pair<std::string, std::string>> svgs;  // {file, document}

  // Records `value` as row `name` and returns it, so a number is named
  // where it is printed.
  double Number(std::string name, double value);
};

Result<Artifact> Fig5JobDecomposition();
Result<Artifact> Fig6GiraphCpu();
Result<Artifact> Fig7PowerGraphCpu();
Result<Artifact> Fig8SuperstepBreakdown();
Result<Artifact> IntroHadoopPenalty();
Result<Artifact> FailureDiagnosis();
Result<Artifact> AblationGranularity();
Result<Artifact> AblationSampling();
Result<Artifact> AblationPartitioning();
Result<Artifact> AblationDirection();
Result<Artifact> SweepScalability();
Result<Artifact> SweepAlgorithms();
Result<Artifact> SweepDatasets();

struct ArtifactFunction {
  const char* binary;  // the bench target that prints it
  const char* prefix;  // of its row names
  Result<Artifact> (*compute)();
};
inline constexpr ArtifactFunction kArtifacts[] = {
    {"fig5_job_decomposition", "fig5", Fig5JobDecomposition},
    {"fig6_giraph_cpu", "fig6", Fig6GiraphCpu},
    {"fig7_powergraph_cpu", "fig7", Fig7PowerGraphCpu},
    {"fig8_superstep_breakdown", "fig8", Fig8SuperstepBreakdown},
    {"intro_hadoop_penalty", "intro", IntroHadoopPenalty},
    {"failure_diagnosis", "diagnosis", FailureDiagnosis},
    {"ablation_granularity", "a1", AblationGranularity},
    {"ablation_sampling", "a2", AblationSampling},
    {"ablation_partitioning", "a3", AblationPartitioning},
    {"ablation_direction", "a4", AblationDirection},
    {"sweep_scalability", "s1", SweepScalability},
    {"sweep_algorithms", "s2", SweepAlgorithms},
    {"sweep_datasets", "s3", SweepDatasets},
};

// The main of every artifact binary: computes the artifact `binary`
// prints, prints its text and writes its SVG files. Returns 0, or 1
// after naming on stderr the row it could not compute or the file it
// could not write.
int PrintArtifact(std::string_view binary);

}  // namespace granula::bench

#endif  // GRANULA_BENCH_PAPER_NUMBERS_H_
