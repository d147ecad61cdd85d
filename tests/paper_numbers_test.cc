// Every number the paper-artifact benches print, checked instead of only
// printed: each artifact function of bench/paper_numbers.cc (the one its
// binary prints from) runs here, and its rows must equal
// tests/data/paper_numbers.txt, the table EXPERIMENTS.md quotes. A
// computed row missing from the table fails, and so does a table row
// its artifact no longer computes. Runs are deterministic virtual-time
// simulations, so a tolerance only absorbs the rounding of the recorded
// figure. The slow artifacts run as separate ctest entries
// (tests/CMakeLists.txt).

#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bench/paper_numbers.h"
#include "common/strings.h"

namespace granula::bench {

void PrintTo(const ArtifactFunction& artifact, std::ostream* os) {
  *os << artifact.binary;
}

namespace {

struct Expected {
  double value = 0;
  double tolerance = 0;
};

// Lines of "name value tolerance"; '#' starts a comment line.
std::map<std::string, Expected> LoadTable() {
  std::ifstream in(std::string(GRANULA_TEST_DATA_DIR) + "/paper_numbers.txt");
  std::map<std::string, Expected> table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    Expected expected;
    if (!(fields >> name >> expected.value >> expected.tolerance) ||
        expected.tolerance < 0) {
      ADD_FAILURE() << "malformed table line: " << line;
      continue;
    }
    EXPECT_TRUE(table.emplace(name, expected).second)
        << "duplicate table row " << name;
  }
  EXPECT_FALSE(table.empty()) << "cannot read paper_numbers.txt";
  return table;
}

TEST(PaperNumbersTableTest, EveryRowBelongsToAnArtifact) {
  for (const auto& [name, expected] : LoadTable()) {
    bool known = false;
    for (const ArtifactFunction& artifact : kArtifacts) {
      known = known || StartsWith(name, std::string(artifact.prefix) + ".");
    }
    EXPECT_TRUE(known) << "no artifact computes " << name;
  }
}

class PaperNumbersTest : public testing::TestWithParam<ArtifactFunction> {};

TEST_P(PaperNumbersTest, RowsMatchTheTable) {
  const std::string prefix = std::string(GetParam().prefix) + ".";
  Result<Artifact> artifact = GetParam().compute();
  ASSERT_TRUE(artifact.ok()) << artifact.status();

  std::map<std::string, Expected> table;
  for (const auto& [name, expected] : LoadTable()) {
    if (StartsWith(name, prefix)) table.emplace(name, expected);
  }
  std::set<std::string> computed;
  for (const Row& row : artifact->rows) {
    EXPECT_TRUE(StartsWith(row.name, prefix)) << row.name;
    EXPECT_TRUE(computed.insert(row.name).second)
        << "row computed twice: " << row.name;
    auto it = table.find(row.name);
    if (it == table.end()) {
      ADD_FAILURE() << "computed row missing from the table: "
                    << StrFormat("%s %.10g", row.name.c_str(), row.value);
      continue;
    }
    EXPECT_NEAR(row.value, it->second.value, it->second.tolerance)
        << row.name;
  }
  for (const auto& [name, expected] : table) {
    EXPECT_EQ(computed.count(name), 1u) << "table row never computed: " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Artifacts, PaperNumbersTest, testing::ValuesIn(kArtifacts),
    [](const testing::TestParamInfo<ArtifactFunction>& info) {
      return std::string(info.param.prefix);
    });

}  // namespace
}  // namespace granula::bench
