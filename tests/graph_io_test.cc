#include "graph/io.h"

#include <algorithm>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace granula::graph {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(GraphIoTest, WriteReadRoundtripExactOnPath) {
  // A path visits vertices in id order, so first-appearance densification
  // reproduces the original ids exactly.
  Graph original = MakePath(30);
  std::string path = TempPath("path.e");
  ASSERT_TRUE(WriteEdgeListFile(original, path).ok());
  auto read = ReadEdgeListFile(path, /*directed=*/false);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->num_vertices(), original.num_vertices());
  EXPECT_EQ(read->edges(), original.edges());
  EXPECT_FALSE(read->directed());
}

TEST(GraphIoTest, RoundtripPreservesStructure) {
  // Densification may relabel, but the structure must survive: same
  // counts, same degree multiset, same component count.
  Graph original = MakeGrid(5, 5);
  std::string path = TempPath("grid.e");
  ASSERT_TRUE(WriteEdgeListFile(original, path).ok());
  auto read = ReadEdgeListFile(path, false);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_vertices(), original.num_vertices());
  EXPECT_EQ(read->num_edges(), original.num_edges());
  auto degree_multiset = [](const Graph& g) {
    std::vector<uint64_t> degree(g.num_vertices(), 0);
    for (const Edge& e : g.edges()) {
      ++degree[e.src];
      ++degree[e.dst];
    }
    std::sort(degree.begin(), degree.end());
    return degree;
  };
  EXPECT_EQ(degree_multiset(*read), degree_multiset(original));
}

TEST(GraphIoTest, WrittenBytesMatchSimulatedSize) {
  auto g = GenerateUniform(200, 800, 3);
  ASSERT_TRUE(g.ok());
  std::string path = TempPath("uniform.e");
  ASSERT_TRUE(WriteEdgeListFile(*g, path).ok());
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(file.good());
  EXPECT_EQ(static_cast<uint64_t>(file.tellg()), EdgeListFileBytes(*g));
}

TEST(GraphIoTest, ReadDensifiesSparseIds) {
  std::string path = TempPath("sparse.e");
  {
    std::ofstream file(path);
    file << "# a comment\n\n1000000 42\n42 7\n7 1000000\n";
  }
  auto g = ReadEdgeListFile(path, /*directed=*/true);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), 3u);  // 1000000, 42, 7 densified
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_EQ(g->edges()[0], (Edge{0, 1}));
  EXPECT_EQ(g->edges()[1], (Edge{1, 2}));
  EXPECT_EQ(g->edges()[2], (Edge{2, 0}));
  EXPECT_TRUE(g->directed());
}

TEST(GraphIoTest, ReadRejectsMalformedLines) {
  std::string path = TempPath("bad.e");
  {
    std::ofstream file(path);
    file << "1 2\nnot numbers\n";
  }
  auto g = ReadEdgeListFile(path, false);
  EXPECT_EQ(g.status().code(), StatusCode::kCorruption);
  EXPECT_NE(g.status().message().find(":2:"), std::string::npos);
}

TEST(GraphIoTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadEdgeListFile("/no/such/file.e", false).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(WriteEdgeListFile(MakePath(3), "/no/such/dir/x.e").code(),
            StatusCode::kIoError);
}

TEST(GraphIoTest, EmptyFileIsEmptyGraph) {
  std::string path = TempPath("empty.e");
  { std::ofstream file(path); }
  auto g = ReadEdgeListFile(path, false);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
}

TEST(GraphIoTest, ValuesFileFormat) {
  std::string path = TempPath("values.txt");
  ASSERT_TRUE(WriteValuesFile({0.0, 2.5, 1e300}, path).ok());
  std::ifstream file(path);
  std::string line;
  std::getline(file, line);
  EXPECT_EQ(line, "0 0");
  std::getline(file, line);
  EXPECT_EQ(line, "1 2.5");
  std::getline(file, line);
  EXPECT_EQ(line.substr(0, 2), "2 ");
}

TEST(GraphIoTest, LargeRoundtripPreservesEverything) {
  auto g = GenerateDatagen([] {
    DatagenConfig config;
    config.num_vertices = 3000;
    config.avg_degree = 6.0;
    config.seed = 13;
    return config;
  }());
  ASSERT_TRUE(g.ok());
  std::string path = TempPath("datagen.e");
  ASSERT_TRUE(WriteEdgeListFile(*g, path).ok());
  auto read = ReadEdgeListFile(path, false);
  ASSERT_TRUE(read.ok());
  // Vertex ids are already dense and appear in order, so the roundtrip is
  // exact (isolated vertices are the one lossy case, checked below).
  EXPECT_EQ(read->num_edges(), g->num_edges());
}

// Pins the reader's grammar byte for byte: which lines it accepts, the
// line number a rejection names, and the densified result. A line is split
// on '\n' only; it is skipped when, trimmed of space/tab/CR/LF, it is empty
// or starts with '#'. Otherwise it must start (after any whitespace) with
// two decimal fields, each with an optional sign, the second after
// optional whitespace; anything after the second field is ignored. A '-'
// negates modulo 2^64; a magnitude over 2^64 - 1 is rejected.
struct ReaderCase {
  const char* name;
  std::string text;
  size_t error_line;  // 0: accepted
  uint64_t vertices;
  std::vector<Edge> edges;
};

TEST(GraphIoTest, ReaderGrammarIsPinned) {
  const std::vector<ReaderCase> cases = {
      {"crlf", "1 2\r\n2 3\r\n", 0, 3, {{0, 1}, {1, 2}}},
      {"tabs", "1\t2\n\t3\t\t1\t\n", 0, 3, {{0, 1}, {2, 0}}},
      {"blanks", "   1 2   \n  2    3\n", 0, 3, {{0, 1}, {1, 2}}},
      {"vertical_tab_and_form_feed", "\f1\v2\n", 0, 2, {{0, 1}}},
      {"comments_and_blank_lines",
       "# header\n\n   \n\t# indented\n\r\n5 6\n#7 8\n", 0, 2, {{0, 1}}},
      {"last_line_without_newline", "1 2\n3 4", 0, 4, {{0, 1}, {2, 3}}},
      {"trailing_field", "1 2 3\n", 0, 2, {{0, 1}}},
      {"trailing_garbage", "1 2abc\n", 0, 2, {{0, 1}}},
      {"trailing_comment", "1 2 # note\n", 0, 2, {{0, 1}}},
      {"no_space_before_signed_second", "1+2\n", 0, 2, {{0, 1}}},
      {"plus_sign", "+5 6\n", 0, 2, {{0, 1}}},
      {"minus_one_wraps", "-1 2\n", 0, 2, {{0, 1}}},
      {"minus_zero", "-0 0\n", 0, 1, {{0, 0}}},
      {"leading_zeros", "007 7\n", 0, 1, {{0, 0}}},
      {"max_u64", "18446744073709551615 0\n", 0, 2, {{0, 1}}},
      {"lone_cr_is_not_a_line_end", "1 2\r3 4\n", 0, 2, {{0, 1}}},
      {"self_loop_and_duplicate", "4 4\n4 4\n", 0, 1, {{0, 0}, {0, 0}}},
      {"first_encounter_order", "9 3\n3 7\n7 9\n", 0, 3,
       {{0, 1}, {1, 2}, {2, 0}}},
      {"nul_after_fields", std::string("1 2\0x\n", 6), 0, 2, {{0, 1}}},
      {"hex", "1 2\n0x10 2\n", 2, 0, {}},
      {"single_field", "1 2\n\n3\n", 3, 0, {}},
      {"overflow", "18446744073709551616 1\n", 1, 0, {}},
      {"negative_overflow", "-18446744073709551616 1\n", 1, 0, {}},
      {"sign_without_digits", "+ 1 2\n", 1, 0, {}},
      {"double_sign", "--1 2\n", 1, 0, {}},
      {"garbage_before_second", "1abc 2\n", 1, 0, {}},
      {"comment_after_vertical_tab", "\v# x\n", 1, 0, {}},
      {"nul_line", std::string("\0\n", 2), 1, 0, {}},
      {"reject_after_crlf_lines", "1 2\r\n2 3\r\nx\r\n", 3, 0, {}},
      {"reject_on_last_unterminated_line", "1 2\n2 x", 2, 0, {}},
  };
  for (const ReaderCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::string path = TempPath(std::string("pin_") + c.name + ".e");
    {
      std::ofstream file(path, std::ios::binary);
      file << c.text;
    }
    auto g = ReadEdgeListFile(path, /*directed=*/false);
    if (c.error_line != 0) {
      ASSERT_FALSE(g.ok());
      EXPECT_EQ(g.status().code(), StatusCode::kCorruption);
      EXPECT_EQ(g.status().message(),
                path + ":" + std::to_string(c.error_line) +
                    ": expected 'src dst'");
      continue;
    }
    ASSERT_TRUE(g.ok()) << g.status();
    EXPECT_EQ(g->num_vertices(), c.vertices);
    EXPECT_EQ(g->edges(), c.edges);
  }
  // The raw ids the wrapping cases read: -1 is 2^64 - 1, so it and the
  // literal maximum are one vertex.
  std::string path = TempPath("pin_wrap_identity.e");
  {
    std::ofstream file(path, std::ios::binary);
    file << "-1 18446744073709551615\n-18446744073709551615 1\n";
  }
  auto g = ReadEdgeListFile(path, false);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), 2u);
  EXPECT_EQ(g->edges(), (std::vector<Edge>{{0, 0}, {1, 1}}));
}

TEST(GraphIoTest, IsolatedVerticesAreDroppedOnRead) {
  // The text format cannot express vertices with no edges; document it.
  auto g = Graph::Create(5, {{0, 1}}, false);
  std::string path = TempPath("isolated.e");
  ASSERT_TRUE(WriteEdgeListFile(*g, path).ok());
  auto read = ReadEdgeListFile(path, false);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_vertices(), 2u);
}

}  // namespace
}  // namespace granula::graph
