// The JSONL fast-path codec contract (DESIGN.md "Serialization fast
// paths"): AppendJsonl is byte-identical to ToJson().Dump(0) for every
// record all five platforms emit, ParseJsonl agrees with the DOM path on
// canonical and non-canonical lines alike (values and errors), and the
// parallel ReadLogRecords returns byte-identical sequences at 1, 2, and 8
// host threads.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "granula/monitor/job_logger.h"
#include "graph/generators.h"
#include "platforms/giraph.h"
#include "platforms/graphmat.h"
#include "platforms/hadoop.h"
#include "platforms/pgxd.h"
#include "platforms/powergraph.h"

namespace granula::core {
namespace {

using platform::JobConfig;
using platform::JobResult;

std::string FreshPath(const std::string& name) {
  std::string path = testing::TempDir() + "/jsonl_codec_" + name + ".jsonl";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return path;
}

class PoolSizeGuard {
 public:
  PoolSizeGuard() : original_(ThreadPool::Global().num_threads()) {}
  ~PoolSizeGuard() { ThreadPool::Global().Resize(original_); }

 private:
  int original_;
};

std::vector<LogRecord> RunPlatform(const std::string& name,
                                   algo::AlgorithmId id) {
  graph::DatagenConfig config;
  config.num_vertices = 1200;
  config.avg_degree = 6.0;
  config.seed = 23;
  auto graph = graph::GenerateDatagen(config);
  EXPECT_TRUE(graph.ok()) << graph.status();

  algo::AlgorithmSpec spec;
  spec.id = id;
  spec.source = 1;
  spec.max_iterations = 3;

  cluster::ClusterConfig cluster;
  JobConfig job;
  Result<JobResult> result = Status::Internal("unset");
  if (name == "giraph") {
    result = platform::GiraphPlatform().Run(*graph, spec, cluster, job);
  } else if (name == "powergraph") {
    result = platform::PowerGraphPlatform().Run(*graph, spec, cluster, job);
  } else if (name == "hadoop") {
    result = platform::HadoopPlatform().Run(*graph, spec, cluster, job);
  } else if (name == "pgxd") {
    result = platform::PgxdPlatform().Run(*graph, spec, cluster, job);
  } else {
    result = platform::GraphMatPlatform().Run(*graph, spec, cluster, job);
  }
  EXPECT_TRUE(result.ok()) << name << ": " << result.status();
  return std::move(result->records);
}

std::string FastLine(const LogRecord& r) {
  std::string line;
  r.AppendJsonl(line);
  return line;
}

// Serialized-byte equality is full-field equality: every LogRecord field
// participates in the line format.
void ExpectSameRecord(const LogRecord& a, const LogRecord& b,
                      const std::string& context) {
  EXPECT_EQ(FastLine(a), FastLine(b)) << context;
}

// The legacy DOM path, verbatim — the reference ParseJsonl must match.
Result<LogRecord> DomParse(std::string_view line) {
  auto parsed = Json::Parse(line);
  if (!parsed.ok()) return parsed.status();
  return LogRecord::FromJson(*parsed);
}

// ----------------------------------------------- writer byte-identity ----

TEST(JsonlCodecTest, AppendJsonlMatchesDomDumpOverFullPlatformRuns) {
  const char* kPlatforms[] = {"giraph", "powergraph", "hadoop", "pgxd",
                              "graphmat"};
  for (const char* name : kPlatforms) {
    for (algo::AlgorithmId id :
         {algo::AlgorithmId::kBfs, algo::AlgorithmId::kPageRank}) {
      std::vector<LogRecord> records = RunPlatform(name, id);
      ASSERT_FALSE(records.empty()) << name;
      for (const LogRecord& r : records) {
        ASSERT_EQ(FastLine(r), r.ToJson().Dump(0))
            << name << " seq=" << r.seq;
      }
    }
  }
}

TEST(JsonlCodecTest, AppendJsonlMatchesDomDumpOnEdgeRecords) {
  std::vector<LogRecord> records;

  LogRecord start;
  start.kind = LogRecord::Kind::kStartOp;
  start.seq = 3;
  start.time = SimTime::Nanos(-17);  // negative virtual time survives
  start.op_id = 7;
  start.parent_id = 0;
  start.actor_type = "Worker \"3\"\\path";
  start.actor_id = "";  // omitted key
  start.mission_type = "Mission\nwith\tcontrol\x01bytes";
  start.mission_id = "unicode-\xf0\x9f\x98\x80";
  records.push_back(start);

  LogRecord end;
  end.kind = LogRecord::Kind::kEndOp;
  end.seq = UINT64_MAX;  // stored as a double by Json(uint64_t), by design
  end.time = SimTime::Max();
  end.op_id = static_cast<uint64_t>(INT64_MAX);
  records.push_back(end);

  LogRecord info;
  info.kind = LogRecord::Kind::kInfo;
  info.seq = 5;
  info.time = SimTime::Nanos(INT64_MIN);
  info.op_id = 7;
  info.info_name = "Payload";
  Json value;
  value["nested"] = Json::Array{Json(int64_t{1}), Json(2.5), Json("x\"y")};
  value["flag"] = true;
  value["none"] = nullptr;
  info.info_value = std::move(value);
  records.push_back(info);

  LogRecord empty_info;
  empty_info.kind = LogRecord::Kind::kInfo;
  empty_info.info_name = "";
  records.push_back(empty_info);  // info_value stays null

  for (const LogRecord& r : records) {
    EXPECT_EQ(FastLine(r), r.ToJson().Dump(0)) << "seq=" << r.seq;
  }
}

// ------------------------------------------------------ reader parity ----

TEST(JsonlCodecTest, ParseJsonlRoundtripsCanonicalLines) {
  std::vector<LogRecord> records = RunPlatform("giraph", algo::AlgorithmId::kBfs);
  ASSERT_FALSE(records.empty());
  for (const LogRecord& r : records) {
    const std::string line = FastLine(r);
    auto parsed = LogRecord::ParseJsonl(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status();
    ExpectSameRecord(*parsed, r, line);
  }
}

TEST(JsonlCodecTest, ParseJsonlMatchesDomPathOnNonCanonicalLines) {
  const char* kLines[] = {
      // Canonical shapes, for the fast path proper.
      R"({"kind":"end","op":1,"seq":2,"t":3})",
      R"({"actor_type":"Job","kind":"start","mission_type":"Root","op":1,"parent":0,"seq":0,"t":0})",
      R"({"kind":"info","name":"M","op":4,"seq":9,"t":12,"value":{"a":[1,2.5],"b":"x"}})",
      R"({"kind":"info","name":"M","op":4,"seq":9,"t":12,"value":null})",
      // Whitespace and reordered keys → DOM fallback, same record.
      R"( {"kind":"end","op":1,"seq":2,"t":3} )",
      R"({"t":3,"seq":2,"op":1,"kind":"end"})",
      R"({"kind": "end", "op": 1, "seq": 2, "t": 3})",
      // Escapes in strings → DOM fallback.
      R"({"actor_type":"Job\n\"x\"","kind":"start","mission_type":"Ré","op":1,"parent":0,"seq":0,"t":0})",
      // Exotic numbers: doubles where integers are expected.
      R"({"kind":"end","op":1.5,"seq":2e2,"t":-3.25})",
      R"({"kind":"end","op":1,"seq":99999999999999999999999,"t":3})",
      R"({"kind":"end","op":-4,"seq":2,"t":3})",
      // Unknown and duplicate keys (last wins, both paths).
      R"({"extra":42,"kind":"end","op":1,"seq":2,"t":3})",
      R"({"kind":"end","op":1,"op":7,"seq":2,"t":3})",
      // Missing keys fall back to defaults in both paths.
      R"({"kind":"start"})",
      R"({"kind":"info","op":4})",
      // Error cases: both paths must report the identical status.
      R"({})",
      R"({"kind":"weird","op":1,"seq":2,"t":3})",
      R"([1,2,3])",
      R"("just a string")",
      R"({"kind":"end","op":1,"seq":2,"t":3)",
      R"({oops})",
      R"(not json at all)",
      R"({"kind":"info","name":"M","op":4,"seq":9,"t":12,"value":{"a":[1}})",
  };
  for (const char* line : kLines) {
    auto fast = LogRecord::ParseJsonl(line);
    auto dom = DomParse(line);
    ASSERT_EQ(fast.ok(), dom.ok()) << line;
    if (fast.ok()) {
      ExpectSameRecord(*fast, *dom, line);
    } else {
      EXPECT_EQ(fast.status().ToString(), dom.status().ToString()) << line;
    }
  }
}

// ------------------------------------------------------ parallel read ----

std::vector<LogRecord> MakeMixedLog(size_t supersteps) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "job-0", "Root");
  for (size_t s = 0; s < supersteps; ++s) {
    OpId step = logger.StartOperation(root, "Master", "", "Superstep",
                                      "Superstep-" + std::to_string(s));
    for (int w = 0; w < 4; ++w) {
      OpId work = logger.StartOperation(
          step, "Worker", "Worker-" + std::to_string(w), "Compute");
      logger.AddInfo(work, "MessagesSent", Json(int64_t{1000 + w}));
      if (w == 0) {
        Json payload;
        payload["escape"] = "line\nbreak \"quoted\"";
        payload["ratio"] = 0.125;
        payload["unicode"] = "\xe4\xb8\xad";
        logger.AddInfo(work, "Payload", std::move(payload));
      }
      now += SimTime::Micros(250);
      logger.EndOperation(work);
    }
    logger.EndOperation(step);
  }
  logger.EndOperation(root);
  return logger.TakeRecords();
}

std::string SerializeAll(const std::vector<LogRecord>& records) {
  std::string out;
  for (const LogRecord& r : records) {
    r.AppendJsonl(out);
    out += '\n';
  }
  return out;
}

// Hostile bytes: seeded mutations of canonical lines (byte flips,
// truncations, inserted JSON-significant tokens) must be accepted or
// rejected exactly as the DOM path does, with the same record or the same
// error. Mutated lines that stay canonical exercise the fast scan itself.
TEST(JsonlCodecTest, MutatedCanonicalLinesMatchDomPath) {
  std::vector<std::string> lines;
  for (const LogRecord& r : MakeMixedLog(2)) lines.push_back(FastLine(r));
  const std::vector<std::string> inserts = {
      "\"", "\\", "{", "}", "[", "]", ",", ":", " ", "-", ".", "e", "0",
      "9", std::string(1, '\0'), "\xff", "\xc3", "\\u0000", "\\ud800",
      "\\uDC00", ",\"op\":7", ",\"seq\":-1", ",\"kind\":\"end\"",
      "99999999999999999999", "18446744073709551616", "-9223372036854775809",
      "1e309", "-0", "0.5", "null", "true", "\"kind\":\"info\","};
  Rng rng(20);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string line = lines[rng.NextBounded(lines.size())];
    const uint64_t mutations = 1 + rng.NextBounded(3);
    for (uint64_t m = 0; m < mutations; ++m) {
      const size_t at = rng.NextBounded(line.size() + 1);
      switch (rng.NextBounded(3)) {
        case 0:  // flip a byte
          if (at < line.size()) {
            line[at] = static_cast<char>(rng.NextBounded(256));
          }
          break;
        case 1:  // truncate
          line.resize(at);
          break;
        default:  // insert a JSON-significant token
          line.insert(at, inserts[rng.NextBounded(inserts.size())]);
          break;
      }
    }
    auto fast = LogRecord::ParseJsonl(line);
    auto dom = DomParse(line);
    ASSERT_EQ(fast.ok(), dom.ok()) << "round " << round << ": " << line;
    if (fast.ok()) {
      ++accepted;
      ExpectSameRecord(*fast, *dom, line);
    } else {
      ++rejected;
      EXPECT_EQ(fast.status().ToString(), dom.status().ToString()) << line;
    }
    if (testing::Test::HasFailure()) return;
  }
  // Both verdicts must have had something to check.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

TEST(JsonlCodecTest, ParallelReadIsByteIdenticalAcrossHostThreadCounts) {
  // ~4200 records: comfortably more than one ChunkedGrain chunk.
  std::vector<LogRecord> records = MakeMixedLog(300);
  ASSERT_GT(records.size(), 4000u);
  const std::string path = FreshPath("parallel");
  ASSERT_TRUE(WriteLogRecords(path, records).ok());

  const std::string expected = SerializeAll(records);
  PoolSizeGuard guard;
  for (int threads : {1, 2, 8}) {
    ThreadPool::Global().Resize(threads);
    auto read = ReadLogRecords(path);
    ASSERT_TRUE(read.ok()) << read.status();
    ASSERT_EQ(read->size(), records.size()) << threads << " threads";
    EXPECT_TRUE(SerializeAll(*read) == expected)
        << "parallel read diverges at " << threads << " host threads";
  }
}

TEST(JsonlCodecTest, ParallelReadSkipsBlankLinesAndFinalUnterminatedLine) {
  const std::string path = FreshPath("blanks");
  std::vector<LogRecord> records = MakeMixedLog(2);
  std::ofstream out(path, std::ios::binary);
  out << "\n   \n\t\r\n";
  std::string body;
  for (const LogRecord& r : records) {
    r.AppendJsonl(body);
    body += '\n';
  }
  out << body << "\n";
  // Final line with no trailing newline must still be read.
  std::string last;
  records.front().AppendJsonl(last);
  out << last;
  out.close();

  auto read = ReadLogRecords(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->size(), records.size() + 1);
  ExpectSameRecord(read->back(), records.front(), "unterminated last line");
}

TEST(JsonlCodecTest, CorruptLineErrorIsIdenticalAcrossThreadCounts) {
  const std::string path = FreshPath("corrupt");
  std::vector<LogRecord> records = MakeMixedLog(60);
  std::string body;
  size_t line = 0;
  const size_t kFirstBad = 351, kSecondBad = 713;  // 1-based line numbers
  for (const LogRecord& r : records) {
    ++line;
    if (line == kFirstBad || line == kSecondBad) {
      body += "{this is not json\n";
      ++line;
    }
    r.AppendJsonl(body);
    body += '\n';
  }
  std::ofstream(path, std::ios::binary) << body;

  PoolSizeGuard guard;
  ThreadPool::Global().Resize(1);
  auto serial = ReadLogRecords(path);
  ASSERT_FALSE(serial.ok());
  // The earliest bad line wins, with the path:line prefix.
  EXPECT_NE(serial.status().ToString().find(":351:"), std::string::npos)
      << serial.status();
  for (int threads : {2, 8}) {
    ThreadPool::Global().Resize(threads);
    auto parallel = ReadLogRecords(path);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status().ToString(), serial.status().ToString())
        << threads << " threads";
  }
}

TEST(JsonlCodecTest, ReadAcceptsNonCanonicalLinesViaFallback) {
  const std::string path = FreshPath("fallback");
  std::ofstream(path, std::ios::binary)
      << R"({"t":3,"seq":2,"op":1,"kind":"end"})" << "\n"
      << R"({"kind": "info", "name": "X", "op": 1, "seq": 5, "t": 9, "value": [1, 2]})"
      << "\n";
  auto read = ReadLogRecords(path);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->size(), 2u);
  EXPECT_EQ((*read)[0].kind, LogRecord::Kind::kEndOp);
  EXPECT_EQ((*read)[0].seq, 2u);
  EXPECT_EQ((*read)[1].info_value.size(), 2u);
}

TEST(JsonlCodecTest, MissingFileIsNotFound) {
  auto read = ReadLogRecords(FreshPath("missing"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound) << read.status();
}

}  // namespace
}  // namespace granula::core
