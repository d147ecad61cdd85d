#include "granula/live/log_tailer.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "granula/monitor/job_logger.h"

namespace granula::core {
namespace {

std::string FreshPath(const std::string& name) {
  std::string path = testing::TempDir() + "/tailer_" + name + ".jsonl";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return path;
}

std::string RecordLine(uint64_t seq, uint64_t op) {
  LogRecord r;
  r.kind = LogRecord::Kind::kStartOp;
  r.seq = seq;
  r.time = SimTime::Seconds(static_cast<double>(seq));
  r.op_id = op;
  r.actor_type = "Job";
  r.actor_id = "job";
  r.mission_type = "M";
  r.mission_id = "M";
  return r.ToJson().Dump(0) + "\n";
}

void AppendRaw(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << text;
}

TEST(JsonlLineDecoderTest, OversizedLineCountsOnceAndIsSkippedToItsEnd) {
  JsonlLineDecoder lines;
  std::vector<LogRecord> records;
  // Past the cap with no newline: dropped and counted, nothing buffered.
  EXPECT_EQ(lines.Feed(std::string(JsonlLineDecoder::kMaxLineBytes + 1, 'x'),
                       records),
            1u);
  EXPECT_EQ(lines.buffered(), 0u);
  // The rest of that line is skipped silently up to its newline; the next
  // line decodes normally.
  EXPECT_EQ(lines.Feed("more of the same line\n" + RecordLine(4, 5), records),
            0u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 4u);
}

TEST(JsonlLineDecoderTest, FinishDecodesTheUnterminatedTail) {
  JsonlLineDecoder lines;
  std::vector<LogRecord> records;
  std::string line = RecordLine(8, 9);
  line.pop_back();  // no trailing newline
  EXPECT_EQ(lines.Feed(line, records), 0u);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(lines.buffered(), line.size());
  EXPECT_EQ(lines.Finish(records), 0u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 8u);
  EXPECT_EQ(lines.buffered(), 0u);
}

TEST(LogTailerTest, MissingFileYieldsNothing) {
  LogTailer tailer(FreshPath("missing"));
  LogTailer::Poll poll = tailer.PollOnce();
  EXPECT_TRUE(poll.records.empty());
  EXPECT_EQ(poll.malformed_lines, 0u);
  EXPECT_FALSE(poll.rotated);
  EXPECT_EQ(tailer.bytes_consumed(), 0u);
}

TEST(LogTailerTest, PicksUpAppendsAcrossPolls) {
  std::string path = FreshPath("appends");
  LogTailer tailer(path);
  AppendRaw(path, RecordLine(0, 1));
  LogTailer::Poll first = tailer.PollOnce();
  ASSERT_EQ(first.records.size(), 1u);
  EXPECT_EQ(first.records[0].seq, 0u);

  // Nothing new: the second poll is empty, not a re-read.
  EXPECT_TRUE(tailer.PollOnce().records.empty());

  AppendRaw(path, RecordLine(1, 2) + RecordLine(2, 3));
  LogTailer::Poll second = tailer.PollOnce();
  ASSERT_EQ(second.records.size(), 2u);
  EXPECT_EQ(second.records[0].seq, 1u);
  EXPECT_EQ(second.records[1].seq, 2u);
}

TEST(LogTailerTest, BuffersPartialLinesUntilTheNewlineArrives) {
  std::string path = FreshPath("partial");
  LogTailer tailer(path);
  std::string line = RecordLine(7, 9);
  AppendRaw(path, line.substr(0, line.size() / 2));
  EXPECT_TRUE(tailer.PollOnce().records.empty());
  AppendRaw(path, line.substr(line.size() / 2));
  LogTailer::Poll poll = tailer.PollOnce();
  ASSERT_EQ(poll.records.size(), 1u);
  EXPECT_EQ(poll.records[0].seq, 7u);
  EXPECT_EQ(poll.records[0].op_id, 9u);
  EXPECT_EQ(poll.malformed_lines, 0u);
}

TEST(LogTailerTest, CountsMalformedLinesAndKeepsGoing) {
  std::string path = FreshPath("malformed");
  LogTailer tailer(path);
  AppendRaw(path, "this is not json\n" + RecordLine(3, 4) +
                      "{\"kind\":\"start\"\n");
  LogTailer::Poll poll = tailer.PollOnce();
  ASSERT_EQ(poll.records.size(), 1u);
  EXPECT_EQ(poll.records[0].seq, 3u);
  EXPECT_EQ(poll.malformed_lines, 2u);
  EXPECT_EQ(tailer.total_malformed_lines(), 2u);
}

TEST(LogTailerTest, SkipsBlankLinesAndCarriageReturns) {
  std::string path = FreshPath("blank");
  LogTailer tailer(path);
  std::string line = RecordLine(5, 6);
  line.insert(line.size() - 1, "\r");  // CRLF line ending
  AppendRaw(path, "\n" + line + "\n");
  LogTailer::Poll poll = tailer.PollOnce();
  ASSERT_EQ(poll.records.size(), 1u);
  EXPECT_EQ(poll.records[0].seq, 5u);
  EXPECT_EQ(poll.malformed_lines, 0u);
}

TEST(LogTailerTest, DetectsTruncationAndRereadsFromTheStart) {
  std::string path = FreshPath("rotate");
  LogTailer tailer(path);
  AppendRaw(path, RecordLine(0, 1) + RecordLine(1, 2));
  EXPECT_EQ(tailer.PollOnce().records.size(), 2u);

  // Rotate: the file is replaced by a shorter one (a fresh job's log).
  std::ofstream(path, std::ios::trunc | std::ios::binary) << RecordLine(0, 9);
  LogTailer::Poll poll = tailer.PollOnce();
  EXPECT_TRUE(poll.rotated);
  ASSERT_EQ(poll.records.size(), 1u);
  EXPECT_EQ(poll.records[0].op_id, 9u);
}

TEST(LogTailerTest, TornWriteMergesIntoOneMalformedLineWithoutLoss) {
  // A truncated record loses its tail AND its newline, so it merges with
  // the next line into one malformed line. Completed records on either
  // side must arrive exactly once — no loss, no duplication.
  std::string path = FreshPath("torn");
  LogTailer tailer(path);
  std::string torn = RecordLine(1, 2);
  torn.resize(torn.size() / 2);  // mid-record, newline gone
  AppendRaw(path, RecordLine(0, 1) + torn);
  LogTailer::Poll first = tailer.PollOnce();
  ASSERT_EQ(first.records.size(), 1u);
  EXPECT_EQ(first.records[0].seq, 0u);
  EXPECT_EQ(first.malformed_lines, 0u);  // could still be a slow writer

  AppendRaw(path, RecordLine(2, 3) + RecordLine(3, 4));
  LogTailer::Poll second = tailer.PollOnce();
  // The torn half swallowed record 2's line; record 3 survives alone.
  ASSERT_EQ(second.records.size(), 1u);
  EXPECT_EQ(second.records[0].seq, 3u);
  EXPECT_EQ(second.malformed_lines, 1u);

  AppendRaw(path, RecordLine(4, 5));
  LogTailer::Poll third = tailer.PollOnce();
  ASSERT_EQ(third.records.size(), 1u);
  EXPECT_EQ(third.records[0].seq, 4u);
  EXPECT_EQ(tailer.total_malformed_lines(), 1u);
}

TEST(LogTailerTest, RotationDiscardsTheStalePartialLine) {
  // The writer dies mid-line, then a fresh job rotates the log. The
  // buffered partial line belongs to the dead run and must not be glued
  // onto the new file's first record.
  std::string path = FreshPath("rotate_partial");
  LogTailer tailer(path);
  std::string partial = RecordLine(2, 3);
  partial.resize(partial.size() / 2);
  AppendRaw(path, RecordLine(0, 1) + RecordLine(1, 2) + partial);
  ASSERT_EQ(tailer.PollOnce().records.size(), 2u);

  // Rotation is detected by the file shrinking (the fresh job's log is
  // shorter than the dead one's).
  std::ofstream(path, std::ios::trunc | std::ios::binary) << RecordLine(0, 9);
  LogTailer::Poll poll = tailer.PollOnce();
  EXPECT_TRUE(poll.rotated);
  ASSERT_EQ(poll.records.size(), 1u);
  EXPECT_EQ(poll.records[0].op_id, 9u);
  EXPECT_EQ(poll.malformed_lines, 0u);

  // And the new log keeps tailing cleanly after the rotation.
  AppendRaw(path, RecordLine(1, 10));
  LogTailer::Poll next = tailer.PollOnce();
  ASSERT_EQ(next.records.size(), 1u);
  EXPECT_EQ(next.records[0].op_id, 10u);
  EXPECT_EQ(tailer.total_malformed_lines(), 0u);
}

TEST(LogTailerTest, InjectedWriteFaultsThroughJobLogger) {
  // End-to-end with the producer's fault hook (the same path the fault
  // plan's kLogWrite specs install): dropped records never reach the
  // file; a truncated record merges with its successor; every other
  // record arrives exactly once.
  std::string path = FreshPath("faulted_logger");
  SimTime now;
  JobLogger logger([&now] { return now; });
  ASSERT_TRUE(logger.StreamTo(path).ok());
  logger.SetWriteFaultHook([](const LogRecord& record) {
    if (record.seq == 2) return JobLogger::WriteFault::kDrop;
    if (record.seq == 4) return JobLogger::WriteFault::kTruncate;
    return JobLogger::WriteFault::kNone;
  });

  LogTailer tailer(path);
  OpId root = logger.StartOperation(kNoOp, "Job", "job", "Root", "Root");
  for (int i = 0; i < 6; ++i) {
    logger.AddInfo(root, "I" + std::to_string(i),
                   Json(static_cast<int64_t>(i)));
  }
  logger.EndOperation(root);
  logger.StopStreaming();

  std::vector<LogRecord> got;
  for (;;) {
    LogTailer::Poll poll = tailer.PollOnce();
    if (poll.records.empty() && poll.malformed_lines == 0) break;
    for (LogRecord& r : poll.records) got.push_back(std::move(r));
  }
  // seq 2 dropped; seq 4 torn and merged with seq 5's line (one malformed
  // line); seqs 0,1,3,6,7 survive, each exactly once, in order.
  std::vector<uint64_t> seqs;
  for (const LogRecord& r : got) seqs.push_back(r.seq);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{0, 1, 3, 6, 7}));
  EXPECT_EQ(tailer.total_malformed_lines(), 1u);
}

TEST(LogTailerTest, TailsAJobLoggerStream) {
  // End-to-end with the producer side: JobLogger::StreamTo writes each
  // record as it happens; the tailer reconstructs the exact record list.
  std::string path = FreshPath("logger");
  SimTime now;
  JobLogger logger([&now] { return now; });
  ASSERT_TRUE(logger.StreamTo(path).ok());

  LogTailer tailer(path);
  OpId root = logger.StartOperation(kNoOp, "Job", "job", "Root", "Root");
  logger.AddInfo(root, "Vertices", Json(static_cast<int64_t>(42)));
  LogTailer::Poll poll = tailer.PollOnce();
  ASSERT_EQ(poll.records.size(), 2u);
  EXPECT_EQ(poll.records[0].kind, LogRecord::Kind::kStartOp);
  EXPECT_EQ(poll.records[1].info_name, "Vertices");

  now = SimTime::Seconds(3);
  logger.EndOperation(root);
  logger.StopStreaming();
  poll = tailer.PollOnce();
  ASSERT_EQ(poll.records.size(), 1u);
  EXPECT_EQ(poll.records[0].kind, LogRecord::Kind::kEndOp);
  EXPECT_EQ(poll.records[0].time.seconds(), 3.0);
  EXPECT_EQ(tailer.total_malformed_lines(), 0u);
}

}  // namespace
}  // namespace granula::core
