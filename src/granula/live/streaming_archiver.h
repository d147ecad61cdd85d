#ifndef GRANULA_GRANULA_LIVE_STREAMING_ARCHIVER_H_
#define GRANULA_GRANULA_LIVE_STREAMING_ARCHIVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "granula/archive/archive.h"
#include "granula/archive/lint.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"

namespace granula::core {

// Online counterpart of the batch Archiver (P3): assembles a performance
// archive incrementally while the monitored job is still running, instead
// of waiting for the whole log stream to be on disk.
//
// Contract with the batch Archiver:
//  * For a lint-clean log replayed record by record, calling Finish() and
//    then Snapshot() yields an archive whose JSON serialization is
//    byte-identical to `Archiver::Build` over the same records — both
//    archivers construct, order, and finalize nodes through the shared
//    assembly core (archive/assembly.h).
//  * At any prefix of the stream, Snapshot() is a valid PerformanceArchive
//    (it round-trips through JSON): operations still in flight carry an
//    `InFlight` info and a watermark-repaired EndTime so durations and
//    choke-point detectors keep working on partial data.
//  * A stream whose operations nest deeper than kMaxOperationDepth fails
//    as the batch Build does: from the first too-deep StartOp on, nothing
//    more is ingested and Snapshot() returns Corruption.
//  * Malformed in-flight records never crash the stream: they are
//    classified with the same LintDefect classes the batch lint pass uses
//    and quarantined. (For *defective* streams the final tree is
//    best-effort and may differ from the batch pass in the cases noted
//    below; the defect classes reported are the same.)
//
// Memory is bounded by the open-operation table: an operation is kept in
// raw-record form only until it finalizes — its EndOp arrived and all its
// children are finalized — at which point it is evicted into its final
// ArchivedOperation snapshot form (the watermark of the stream, advanced
// subtree by subtree) and its raw records are dropped. For well-nested
// logs the table size tracks the number of concurrently running
// operations, not the log length; `stats()` exposes the eviction counters
// the bounded-memory test asserts.
//
// Known divergences from the batch pass, all limited to defective streams
// (clean logs are unaffected):
//  * Records that refer to an operation after its subtree was evicted are
//    classified as orphans (the batch pass, which sees the whole log at
//    once, can tell duplicates from orphans).
//  * A child whose StartOp arrives after its parent finalized becomes a
//    root candidate and is quarantined at Finish as an extra root.
//  * Members of a quarantined extra root's subtree are summarized by the
//    single kMultipleRoots finding (the batch pass also emits one
//    kUnreachableSubtree finding per member).
class StreamingArchiver {
 public:
  struct Options {
    // Drop operations whose model level exceeds this (0 = keep all levels
    // present in the model). Same semantics as Archiver::Options.
    int max_level = 0;
  };

  struct Stats {
    uint64_t records_ingested = 0;
    uint64_t open_operations = 0;       // current open-table size
    uint64_t peak_open_operations = 0;  // high-water mark of the table
    uint64_t finalized_operations = 0;  // evicted into snapshot form
    uint64_t quarantined_records = 0;   // dropped with a lint finding
  };

  explicit StreamingArchiver(PerformanceModel model)
      : StreamingArchiver(std::move(model), Options()) {}
  StreamingArchiver(PerformanceModel model, Options options);

  // Archive envelope, forwarded into every snapshot. Environment records
  // are optional (a tailed platform log carries none).
  void SetJobMetadata(std::map<std::string, std::string> metadata);
  void SetEnvironment(std::vector<EnvironmentRecord> environment);

  // Ingests one record. Never fails: defective records are quarantined
  // with a LintFinding. No-op after Finish() or a too-deep StartOp.
  void Append(const LogRecord& record);
  void AppendAll(const std::vector<LogRecord>& records);

  // Ends the stream: force-finalizes everything still open (missing
  // EndOps are repaired exactly like the batch pass) and elects the
  // primary root among the finalized candidates, quarantining extras.
  // Idempotent.
  void Finish();

  bool finished() const { return finished_; }

  // True once every started operation has finalized (the job root's EndOp
  // arrived) — for a JobLogger stream this means the job completed.
  bool complete() const {
    return stats_.records_ingested > 0 && open_.empty() && !roots_.empty();
  }

  // Largest record timestamp ingested so far.
  SimTime watermark() const { return watermark_; }

  const Stats& stats() const { return stats_; }
  const std::vector<LintFinding>& findings() const { return findings_; }

  // The archive as of now. Before Finish(): finalized subtrees appear in
  // final form, open operations appear with their infos so far, an
  // `InFlight` marker, and a watermark EndTime. After Finish(): the final
  // archive (byte-identical to the batch Archiver for clean logs).
  // Finalized subtrees are shared with the archiver, not copied, so a
  // snapshot costs the spine of open operations and stays unchanged by
  // later records. Fails when no root operation exists (empty stream) or
  // the root is not covered by the model.
  Result<PerformanceArchive> Snapshot() const;

 private:
  // An operation's contribution to its parent: one node when the operation
  // is modeled, the hoisted list of its modeled descendants when it is
  // spliced out (same splice the batch Assemble performs). Nodes are
  // frozen, so a snapshot shares a finalized contribution's subtrees
  // instead of copying them.
  struct Contribution {
    uint64_t start_seq = 0;
    uint64_t op_id = 0;
    uint64_t lint_size = 0;  // ops in the pre-filter subtree (root election)
    std::string name;  // "actor @ mission"; set on root candidates only
    // False while the operation is in flight, or when it was closed by
    // repair (force-finalize or a quarantined EndOp) rather than a usable
    // EndOp record. Mirrors the batch pass's `end_time.has_value()` —
    // drives ArchiveStatus when this contribution is elected root.
    bool closed_by_record = true;
    std::vector<OperationPtr> nodes;
  };

  struct OpenOp {
    LogRecord start;
    std::optional<SimTime> end_time;
    std::string end_provenance;
    bool saw_end_record = false;
    bool closed = false;
    std::vector<LogRecord> infos;
    std::vector<Contribution> done_children;
    std::set<OpId> open_children;
    OpId parent = kNoOp;  // kNoOp = root candidate
    int depth = 1;        // levels of open ops down to this one
  };

  void AddFinding(LintDefect defect, uint64_t op_id, uint64_t seq,
                  bool repaired, std::string detail);
  void IngestStart(const LogRecord& record);
  void IngestEnd(const LogRecord& record);
  void IngestInfo(const LogRecord& record);
  // Finalizes `id` if it is closed and has no open children, cascading to
  // the parent when the parent was only waiting on this child.
  void MaybeFinalize(OpId id);
  // Evicts `id` from the open table into its Contribution and attaches it
  // to the parent (or the root-candidate list).
  void FinalizeOp(OpId id);
  // The one node builder: orders the children's contributions by start
  // seq, splices out an unmodeled op, builds and attaches the node, and
  // orders its children. A `finalized` op then runs its model's rules; an
  // op still in flight gets spines for its open children (built the same
  // way, recursively) and, without an EndOp yet, a watermark EndTime and
  // an `InFlight` marker.
  Contribution BuildContribution(const OpenOp& op, bool finalized) const;
  // Depth-first forced finalization for Finish(), children first.
  void ForceFinalize(OpId id);
  // The root election (lint.h's rule) over the finalized root candidates
  // and `open_roots`, in that order; null when there is no candidate.
  const Contribution* ElectRoot(
      const std::vector<Contribution>& open_roots) const;

  PerformanceModel model_;
  Status model_status_;
  Status too_deep_;  // set by the first StartOp past kMaxOperationDepth
  Options options_;
  std::map<std::string, std::string> metadata_;
  std::vector<EnvironmentRecord> environment_;

  std::map<OpId, OpenOp> open_;
  std::vector<Contribution> roots_;  // finalized root-level contributions
  std::vector<LintFinding> findings_;
  SimTime watermark_;
  bool finished_ = false;
  Stats stats_;
};

}  // namespace granula::core

#endif  // GRANULA_GRANULA_LIVE_STREAMING_ARCHIVER_H_
