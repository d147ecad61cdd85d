#ifndef GRANULA_GRANULA_ARCHIVE_LINT_H_
#define GRANULA_GRANULA_ARCHIVE_LINT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "granula/monitor/job_logger.h"

namespace granula::core {

// Defect classes found in a raw platform-log stream. Real monitoring output
// (Giraph on YARN, PowerGraph on MPI) arrives incomplete, reordered, and
// partially corrupt; the lint pass classifies every such defect so the
// archiver can either reject the log (strict) or quarantine the offending
// records and build a best-effort archive (repair).
enum class LintDefect {
  kDuplicateStartOp,    // a second StartOp for an already-started op
  kDuplicateEndOp,      // a second EndOp; the first one wins
  kEndBeforeStart,      // EndOp timestamped earlier than the StartOp
  kOrphanInfo,          // Info record for an op with no StartOp
  kOrphanEndOp,         // EndOp record for an op with no StartOp
  kParentCycle,         // parent links form a cycle (incl. self-parent)
  kUnreachableSubtree,  // op hangs off a cycle, reachable from no root
  kMultipleRoots,       // extra root next to the primary one
  kMissingEndTime,      // no (usable) EndOp; repaired from the subtree
};

// Stable lowercase name, e.g. "duplicate_end_op". Used in the archive's
// quarantine section, so it must roundtrip through ParseLintDefect.
std::string_view LintDefectName(LintDefect defect);
Result<LintDefect> ParseLintDefect(std::string_view name);

// One classified defect. `repaired` is true when repair mode keeps the
// operation alive (only stray records are quarantined); false when the
// whole operation or subtree is quarantined.
struct LintFinding {
  LintDefect defect = LintDefect::kMissingEndTime;
  uint64_t op_id = 0;  // offending operation (0 when unknown)
  uint64_t seq = 0;    // offending record's emission seq (0 when n/a)
  bool repaired = false;
  std::string detail;

  Json ToJson() const;
  static Result<LintFinding> FromJson(const Json& j);
  bool operator==(const LintFinding&) const = default;
};

// The structured result of linting one log stream. Serialized verbatim
// into the archive's "quarantined" section in repair mode, so analysts can
// audit exactly what was dropped or fixed up.
struct LintReport {
  std::vector<LintFinding> findings;  // sorted by (seq, op_id, defect)

  bool clean() const { return findings.empty(); }
  // True when any finding voids the log in strict mode. kMissingEndTime is
  // exempt: a lost EndOp has always been repaired in place.
  bool HasFatal() const;
  size_t CountOf(LintDefect defect) const;
  // Human-readable one-line-per-finding rendering for CLI output and
  // strict-mode error messages.
  std::string Summary() const;

  Json ToJson() const;
  static Result<LintReport> FromJson(const Json& j);
  bool operator==(const LintReport&) const = default;
};

// The linted — and, where possible, repaired — view of a log stream: the
// operations that survive quarantine in ascending op-id order, each with
// its records and the indices of its children, ready for tree assembly.
// Pointers alias into the input record vector.
struct LintedLog {
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Op {
    const LogRecord* start = nullptr;
    std::optional<SimTime> end_time;
    // Provenance suffix for EndTime when a repair touched it, e.g.
    // " (duplicate EndOp quarantined)". Empty when the log was clean.
    std::string_view end_provenance;
    uint32_t info_begin = 0, info_end = 0;    // run in `infos`
    uint32_t child_begin = 0, child_end = 0;  // run in `children`
  };

  // This op's info records, in seq order.
  std::span<const LogRecord* const> InfosOf(const Op& op) const {
    return {infos.data() + op.info_begin, infos.data() + op.info_end};
  }
  // Indices into `ops` of this op's children, in start-record seq order.
  std::span<const uint32_t> ChildrenOf(const Op& op) const {
    return {children.data() + op.child_begin,
            children.data() + op.child_end};
  }

  LintReport report;
  std::vector<Op> ops;                   // survivors only
  std::vector<const LogRecord*> infos;   // per-op runs
  std::vector<uint32_t> children;        // per-op runs
  uint32_t root = kNone;  // index of the primary root; kNone when none
};

// "actor @ mission" of a StartOp, ids preferred over types — the name lint
// findings give an operation.
std::string OpName(const LogRecord& start);

// The report order: by (seq, op_id, defect, detail), whatever order the
// findings were raised in.
void SortFindings(std::vector<LintFinding>* findings);

// Root election, shared by the batch pass and the streaming archiver: of
// several root candidates, the one with the largest pre-filter subtree
// wins, and a tie goes to the lowest start seq. True when a candidate of
// (`size`, `seq`) beats the best so far.
inline bool ElectedOver(uint64_t size, uint64_t seq, uint64_t best_size,
                        uint64_t best_seq) {
  return size > best_size || (size == best_size && seq < best_seq);
}

// The kMultipleRoots finding for a root that lost the election; `name` is
// its OpName.
LintFinding ExtraRootFinding(std::string_view name, uint64_t op_id,
                             uint64_t seq, uint64_t subtree_size);

// Classifies every defect in `records` and computes the best-effort
// repaired view: first record wins on duplicates, inverted/duplicate ends
// and orphan records are dropped, and of several roots the one with the
// largest subtree (ties: lowest seq) is kept. Deterministic for any input
// order — decisions key on (op id, record seq), never on array position or
// container order.
LintedLog LintAndRepair(const std::vector<LogRecord>& records);

// Classification only (same findings, without the repaired view).
LintReport LintLog(const std::vector<LogRecord>& records);

}  // namespace granula::core

#endif  // GRANULA_GRANULA_ARCHIVE_LINT_H_
