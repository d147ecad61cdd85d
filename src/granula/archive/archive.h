#ifndef GRANULA_GRANULA_ARCHIVE_ARCHIVE_H_
#define GRANULA_GRANULA_ARCHIVE_ARCHIVE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "granula/archive/lint.h"

namespace granula::core {

// end - start for archive times, saturated to the int64 range. Archive
// bodies are untrusted bytes and a hostile StartTime/EndTime pair must not
// overflow; SimTime::operator- itself stays unchecked for the engines'
// hot loops.
inline SimTime SaturatingDuration(SimTime start, SimTime end) {
  int64_t nanos = 0;
  if (__builtin_sub_overflow(end.nanos(), start.nanos(), &nanos)) {
    return end > start ? SimTime::Max()
                       : SimTime(std::numeric_limits<int64_t>::min());
  }
  return SimTime(nanos);
}

// The JSON depth of an info value of an operation at `level` (root = 1).
// The JSON form holds the root operation one level below the document,
// nests each operation level two levels below the last (the child object
// inside its parent's "children" array), and puts an info value three
// levels below its operation ("infos", the info's object, "value").
constexpr int InfoValueJsonDepth(int level) { return 2 * level + 2; }

// The nesting an info value of an operation at `level` may have (a scalar
// has 0, each array or object level adds one): what Json::Parse has left
// below it, so the JSON form of every accepted archive parses.
// ArchiveView refuses a deeper value as Corruption when it decodes it.
constexpr int MaxInfoValueNesting(int level) {
  return Json::kMaxParseDepth - InfoValueJsonDepth(level);
}

// The deepest operation tree an archive holds: the deepest level whose
// scalar infos still parse. ArchiveView::Open rejects a GBA body deeper
// than this, Archiver::Build a log that nests deeper, and FromJsonString a
// JSON tree deeper, so every accepted tree round-trips through both forms
// and the recursive walks over a tree stay shallow.
inline constexpr int kMaxOperationDepth = 127;
static_assert(MaxInfoValueNesting(kMaxOperationDepth) == 0 &&
              MaxInfoValueNesting(kMaxOperationDepth + 1) < 0);

// One piece of performance information attached to an operation (the
// "info" of the paper's performance model, Fig. 1). `source` records the
// provenance: which rule or log record produced the value.
struct InfoValue {
  Json value;
  std::string source;
};

class ArchivedOperation;

// Every node of an operation tree is held through this handle. A builder
// fills a node made with std::make_shared and freezes it by attaching it
// (to a parent's `children` or an archive's `root`); from then on nobody
// mutates it, so copying an archive or a node shares every subtree below.
using OperationPtr = std::shared_ptr<const ArchivedOperation>;

// An operation in a performance archive: an actor executing a mission, with
// its info set and filial operations (paper Section 3.2). The well-known
// infos "StartTime" and "EndTime" hold integer nanoseconds of virtual time.
class ArchivedOperation {
 public:
  ArchivedOperation() = default;

  std::string actor_type;
  std::string actor_id;
  std::string mission_type;
  std::string mission_id;

  std::map<std::string, InfoValue, std::less<>> infos;
  std::vector<OperationPtr> children;

  // "actor @ mission", e.g. "Worker-3 @ Superstep-4".
  std::string DisplayName() const;
  // "actor_type@mission_type", the model key, e.g. "Worker@Superstep".
  std::string TypeKey() const;

  bool HasInfo(std::string_view name) const;
  const InfoValue* FindInfo(std::string_view name) const;
  // Numeric info accessor; returns `fallback` when absent or non-numeric.
  double InfoNumber(std::string_view name, double fallback = 0.0) const;

  SimTime StartTime() const;  // SimTime() when absent
  SimTime EndTime() const;
  SimTime Duration() const {
    return SaturatingDuration(StartTime(), EndTime());
  }

  void SetInfo(std::string name, Json value, std::string source);

  // Pre-order traversal.
  void Visit(const std::function<void(const ArchivedOperation&)>& fn) const;

  // Number of operations in this subtree (including this one).
  uint64_t SubtreeSize() const;

  Json ToJson() const;
  static Result<OperationPtr> FromJson(const Json& j);
};

// A read cursor over a materialised tree with ArchiveView::Op's navigation
// and accessor surface, so each analysis walk (regression flatten,
// chokepoint gathers) is written once as a template over either cursor.
class TreeOp {
 public:
  TreeOp() = default;
  explicit TreeOp(const ArchivedOperation* op) : op_(op) {}
  explicit operator bool() const { return op_ != nullptr; }

  std::string_view actor_type() const { return op_->actor_type; }
  std::string_view actor_id() const { return op_->actor_id; }
  std::string_view mission_type() const { return op_->mission_type; }
  std::string_view mission_id() const { return op_->mission_id; }
  // mission_id, falling back to mission_type when empty.
  std::string_view name() const {
    return op_->mission_id.empty() ? op_->mission_type : op_->mission_id;
  }

  TreeOp FirstChild() const { return Child(op_, 0); }
  TreeOp NextSibling() const { return Child(parent_, index_ + 1); }

  bool HasInfo(std::string_view name) const { return op_->HasInfo(name); }
  double InfoNumber(std::string_view name, double fallback = 0.0) const {
    return op_->InfoNumber(name, fallback);
  }
  SimTime StartTime() const { return op_->StartTime(); }
  SimTime EndTime() const { return op_->EndTime(); }
  SimTime Duration() const { return op_->Duration(); }

 private:
  static TreeOp Child(const ArchivedOperation* parent, size_t index) {
    if (parent == nullptr || index >= parent->children.size()) return {};
    TreeOp child(parent->children[index].get());
    child.parent_ = parent;
    child.index_ = index;
    return child;
  }

  const ArchivedOperation* op_ = nullptr;
  const ArchivedOperation* parent_ = nullptr;  // null at the walk's root
  size_t index_ = 0;
};

// Environment-log entry stored alongside the operation tree.
struct EnvironmentRecord {
  uint32_t node = 0;
  std::string hostname;
  double time_seconds = 0;
  double cpu_seconds_per_second = 0;
  double net_bytes_per_second = 0;
  double disk_bytes_per_second = 0;
};

// Whether the archived job ran to completion. kIncomplete marks a root
// operation that never closed — a crashed job, or a live snapshot taken
// mid-run — so consumers can tell a truncated capture from a finished
// one without digging through lint defects.
enum class ArchiveStatus { kComplete, kIncomplete };

std::string_view ArchiveStatusName(ArchiveStatus status);

// The performance archive (paper Section 3.3, P3): the standardized,
// queryable artifact produced by one evaluated job. Serializes to JSON so
// archives can be stored, shared, diffed, and re-visualized without
// re-running the experiment. Copies are cheap: they share the operation
// tree.
class PerformanceArchive {
 public:
  std::map<std::string, std::string> job_metadata;  // platform, algorithm...
  std::string model_name;
  ArchiveStatus status = ArchiveStatus::kComplete;
  OperationPtr root;
  std::vector<EnvironmentRecord> environment;
  // Lint findings from archiving: what was quarantined or repaired when the
  // log was dirty (serialized as the "quarantined" section). Empty for a
  // clean log.
  LintReport lint;

  // Path query: "/" separated mission ids (falling back to mission types),
  // e.g. "GiraphJob/ProcessGraph/Superstep-4". Leading element matches the
  // root. Returns nullptr when no match.
  const ArchivedOperation* FindByPath(std::string_view path) const;

  // All operations whose (actor_type, mission_type) match; empty strings
  // act as wildcards.
  std::vector<const ArchivedOperation*> FindOperations(
      std::string_view actor_type, std::string_view mission_type) const;

  // Total operations in the archive.
  uint64_t OperationCount() const;

  // Fraction of the root's duration spent in each direct child, keyed by
  // mission id — the numbers behind Fig. 5.
  std::map<std::string, double> TopLevelBreakdown() const;

  std::string ToJsonString(int indent = 2) const;
  static Result<PerformanceArchive> FromJsonString(std::string_view text);
};

}  // namespace granula::core

#endif  // GRANULA_GRANULA_ARCHIVE_ARCHIVE_H_
