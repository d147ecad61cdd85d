#include "granula/archive/lint.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/strings.h"

namespace granula::core {

std::string_view LintDefectName(LintDefect defect) {
  switch (defect) {
    case LintDefect::kDuplicateStartOp:
      return "duplicate_start_op";
    case LintDefect::kDuplicateEndOp:
      return "duplicate_end_op";
    case LintDefect::kEndBeforeStart:
      return "end_before_start";
    case LintDefect::kOrphanInfo:
      return "orphan_info";
    case LintDefect::kOrphanEndOp:
      return "orphan_end_op";
    case LintDefect::kParentCycle:
      return "parent_cycle";
    case LintDefect::kUnreachableSubtree:
      return "unreachable_subtree";
    case LintDefect::kMultipleRoots:
      return "multiple_roots";
    case LintDefect::kMissingEndTime:
      return "missing_end_time";
  }
  return "unknown";
}

Result<LintDefect> ParseLintDefect(std::string_view name) {
  for (LintDefect defect :
       {LintDefect::kDuplicateStartOp, LintDefect::kDuplicateEndOp,
        LintDefect::kEndBeforeStart, LintDefect::kOrphanInfo,
        LintDefect::kOrphanEndOp, LintDefect::kParentCycle,
        LintDefect::kUnreachableSubtree, LintDefect::kMultipleRoots,
        LintDefect::kMissingEndTime}) {
    if (LintDefectName(defect) == name) return defect;
  }
  return Status::InvalidArgument(
      StrFormat("unknown lint defect '%.*s'", static_cast<int>(name.size()),
                name.data()));
}

Json LintFinding::ToJson() const {
  Json j;
  j["defect"] = std::string(LintDefectName(defect));
  j["op"] = op_id;
  j["seq"] = seq;
  j["repaired"] = repaired;
  j["detail"] = detail;
  return j;
}

Result<LintFinding> LintFinding::FromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::Corruption("lint finding must be a JSON object");
  }
  LintFinding finding;
  GRANULA_ASSIGN_OR_RETURN(finding.defect,
                           ParseLintDefect(j.GetString("defect")));
  finding.op_id = static_cast<uint64_t>(j.GetInt("op"));
  finding.seq = static_cast<uint64_t>(j.GetInt("seq"));
  finding.repaired = j.GetBool("repaired");
  finding.detail = j.GetString("detail");
  return finding;
}

bool LintReport::HasFatal() const {
  return std::any_of(findings.begin(), findings.end(),
                     [](const LintFinding& f) {
                       return f.defect != LintDefect::kMissingEndTime;
                     });
}

size_t LintReport::CountOf(LintDefect defect) const {
  return static_cast<size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [defect](const LintFinding& f) {
                      return f.defect == defect;
                    }));
}

std::string LintReport::Summary() const {
  if (findings.empty()) return "log lint: clean";
  std::string out = StrFormat("log lint: %zu finding(s)", findings.size());
  for (const LintFinding& f : findings) {
    out += StrFormat("\n  [%s] op %llu seq %llu: %s%s",
                     std::string(LintDefectName(f.defect)).c_str(),
                     static_cast<unsigned long long>(f.op_id),
                     static_cast<unsigned long long>(f.seq),
                     f.detail.c_str(), f.repaired ? " (repaired)" : "");
  }
  return out;
}

Json LintReport::ToJson() const {
  Json j = Json::MakeArray();
  for (const LintFinding& f : findings) j.Append(f.ToJson());
  return j;
}

Result<LintReport> LintReport::FromJson(const Json& j) {
  if (!j.is_array()) {
    return Status::Corruption("quarantine section must be a JSON array");
  }
  LintReport report;
  for (const Json& entry : j.AsArray()) {
    GRANULA_ASSIGN_OR_RETURN(auto finding, LintFinding::FromJson(entry));
    report.findings.push_back(std::move(finding));
  }
  return report;
}

std::string OpName(const LogRecord& start) {
  const std::string& actor =
      start.actor_id.empty() ? start.actor_type : start.actor_id;
  const std::string& mission =
      start.mission_id.empty() ? start.mission_type : start.mission_id;
  return actor + " @ " + mission;
}

void SortFindings(std::vector<LintFinding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const LintFinding& a, const LintFinding& b) {
              if (a.seq != b.seq) return a.seq < b.seq;
              if (a.op_id != b.op_id) return a.op_id < b.op_id;
              if (a.defect != b.defect) return a.defect < b.defect;
              return a.detail < b.detail;
            });
}

LintFinding ExtraRootFinding(std::string_view name, uint64_t op_id,
                             uint64_t seq, uint64_t subtree_size) {
  return {LintDefect::kMultipleRoots, op_id, seq, false,
          StrFormat("extra root %.*s (subtree of %llu operation(s)) "
                    "quarantined",
                    static_cast<int>(name.size()), name.data(),
                    static_cast<unsigned long long>(subtree_size))};
}

namespace {

constexpr uint32_t kNone = LintedLog::kNone;

bool SeqLess(const LogRecord* a, const LogRecord* b) {
  return a->seq < b->seq;
}

// Op id -> index into the id-sorted op table. Real logs number their ops
// densely, so a contiguous id range is indexed directly; anything else
// falls back to binary search.
class OpIndex {
 public:
  explicit OpIndex(std::vector<uint64_t> ids) : ids_(std::move(ids)) {
    dense_ = !ids_.empty() && ids_.back() - ids_.front() == ids_.size() - 1;
  }

  uint32_t Find(uint64_t id) const {
    if (dense_) {
      uint64_t offset = id - ids_.front();  // wraps past size() below it
      return offset < ids_.size() ? static_cast<uint32_t>(offset) : kNone;
    }
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    return it != ids_.end() && *it == id
               ? static_cast<uint32_t>(it - ids_.begin())
               : kNone;
  }

 private:
  std::vector<uint64_t> ids_;
  bool dense_ = false;
};

// Groups (op index, record) pairs into per-op runs that keep input order:
// op i's run is grouped[begin[i], begin[i + 1]).
void GroupByOp(const std::vector<std::pair<uint32_t, const LogRecord*>>& items,
               size_t num_ops, std::vector<uint32_t>* begin,
               std::vector<const LogRecord*>* grouped) {
  begin->assign(num_ops + 1, 0);
  for (const auto& [op, record] : items) ++(*begin)[op + 1];
  for (size_t i = 1; i <= num_ops; ++i) (*begin)[i] += (*begin)[i - 1];
  grouped->resize(items.size());
  std::vector<uint32_t> next(begin->begin(), begin->end() - 1);
  for (const auto& [op, record] : items) (*grouped)[next[op]++] = record;
}

}  // namespace

LintedLog LintAndRepair(const std::vector<LogRecord>& records) {
  LintedLog out;
  std::vector<LintFinding>& findings = out.report.findings;

  // Pass 1: the op table. A stable sort of the StartOps by (op id, seq)
  // puts each op's starts in one run; the first wins (the lowest seq, or
  // the earlier array position on a reused seq) and the rest are
  // quarantined as duplicates.
  std::vector<const LogRecord*> starts;
  for (const LogRecord& r : records) {
    if (r.kind == LogRecord::Kind::kStartOp) starts.push_back(&r);
  }
  std::stable_sort(starts.begin(), starts.end(),
                   [](const LogRecord* a, const LogRecord* b) {
                     if (a->op_id != b->op_id) return a->op_id < b->op_id;
                     return a->seq < b->seq;
                   });
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < starts.size(); ++i) {
    const LogRecord* r = starts[i];
    if (i > 0 && r->op_id == starts[i - 1]->op_id) {
      findings.push_back(
          {LintDefect::kDuplicateStartOp, r->op_id, r->seq, true,
           StrFormat("duplicate StartOp for %s", OpName(*r).c_str())});
      continue;
    }
    ids.push_back(r->op_id);
    out.ops.emplace_back().start = r;
  }
  const size_t num_ops = out.ops.size();
  const OpIndex index(std::move(ids));

  // Pass 2: attach EndOps and Infos; stray records are quarantined.
  std::vector<std::pair<uint32_t, const LogRecord*>> infos, ends;
  for (const LogRecord& r : records) {
    if (r.kind == LogRecord::Kind::kStartOp) continue;
    const uint32_t op = index.Find(r.op_id);
    if (op == kNone) {
      bool is_end = r.kind == LogRecord::Kind::kEndOp;
      findings.push_back(
          {is_end ? LintDefect::kOrphanEndOp : LintDefect::kOrphanInfo,
           r.op_id, r.seq, true,
           StrFormat("%s record for an operation with no StartOp",
                     is_end ? "EndOp" : StrFormat("Info '%s'",
                                                  r.info_name.c_str())
                                            .c_str())});
      continue;
    }
    (r.kind == LogRecord::Kind::kEndOp ? ends : infos).emplace_back(op, &r);
  }
  std::vector<uint32_t> info_begin, end_begin;
  std::vector<const LogRecord*> grouped_ends;
  GroupByOp(infos, num_ops, &info_begin, &out.infos);
  GroupByOp(ends, num_ops, &end_begin, &grouped_ends);

  for (uint32_t i = 0; i < num_ops; ++i) {
    LintedLog::Op& op = out.ops[i];
    op.info_begin = info_begin[i];
    op.info_end = info_begin[i + 1];
    std::sort(out.infos.begin() + op.info_begin,
              out.infos.begin() + op.info_end, SeqLess);

    // Resolve the op's end: the first (by seq) end not earlier than the
    // start wins; inverted ends and later duplicates are quarantined.
    auto first_end = grouped_ends.begin() + end_begin[i];
    auto last_end = grouped_ends.begin() + end_begin[i + 1];
    std::sort(first_end, last_end, SeqLess);
    for (auto it = first_end; it != last_end; ++it) {
      const LogRecord* end = *it;
      if (end->time < op.start->time) {
        findings.push_back(
            {LintDefect::kEndBeforeStart, end->op_id, end->seq, true,
             StrFormat("EndOp at %s precedes StartOp at %s",
                       end->time.ToString().c_str(),
                       op.start->time.ToString().c_str())});
        if (!op.end_time.has_value()) {
          op.end_provenance = " (inverted EndOp quarantined)";
        }
      } else if (op.end_time.has_value()) {
        findings.push_back(
            {LintDefect::kDuplicateEndOp, end->op_id, end->seq, true,
             StrFormat("duplicate EndOp at %s; first EndOp at %s wins",
                       end->time.ToString().c_str(),
                       op.end_time->ToString().c_str())});
        op.end_provenance = " (duplicate EndOp quarantined)";
      } else {
        op.end_time = end->time;
        // A valid end supersedes any earlier inverted-end provenance.
        op.end_provenance = {};
      }
    }
  }

  // Pass 3: parent graph. Classify every op's parent chain as reaching a
  // root (parent == kNoOp or a parent absent from the log), looping (a
  // cycle, incl. self-parent), or dangling off a cycle. A walk stamps the
  // ops on its path, so meeting its own stamp again means a cycle.
  enum class Fate : uint8_t { kUnknown, kRoot, kCycle, kDangling };
  std::vector<uint32_t> parent(num_ops, kNone);
  for (uint32_t i = 0; i < num_ops; ++i) {
    const uint64_t parent_id = out.ops[i].start->parent_id;
    if (parent_id != kNoOp) parent[i] = index.Find(parent_id);
  }
  std::vector<Fate> fate(num_ops, Fate::kUnknown);
  std::vector<uint32_t> root_of(num_ops, kNone);  // root its chain reaches
  std::vector<uint32_t> stamp(num_ops, 0);
  std::vector<uint32_t> path;
  uint32_t walk = 0;
  for (uint32_t i = 0; i < num_ops; ++i) {
    if (fate[i] != Fate::kUnknown) continue;
    ++walk;
    path.clear();
    uint32_t cur = i;
    Fate terminal = Fate::kRoot;
    uint32_t root = cur;
    while (true) {
      if (fate[cur] != Fate::kUnknown) {
        terminal = fate[cur] == Fate::kRoot ? Fate::kRoot : Fate::kDangling;
        root = terminal == Fate::kRoot ? root_of[cur] : kNone;
        break;
      }
      if (stamp[cur] == walk) {
        // Found a cycle: everything from the first occurrence of `cur`
        // onward is on the cycle; the prefix dangles off it. Indices
        // follow op ids, so the smallest index names the cycle.
        auto cycle_start = std::find(path.begin(), path.end(), cur);
        uint32_t min_op = *std::min_element(cycle_start, path.end());
        findings.push_back(
            {LintDefect::kParentCycle, out.ops[min_op].start->op_id,
             out.ops[min_op].start->seq, false,
             StrFormat("parent links of %zu operation(s) form a cycle",
                       static_cast<size_t>(path.end() - cycle_start))});
        for (auto it = cycle_start; it != path.end(); ++it) {
          fate[*it] = Fate::kCycle;
        }
        path.erase(cycle_start, path.end());
        terminal = Fate::kDangling;
        root = kNone;
        break;
      }
      path.push_back(cur);
      stamp[cur] = walk;
      if (parent[cur] == kNone) {
        terminal = Fate::kRoot;
        root = cur;
        break;
      }
      cur = parent[cur];
    }
    for (uint32_t op : path) {
      fate[op] = terminal;
      root_of[op] = root;
    }
  }

  // Pick the primary root; a tie on size and seq goes to the lowest op id.
  std::vector<uint32_t> subtree_size(num_ops, 0);  // per root
  for (uint32_t i = 0; i < num_ops; ++i) {
    if (fate[i] == Fate::kRoot) ++subtree_size[root_of[i]];
  }
  for (uint32_t i = 0; i < num_ops; ++i) {
    if (fate[i] != Fate::kRoot || root_of[i] != i) continue;
    if (out.root == kNone ||
        ElectedOver(subtree_size[i], out.ops[i].start->seq,
                    subtree_size[out.root], out.ops[out.root].start->seq)) {
      out.root = i;
    }
  }

  // Quarantine everything not under the primary root, then compact the
  // survivors in place (order, and so ascending op id, is kept).
  std::vector<uint32_t> new_index(num_ops, kNone);
  uint32_t survivors = 0;
  for (uint32_t i = 0; i < num_ops; ++i) {
    const Fate f = fate[i];
    const LogRecord& start = *out.ops[i].start;
    if (f == Fate::kRoot && root_of[i] == out.root) {
      new_index[i] = survivors;
      if (survivors != i) out.ops[survivors] = out.ops[i];
      ++survivors;
      continue;
    }
    if (f == Fate::kRoot && root_of[i] == i) {
      findings.push_back(ExtraRootFinding(OpName(start), start.op_id,
                                          start.seq, subtree_size[i]));
    } else if (f == Fate::kRoot) {
      findings.push_back(
          {LintDefect::kUnreachableSubtree, start.op_id, start.seq, false,
           StrFormat("%s belongs to a quarantined root's subtree",
                     OpName(start).c_str())});
    } else if (f == Fate::kDangling) {
      findings.push_back(
          {LintDefect::kUnreachableSubtree, start.op_id, start.seq, false,
           StrFormat("%s hangs off a parent cycle, unreachable from any "
                     "root",
                     OpName(start).c_str())});
    }
    // Cycle members were already reported as one kParentCycle finding.
  }

  // Wire surviving children in start-seq order, and flag missing ends.
  // A surviving op's parent chain reaches the primary root, so every
  // survivor but the root has a surviving parent.
  std::vector<uint32_t> new_parent(survivors, kNone);
  std::vector<uint32_t> child_begin(survivors + 1, 0);
  for (uint32_t i = 0; i < num_ops; ++i) {
    const uint32_t op = new_index[i];
    if (op == kNone) continue;
    if (i != out.root) {
      new_parent[op] = new_index[parent[i]];
      ++child_begin[new_parent[op] + 1];
    }
    if (!out.ops[op].end_time.has_value() &&
        end_begin[i] == end_begin[i + 1]) {
      const LogRecord& start = *out.ops[op].start;
      findings.push_back(
          {LintDefect::kMissingEndTime, start.op_id, start.seq, true,
           StrFormat("no EndOp for %s; EndTime repaired from the subtree",
                     OpName(start).c_str())});
    }
  }
  if (out.root != kNone) out.root = new_index[out.root];
  out.ops.resize(survivors);
  // Survivors by start seq, sorted from op-id order: std::sort is not
  // stable, so on a reused seq the starting order decides.
  std::vector<uint32_t> by_seq(survivors);
  std::iota(by_seq.begin(), by_seq.end(), 0);
  std::sort(by_seq.begin(), by_seq.end(), [&out](uint32_t a, uint32_t b) {
    return out.ops[a].start->seq < out.ops[b].start->seq;
  });
  for (uint32_t i = 1; i <= survivors; ++i) {
    child_begin[i] += child_begin[i - 1];
  }
  out.children.resize(child_begin[survivors]);
  for (uint32_t i = 0; i < survivors; ++i) {
    out.ops[i].child_begin = out.ops[i].child_end = child_begin[i];
  }
  for (uint32_t op : by_seq) {
    if (new_parent[op] == kNone) continue;
    out.children[out.ops[new_parent[op]].child_end++] = op;
  }

  // Deterministic report order regardless of input record order.
  SortFindings(&findings);
  return out;
}

LintReport LintLog(const std::vector<LogRecord>& records) {
  return LintAndRepair(records).report;
}

}  // namespace granula::core
