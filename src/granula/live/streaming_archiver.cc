#include "granula/live/streaming_archiver.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/strings.h"
#include "granula/archive/assembly.h"

namespace granula::core {

StreamingArchiver::StreamingArchiver(PerformanceModel model, Options options)
    : model_(options.max_level > 0 ? model.WithMaxLevel(options.max_level)
                                   : model),
      model_status_(model.Validate()),
      options_(options) {}

void StreamingArchiver::SetJobMetadata(
    std::map<std::string, std::string> metadata) {
  metadata_ = std::move(metadata);
}

void StreamingArchiver::SetEnvironment(
    std::vector<EnvironmentRecord> environment) {
  environment_ = std::move(environment);
}

void StreamingArchiver::AddFinding(LintDefect defect, uint64_t op_id,
                                   uint64_t seq, bool repaired,
                                   std::string detail) {
  findings_.push_back({defect, op_id, seq, repaired, std::move(detail)});
}

void StreamingArchiver::Append(const LogRecord& record) {
  if (finished_) return;
  ++stats_.records_ingested;
  watermark_ = std::max(watermark_, record.time);
  switch (record.kind) {
    case LogRecord::Kind::kStartOp:
      IngestStart(record);
      break;
    case LogRecord::Kind::kEndOp:
      IngestEnd(record);
      break;
    case LogRecord::Kind::kInfo:
      IngestInfo(record);
      break;
  }
  stats_.open_operations = open_.size();
}

void StreamingArchiver::AppendAll(const std::vector<LogRecord>& records) {
  for (const LogRecord& record : records) Append(record);
}

void StreamingArchiver::IngestStart(const LogRecord& record) {
  if (record.parent_id == record.op_id && record.op_id != kNoOp) {
    // A self-parent is the one cycle an online pass can detect on arrival;
    // longer cycles surface as quarantined extra roots at Finish().
    AddFinding(LintDefect::kParentCycle, record.op_id, record.seq, false,
               "parent links of 1 operation(s) form a cycle");
    ++stats_.quarantined_records;
    return;
  }
  if (open_.count(record.op_id) > 0) {
    AddFinding(LintDefect::kDuplicateStartOp, record.op_id, record.seq, true,
               StrFormat("duplicate StartOp for %s", OpName(record).c_str()));
    ++stats_.quarantined_records;
    return;
  }
  OpenOp op;
  op.start = record;
  if (record.parent_id != kNoOp) {
    auto parent = open_.find(record.parent_id);
    if (parent != open_.end()) {
      op.parent = record.parent_id;
      parent->second.open_children.insert(record.op_id);
    }
    // Parent unknown (never started, or already evicted): the op becomes a
    // root candidate and the Finish() root election sorts it out.
  }
  open_.emplace(record.op_id, std::move(op));
  stats_.peak_open_operations = std::max(
      stats_.peak_open_operations, static_cast<uint64_t>(open_.size()));
}

void StreamingArchiver::IngestEnd(const LogRecord& record) {
  auto it = open_.find(record.op_id);
  if (it == open_.end()) {
    AddFinding(LintDefect::kOrphanEndOp, record.op_id, record.seq, true,
               "EndOp record for an operation with no StartOp");
    ++stats_.quarantined_records;
    return;
  }
  OpenOp& op = it->second;
  op.saw_end_record = true;
  if (record.time < op.start.time) {
    AddFinding(LintDefect::kEndBeforeStart, record.op_id, record.seq, true,
               StrFormat("EndOp at %s precedes StartOp at %s",
                         record.time.ToString().c_str(),
                         op.start.time.ToString().c_str()));
    if (!op.end_time.has_value()) {
      op.end_provenance = " (inverted EndOp quarantined)";
    }
    ++stats_.quarantined_records;
    return;
  }
  if (op.end_time.has_value()) {
    AddFinding(LintDefect::kDuplicateEndOp, record.op_id, record.seq, true,
               StrFormat("duplicate EndOp at %s; first EndOp at %s wins",
                         record.time.ToString().c_str(),
                         op.end_time->ToString().c_str()));
    op.end_provenance = " (duplicate EndOp quarantined)";
    ++stats_.quarantined_records;
    return;
  }
  op.end_time = record.time;
  // A valid end supersedes any earlier inverted-end provenance.
  op.end_provenance.clear();
  op.closed = true;
  MaybeFinalize(record.op_id);
}

void StreamingArchiver::IngestInfo(const LogRecord& record) {
  auto it = open_.find(record.op_id);
  if (it == open_.end()) {
    AddFinding(LintDefect::kOrphanInfo, record.op_id, record.seq, true,
               StrFormat("Info '%s' record for an operation with no StartOp",
                         record.info_name.c_str()));
    ++stats_.quarantined_records;
    return;
  }
  it->second.infos.push_back(record);
}

void StreamingArchiver::MaybeFinalize(OpId id) {
  auto it = open_.find(id);
  if (it == open_.end()) return;
  if (!it->second.closed || !it->second.open_children.empty()) return;
  FinalizeOp(id);
}

void StreamingArchiver::FinalizeOp(OpId id) {
  auto node = open_.extract(id);
  OpenOp& op = node.mapped();
  Contribution contribution = BuildContribution(op);
  ++stats_.finalized_operations;
  stats_.open_operations = open_.size();
  if (op.parent != kNoOp) {
    auto parent = open_.find(op.parent);
    if (parent != open_.end()) {
      parent->second.open_children.erase(id);
      parent->second.done_children.push_back(std::move(contribution));
      MaybeFinalize(op.parent);
      return;
    }
  }
  roots_.push_back(std::move(contribution));
}

StreamingArchiver::Contribution StreamingArchiver::BuildContribution(
    OpenOp& op) {
  Contribution c;
  c.start_seq = op.start.seq;
  c.op_id = op.start.op_id;
  c.name = OpName(op.start);
  c.closed_by_record = op.end_time.has_value();
  c.lint_size = 1;
  std::sort(op.done_children.begin(), op.done_children.end(),
            [](const Contribution& a, const Contribution& b) {
              return a.start_seq < b.start_seq;
            });
  for (const Contribution& child : op.done_children) {
    c.lint_size += child.lint_size;
  }

  // Mirrors the batch pass: the finding fires only when no end record of
  // any kind arrived (a quarantined inverted/duplicate end already has its
  // own finding and provenance).
  if (!op.end_time.has_value() && !op.saw_end_record) {
    AddFinding(LintDefect::kMissingEndTime, op.start.op_id, op.start.seq,
               true,
               StrFormat("no EndOp for %s; EndTime repaired from the subtree",
                         c.name.c_str()));
  }

  const OperationModel* op_model =
      model_.Find(op.start.actor_type, op.start.mission_type);
  if (op_model == nullptr) {
    // Unmodeled: splice out, hoisting modeled descendants in start order —
    // the same concatenation-without-sorting the batch Assemble performs.
    for (Contribution& child : op.done_children) {
      for (auto& n : child.nodes) c.nodes.push_back(std::move(n));
    }
    return c;
  }

  std::sort(op.infos.begin(), op.infos.end(),
            [](const LogRecord& a, const LogRecord& b) {
              return a.seq < b.seq;
            });
  std::vector<const LogRecord*> infos;
  infos.reserve(op.infos.size());
  for (const LogRecord& r : op.infos) infos.push_back(&r);

  std::unique_ptr<ArchivedOperation> node =
      MakeOperationNode(op.start, op.end_time, op.end_provenance, infos);
  for (Contribution& child : op.done_children) {
    for (auto& n : child.nodes) node->children.push_back(std::move(n));
  }
  SortChildrenByStartTime(node.get());
  FinalizeOperationNode(*node, *op_model);
  c.nodes.push_back(std::move(node));
  return c;
}

void StreamingArchiver::ForceFinalize(OpId id) {
  auto it = open_.find(id);
  if (it == open_.end()) return;
  std::vector<std::pair<uint64_t, OpId>> kids;
  kids.reserve(it->second.open_children.size());
  for (OpId child : it->second.open_children) {
    kids.emplace_back(open_.at(child).start.seq, child);
  }
  std::sort(kids.begin(), kids.end());
  for (const auto& [seq, child] : kids) ForceFinalize(child);
  // Re-find: finalizing the last forced child may have cascaded into this
  // op already (when its own EndOp had arrived earlier).
  it = open_.find(id);
  if (it == open_.end()) return;
  it->second.closed = true;
  FinalizeOp(id);
}

void StreamingArchiver::Finish() {
  if (finished_) return;
  finished_ = true;

  std::vector<std::pair<uint64_t, OpId>> tops;
  for (const auto& [id, op] : open_) {
    if (op.parent == kNoOp) tops.emplace_back(op.start.seq, id);
  }
  std::sort(tops.begin(), tops.end());
  for (const auto& [seq, id] : tops) ForceFinalize(id);

  // Root election: largest subtree wins, ties broken by lowest start seq —
  // the batch pass's rule.
  for (size_t i = 0; i < roots_.size(); ++i) {
    if (primary_root_ < 0) {
      primary_root_ = static_cast<int>(i);
      continue;
    }
    const Contribution& best = roots_[static_cast<size_t>(primary_root_)];
    const Contribution& cand = roots_[i];
    if (cand.lint_size > best.lint_size ||
        (cand.lint_size == best.lint_size &&
         cand.start_seq < best.start_seq)) {
      primary_root_ = static_cast<int>(i);
    }
  }
  for (size_t i = 0; i < roots_.size(); ++i) {
    if (static_cast<int>(i) == primary_root_) continue;
    AddFinding(LintDefect::kMultipleRoots, roots_[i].op_id,
               roots_[i].start_seq, false,
               StrFormat("extra root %s (subtree of %llu operation(s)) "
                         "quarantined",
                         roots_[i].name.c_str(),
                         static_cast<unsigned long long>(
                             roots_[i].lint_size)));
  }
}

StreamingArchiver::Contribution StreamingArchiver::BuildOpenContribution(
    const OpenOp& op) const {
  struct Slot {
    uint64_t start_seq = 0;
    std::vector<std::unique_ptr<ArchivedOperation>> nodes;
  };
  std::vector<Slot> slots;
  slots.reserve(op.done_children.size() + op.open_children.size());
  for (const Contribution& done : op.done_children) {
    Slot slot;
    slot.start_seq = done.start_seq;
    for (const auto& n : done.nodes) slot.nodes.push_back(n->Clone());
    slots.push_back(std::move(slot));
  }
  for (OpId child : op.open_children) {
    Contribution built = BuildOpenContribution(open_.at(child));
    Slot slot;
    slot.start_seq = built.start_seq;
    slot.nodes = std::move(built.nodes);
    slots.push_back(std::move(slot));
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.start_seq < b.start_seq;
  });

  Contribution c;
  c.start_seq = op.start.seq;
  c.op_id = op.start.op_id;
  c.name = OpName(op.start);

  if (!model_.Contains(op.start.actor_type, op.start.mission_type)) {
    for (Slot& slot : slots) {
      for (auto& n : slot.nodes) c.nodes.push_back(std::move(n));
    }
    return c;
  }

  std::vector<LogRecord> sorted_infos = op.infos;
  std::sort(sorted_infos.begin(), sorted_infos.end(),
            [](const LogRecord& a, const LogRecord& b) {
              return a.seq < b.seq;
            });
  std::vector<const LogRecord*> infos;
  infos.reserve(sorted_infos.size());
  for (const LogRecord& r : sorted_infos) infos.push_back(&r);

  std::unique_ptr<ArchivedOperation> node =
      MakeOperationNode(op.start, op.end_time, op.end_provenance, infos);
  if (!op.end_time.has_value()) {
    // Still running: close provisionally at the stream watermark so the
    // snapshot has well-formed durations, and mark it so downstream
    // consumers (choke-point detectors, renderers) can tell.
    SimTime horizon = std::max(watermark_, op.start.time);
    node->SetInfo("EndTime", Json(horizon.nanos()),
                  "stream watermark (in flight)");
    node->SetInfo("InFlight", Json(true), "streaming archiver");
  }
  for (Slot& slot : slots) {
    for (auto& n : slot.nodes) node->children.push_back(std::move(n));
  }
  SortChildrenByStartTime(node.get());
  // No rule derivation on in-flight nodes: rules assume complete inputs.
  c.nodes.push_back(std::move(node));
  return c;
}

Result<PerformanceArchive> StreamingArchiver::Snapshot() const {
  GRANULA_RETURN_IF_ERROR(model_status_);

  const Contribution* done_root = nullptr;
  const OpenOp* open_root = nullptr;
  if (finished_) {
    if (primary_root_ >= 0) {
      done_root = &roots_[static_cast<size_t>(primary_root_)];
    }
  } else {
    // Mid-stream election over finalized and still-open root candidates:
    // same (subtree size desc, start seq asc) rule as Finish().
    uint64_t best_size = 0;
    uint64_t best_seq = 0;
    auto consider = [&](uint64_t size, uint64_t seq, const Contribution* d,
                        const OpenOp* o) {
      bool better = done_root == nullptr && open_root == nullptr;
      if (!better) {
        better = size > best_size || (size == best_size && seq < best_seq);
      }
      if (!better) return;
      best_size = size;
      best_seq = seq;
      done_root = d;
      open_root = o;
    };
    for (const Contribution& c : roots_) {
      consider(c.lint_size, c.start_seq, &c, nullptr);
    }
    std::function<uint64_t(const OpenOp&)> open_size =
        [&](const OpenOp& op) -> uint64_t {
      uint64_t size = 1;
      for (const Contribution& done : op.done_children) {
        size += done.lint_size;
      }
      for (OpId child : op.open_children) size += open_size(open_.at(child));
      return size;
    };
    for (const auto& [id, op] : open_) {
      if (op.parent != kNoOp) continue;
      consider(open_size(op), op.start.seq, nullptr, &op);
    }
  }
  if (done_root == nullptr && open_root == nullptr) {
    return Status::Corruption("log contains no root operation");
  }

  std::vector<std::unique_ptr<ArchivedOperation>> nodes;
  if (done_root != nullptr) {
    nodes.reserve(done_root->nodes.size());
    for (const auto& n : done_root->nodes) nodes.push_back(n->Clone());
  } else {
    Contribution built = BuildOpenContribution(*open_root);
    nodes = std::move(built.nodes);
  }
  if (nodes.size() != 1) {
    return Status::FailedPrecondition(
        "root operation is not covered by the model");
  }

  PerformanceArchive archive;
  archive.model_name = model_.name();
  // Status matches the batch Archiver: incomplete when the elected root
  // never got a usable EndOp — still in flight mid-stream, or repaired
  // at Finish() (a crashed job's log).
  if (open_root != nullptr ||
      (done_root != nullptr && !done_root->closed_by_record)) {
    archive.status = ArchiveStatus::kIncomplete;
  }
  archive.root = std::move(nodes[0]);
  archive.environment = environment_;
  archive.job_metadata = metadata_;
  archive.lint.findings = findings_;
  SortFindings(&archive.lint.findings);
  return archive;
}

}  // namespace granula::core
