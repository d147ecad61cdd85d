#include "granula/live/streaming_archiver.h"

#include <algorithm>
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
  if (finished_ || !too_deep_.ok()) return;
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
      if (parent->second.depth >= kMaxOperationDepth) {
        // Ingesting stops here, so no walk over the open table (or a
        // snapshot of it) ever goes deeper than an archive may.
        too_deep_ = Status::Corruption(StrFormat(
            "operations nest deeper than %d levels", kMaxOperationDepth));
        return;
      }
      op.parent = record.parent_id;
      op.depth = parent->second.depth + 1;
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
  const OpenOp& op = node.mapped();
  // Mirrors the batch pass: the finding fires only when no end record of
  // any kind arrived (a quarantined inverted/duplicate end already has its
  // own finding and provenance).
  if (!op.end_time.has_value() && !op.saw_end_record) {
    AddFinding(LintDefect::kMissingEndTime, op.start.op_id, op.start.seq,
               true,
               StrFormat("no EndOp for %s; EndTime repaired from the subtree",
                         OpName(op.start).c_str()));
  }
  Contribution contribution = BuildContribution(op, /*finalized=*/true);
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
  contribution.name = OpName(op.start);
  roots_.push_back(std::move(contribution));
}

StreamingArchiver::Contribution StreamingArchiver::BuildContribution(
    const OpenOp& op, bool finalized) const {
  // Spines of the open children; a finalized op has none left.
  std::vector<Contribution> open_children;
  open_children.reserve(op.open_children.size());
  for (OpId child : op.open_children) {
    open_children.push_back(
        BuildContribution(open_.at(child), /*finalized=*/false));
  }
  std::vector<const Contribution*> kids;
  kids.reserve(op.done_children.size() + open_children.size());
  for (const Contribution& kid : op.done_children) kids.push_back(&kid);
  for (const Contribution& kid : open_children) kids.push_back(&kid);
  std::sort(kids.begin(), kids.end(),
            [](const Contribution* a, const Contribution* b) {
              return a->start_seq < b->start_seq;
            });

  Contribution c;
  c.start_seq = op.start.seq;
  c.op_id = op.start.op_id;
  c.closed_by_record = finalized && op.end_time.has_value();
  c.lint_size = 1;
  for (const Contribution* kid : kids) c.lint_size += kid->lint_size;

  const OperationModel* op_model =
      model_.Find(op.start.actor_type, op.start.mission_type);
  if (op_model == nullptr) {
    // Unmodeled: splice out, hoisting modeled descendants in start order —
    // the same concatenation-without-sorting the batch Assemble performs.
    for (const Contribution* kid : kids) {
      c.nodes.insert(c.nodes.end(), kid->nodes.begin(), kid->nodes.end());
    }
    return c;
  }

  std::vector<const LogRecord*> infos;
  infos.reserve(op.infos.size());
  for (const LogRecord& r : op.infos) infos.push_back(&r);
  std::sort(infos.begin(), infos.end(),
            [](const LogRecord* a, const LogRecord* b) {
              return a->seq < b->seq;
            });

  std::shared_ptr<ArchivedOperation> node =
      MakeOperationNode(op.start, op.end_time, op.end_provenance, infos);
  for (const Contribution* kid : kids) {
    node->children.insert(node->children.end(), kid->nodes.begin(),
                          kid->nodes.end());
  }
  SortChildrenByStartTime(node.get());
  if (finalized) {
    FinalizeOperationNode(*node, *op_model);
  } else if (!op.end_time.has_value()) {
    // Still running: close provisionally at the stream watermark so the
    // snapshot has well-formed durations, and mark it so downstream
    // consumers (choke-point detectors, renderers) can tell. No rule
    // derivation on in-flight nodes: rules assume complete inputs.
    SimTime horizon = std::max(watermark_, op.start.time);
    node->SetInfo("EndTime", Json(horizon.nanos()),
                  "stream watermark (in flight)");
    node->SetInfo("InFlight", Json(true), "streaming archiver");
  }
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

const StreamingArchiver::Contribution* StreamingArchiver::ElectRoot(
    const std::vector<Contribution>& open_roots) const {
  const Contribution* best = nullptr;
  auto consider = [&best](const Contribution& c) {
    if (best == nullptr || ElectedOver(c.lint_size, c.start_seq,
                                       best->lint_size, best->start_seq)) {
      best = &c;
    }
  };
  for (const Contribution& c : roots_) consider(c);
  for (const Contribution& c : open_roots) consider(c);
  return best;
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

  const Contribution* primary = ElectRoot({});
  for (const Contribution& c : roots_) {
    if (&c == primary) continue;
    findings_.push_back(
        ExtraRootFinding(c.name, c.op_id, c.start_seq, c.lint_size));
  }
}

Result<PerformanceArchive> StreamingArchiver::Snapshot() const {
  GRANULA_RETURN_IF_ERROR(model_status_);
  GRANULA_RETURN_IF_ERROR(too_deep_);

  // Mid-stream, still-open root candidates join the election as spines
  // built over their finalized subtrees. After Finish() nothing is open,
  // so this is Finish()'s election.
  std::vector<Contribution> open_roots;
  for (const auto& [id, op] : open_) {
    if (op.parent == kNoOp) {
      open_roots.push_back(BuildContribution(op, /*finalized=*/false));
    }
  }
  const Contribution* root = ElectRoot(open_roots);
  if (root == nullptr) {
    return Status::Corruption("log contains no root operation");
  }
  if (root->nodes.size() != 1) {
    return Status::FailedPrecondition(
        "root operation is not covered by the model");
  }

  PerformanceArchive archive;
  archive.model_name = model_.name();
  // Status matches the batch Archiver: incomplete when the elected root
  // never got a usable EndOp — still in flight mid-stream, or repaired
  // at Finish() (a crashed job's log).
  if (!root->closed_by_record) archive.status = ArchiveStatus::kIncomplete;
  archive.root = root->nodes[0];
  archive.environment = environment_;
  archive.job_metadata = metadata_;
  archive.lint.findings = findings_;
  SortFindings(&archive.lint.findings);
  return archive;
}

}  // namespace granula::core
