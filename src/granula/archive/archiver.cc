#include "granula/archive/archiver.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "granula/archive/assembly.h"

namespace granula::core {

namespace {

// Recursively assembles op `index` from the linted view. Operations
// missing from `model` are spliced out: their children are hoisted into
// `out` directly. Each node is finalized as soon as its children are, the
// order the streaming archiver (granula/live) finalizes in; node
// construction, child ordering and finalization go through the shared
// assembly core so the two match byte-for-byte.
void Assemble(uint32_t index, const LintedLog& linted,
              const PerformanceModel& model, bool* saw_unmodeled,
              std::vector<OperationPtr>* out) {
  const LintedLog::Op& p = linted.ops[index];

  std::vector<OperationPtr> children;
  for (uint32_t child : linted.ChildrenOf(p)) {
    Assemble(child, linted, model, saw_unmodeled, &children);
  }

  const OperationModel* op_model =
      model.Find(p.start->actor_type, p.start->mission_type);
  if (op_model == nullptr) {
    *saw_unmodeled = true;
    for (auto& child : children) out->push_back(std::move(child));
    return;
  }

  std::shared_ptr<ArchivedOperation> op = MakeOperationNode(
      *p.start, p.end_time, p.end_provenance, linted.InfosOf(p));
  op->children = std::move(children);
  SortChildrenByStartTime(op.get());
  FinalizeOperationNode(*op, *op_model);
  out->push_back(std::move(op));
}

// Fails when the linted tree nests deeper than an archive may hold —
// checked with an explicit stack before the recursive Assemble runs.
Status CheckDepth(const LintedLog& linted) {
  std::vector<std::pair<uint32_t, int>> stack = {{linted.root, 1}};
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    if (depth > kMaxOperationDepth) {
      return Status::Corruption(StrFormat(
          "operations nest deeper than %d levels", kMaxOperationDepth));
    }
    for (uint32_t child : linted.ChildrenOf(linted.ops[index])) {
      stack.emplace_back(child, depth + 1);
    }
  }
  return Status::OK();
}

}  // namespace

Result<PerformanceArchive> Archiver::Build(
    const PerformanceModel& model, const std::vector<LogRecord>& records,
    std::vector<EnvironmentRecord> environment,
    std::map<std::string, std::string> job_metadata) const {
  GRANULA_RETURN_IF_ERROR(model.Validate());
  std::optional<PerformanceModel> trimmed;
  if (options_.max_level > 0) trimmed = model.WithMaxLevel(options_.max_level);
  const PerformanceModel& effective = trimmed ? *trimmed : model;

  LintedLog linted = LintAndRepair(records);
  if (options_.tolerance == Tolerance::kStrict && linted.report.HasFatal()) {
    return Status::Corruption(linted.report.Summary());
  }
  if (linted.root == LintedLog::kNone) {
    return Status::Corruption("log contains no root operation");
  }
  GRANULA_RETURN_IF_ERROR(CheckDepth(linted));

  std::vector<OperationPtr> assembled;
  bool saw_unmodeled = false;
  Assemble(linted.root, linted, effective, &saw_unmodeled, &assembled);
  if (options_.strict && saw_unmodeled) {
    return Status::FailedPrecondition(
        "strict mode: log contains operations absent from the model");
  }
  if (assembled.size() != 1) {
    return Status::FailedPrecondition(
        "root operation is not covered by the model");
  }

  PerformanceArchive archive;
  archive.model_name = effective.name();
  // A root with no usable EndOp is a job that never finished (crash, or
  // a log truncated mid-run): lint repairs the timestamp so assembly can
  // proceed, and the archive is marked incomplete rather than carrying
  // only a generic defect string.
  if (!linted.ops[linted.root].end_time.has_value()) {
    archive.status = ArchiveStatus::kIncomplete;
  }
  archive.root = std::move(assembled[0]);
  archive.environment = std::move(environment);
  archive.job_metadata = std::move(job_metadata);
  archive.lint = std::move(linted.report);
  return archive;
}

}  // namespace granula::core
