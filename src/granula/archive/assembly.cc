#include "granula/archive/assembly.h"

#include <algorithm>
#include <utility>

namespace granula::core {

std::shared_ptr<ArchivedOperation> MakeOperationNode(
    const LogRecord& start, const std::optional<SimTime>& end_time,
    std::string_view end_provenance,
    std::span<const LogRecord* const> infos) {
  auto op = std::make_shared<ArchivedOperation>();
  op->actor_type = start.actor_type;
  op->actor_id = start.actor_id;
  op->mission_type = start.mission_type;
  op->mission_id = start.mission_id;
  op->SetInfo("StartTime", Json(start.time.nanos()), "platform log");
  if (end_time.has_value()) {
    std::string source = "platform log";
    source += end_provenance;
    op->SetInfo("EndTime", Json(end_time->nanos()), std::move(source));
  }
  for (const LogRecord* info : infos) {
    op->SetInfo(info->info_name, info->info_value, "platform log");
  }
  return op;
}

void SortChildrenByStartTime(ArchivedOperation* op) {
  auto& children = op->children;
  if (children.size() < 2) return;
  // Children nearly always arrive in start order already: check that with
  // one StartTime lookup per child before paying for a keyed sort.
  SimTime last = children[0]->StartTime();
  size_t i = 1;
  for (; i < children.size(); ++i) {
    SimTime start = children[i]->StartTime();
    if (start < last) break;
    last = start;
  }
  if (i == children.size()) return;
  std::vector<std::pair<SimTime, OperationPtr>> keyed;
  keyed.reserve(children.size());
  for (auto& child : children) {
    SimTime start = child->StartTime();
    keyed.emplace_back(start, std::move(child));
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (i = 0; i < keyed.size(); ++i) children[i] = std::move(keyed[i].second);
}

void FinalizeOperationNode(ArchivedOperation& op,
                           const OperationModel& op_model) {
  SimTime child_max_end;
  for (const auto& child : op.children) {
    child_max_end = std::max(child_max_end, child->EndTime());
  }
  if (!op.HasInfo("EndTime")) {
    SimTime repaired = std::max(op.StartTime(), child_max_end);
    op.SetInfo("EndTime", Json(repaired.nanos()),
               "max end of subtree (repaired)");
  }
  for (const InfoRulePtr& rule : op_model.rules) {
    Result<Json> derived = rule->Derive(op);
    if (derived.ok()) {
      op.SetInfo(rule->info_name(), std::move(derived).value(),
                 rule->Describe());
    }
  }
}

}  // namespace granula::core
