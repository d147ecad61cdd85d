#include "granula/model/performance_model.h"

#include <algorithm>
#include <initializer_list>

#include "common/strings.h"

namespace granula::core {

namespace {

// A model key ("actor@mission") given as its two halves, so a lookup
// orders it against the stored keys without building the concatenation.
struct TypeKey {
  std::string_view actor;
  std::string_view mission;
};

// Three-way comparison of `key` with actor + "@" + mission.
int Compare(std::string_view key, const TypeKey& type) {
  for (std::string_view piece : {type.actor, std::string_view("@"),
                                 type.mission}) {
    std::string_view head = key.substr(0, piece.size());
    if (int c = head.compare(piece.substr(0, head.size())); c != 0) return c;
    if (head.size() < piece.size()) return -1;
    key.remove_prefix(piece.size());
  }
  return key.empty() ? 0 : 1;
}

bool operator<(const std::string& key, const TypeKey& type) {
  return Compare(key, type) < 0;
}
bool operator<(const TypeKey& type, const std::string& key) {
  return Compare(key, type) > 0;
}

}  // namespace

Status PerformanceModel::AddRoot(std::string actor_type,
                                 std::string mission_type) {
  if (!root_key_.empty()) {
    return Status::AlreadyExists("model already has a root operation");
  }
  OperationModel op;
  op.actor_type = std::move(actor_type);
  op.mission_type = std::move(mission_type);
  op.level = kDomainLevel;
  op.rules.push_back(MakeDurationRule());
  root_key_ = op.Key();
  operations_[root_key_] = std::move(op);
  return Status::OK();
}

Status PerformanceModel::AddOperation(std::string actor_type,
                                      std::string mission_type,
                                      const std::string& parent_actor_type,
                                      const std::string& parent_mission_type,
                                      std::optional<int> level) {
  std::string parent_key = parent_actor_type + "@" + parent_mission_type;
  auto parent = operations_.find(parent_key);
  if (parent == operations_.end()) {
    return Status::NotFound(
        StrFormat("parent operation model %s", parent_key.c_str()));
  }
  OperationModel op;
  op.actor_type = std::move(actor_type);
  op.mission_type = std::move(mission_type);
  op.level = level.value_or(parent->second.level + 1);
  op.parent_key = parent_key;
  op.rules.push_back(MakeDurationRule());
  std::string key = op.Key();
  if (operations_.count(key) > 0) {
    return Status::AlreadyExists(
        StrFormat("operation model %s", key.c_str()));
  }
  operations_[key] = std::move(op);
  return Status::OK();
}

Status PerformanceModel::AddRule(const std::string& actor_type,
                                 const std::string& mission_type,
                                 InfoRulePtr rule) {
  auto it = operations_.find(actor_type + "@" + mission_type);
  if (it == operations_.end()) {
    return Status::NotFound(StrFormat("operation model %s@%s",
                                      actor_type.c_str(),
                                      mission_type.c_str()));
  }
  it->second.rules.push_back(std::move(rule));
  return Status::OK();
}

const OperationModel* PerformanceModel::Find(
    std::string_view actor_type, std::string_view mission_type) const {
  auto it = operations_.find(TypeKey{actor_type, mission_type});
  return it == operations_.end() ? nullptr : &it->second;
}

bool PerformanceModel::Contains(std::string_view actor_type,
                                std::string_view mission_type) const {
  return Find(actor_type, mission_type) != nullptr;
}

const OperationModel* PerformanceModel::root() const {
  auto it = operations_.find(root_key_);
  return it == operations_.end() ? nullptr : &it->second;
}

int PerformanceModel::max_level() const {
  int level = 0;
  for (const auto& [key, op] : operations_) level = std::max(level, op.level);
  return level;
}

Status PerformanceModel::Validate() const {
  if (root_key_.empty()) return Status::FailedPrecondition("model has no root");
  for (const auto& [key, op] : operations_) {
    if (key == root_key_) {
      if (!op.parent_key.empty()) {
        return Status::Internal("root has a parent");
      }
      continue;
    }
    if (op.parent_key.empty()) {
      return Status::FailedPrecondition(
          StrFormat("non-root operation %s has no parent", key.c_str()));
    }
    auto parent = operations_.find(op.parent_key);
    if (parent == operations_.end()) {
      return Status::FailedPrecondition(
          StrFormat("operation %s has unknown parent %s", key.c_str(),
                    op.parent_key.c_str()));
    }
    if (op.level <= parent->second.level) {
      return Status::FailedPrecondition(
          StrFormat("operation %s level %d not deeper than parent level %d",
                    key.c_str(), op.level, parent->second.level));
    }
  }
  return Status::OK();
}

PerformanceModel PerformanceModel::WithMaxLevel(int level) const {
  PerformanceModel trimmed(name_ + StrFormat("@L%d", level));
  trimmed.root_key_ = root_key_;
  for (const auto& [key, op] : operations_) {
    if (op.level <= level) trimmed.operations_[key] = op;
  }
  // Drop operations whose parent chain was trimmed away (possible when
  // levels were assigned manually with gaps); iterate to a fixpoint since
  // removals can cascade.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = trimmed.operations_.begin();
         it != trimmed.operations_.end();) {
      const OperationModel& op = it->second;
      if (!op.parent_key.empty() &&
          trimmed.operations_.count(op.parent_key) == 0) {
        it = trimmed.operations_.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
  return trimmed;
}

}  // namespace granula::core
