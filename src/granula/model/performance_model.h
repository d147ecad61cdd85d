#ifndef GRANULA_GRANULA_MODEL_PERFORMANCE_MODEL_H_
#define GRANULA_GRANULA_MODEL_PERFORMANCE_MODEL_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "granula/model/info_rule.h"

namespace granula::core {

// Abstraction levels from the paper (Section 3.2): every platform is
// modeled with at least these three; level 4+ is finer implementation
// detail (e.g. Giraph's PreStep/Compute/PostStep).
inline constexpr int kDomainLevel = 1;
inline constexpr int kSystemLevel = 2;
inline constexpr int kImplementationLevel = 3;

// The analyst's description of one operation type: which actor/mission pair
// it is, where it sits in the hierarchy, and how to derive its metrics.
struct OperationModel {
  std::string actor_type;
  std::string mission_type;
  int level = kDomainLevel;
  // Key of the parent operation model ("Actor@Mission"); empty for the root.
  std::string parent_key;
  std::vector<InfoRulePtr> rules;

  std::string Key() const { return actor_type + "@" + mission_type; }
};

// A Granula performance model (paper Fig. 1/Fig. 4): a hierarchy of
// operation models plus info-derivation rules. Models are built
// incrementally — coarse first, refined where the analyst needs detail —
// and can be truncated with WithMaxLevel to trade archive detail for cost
// (requirement R3).
class PerformanceModel {
 public:
  explicit PerformanceModel(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // Registers the root operation model (level 1, no parent).
  Status AddRoot(std::string actor_type, std::string mission_type);

  // Registers a child operation model under (parent_actor@parent_mission).
  // The child's level is parent level + 1 unless `level` is given.
  Status AddOperation(std::string actor_type, std::string mission_type,
                      const std::string& parent_actor_type,
                      const std::string& parent_mission_type,
                      std::optional<int> level = std::nullopt);

  // Attaches an info-derivation rule to an operation model. Every model
  // gets the Duration rule automatically at Add time.
  Status AddRule(const std::string& actor_type,
                 const std::string& mission_type, InfoRulePtr rule);

  const OperationModel* Find(std::string_view actor_type,
                             std::string_view mission_type) const;
  bool Contains(std::string_view actor_type,
                std::string_view mission_type) const;

  const OperationModel* root() const;
  const std::map<std::string, OperationModel, std::less<>>& operations()
      const {
    return operations_;
  }
  int max_level() const;

  // Structural checks: exactly one root, every parent key resolves, levels
  // increase along parent links.
  Status Validate() const;

  // A copy with every operation model deeper than `level` removed — the
  // mechanism behind incremental, cost-bounded evaluation.
  PerformanceModel WithMaxLevel(int level) const;

 private:
  std::string name_;
  std::map<std::string, OperationModel, std::less<>> operations_;
  std::string root_key_;
};

}  // namespace granula::core

#endif  // GRANULA_GRANULA_MODEL_PERFORMANCE_MODEL_H_
