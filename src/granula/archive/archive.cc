#include "granula/archive/archive.h"

#include <algorithm>

#include "common/strings.h"

namespace granula::core {

std::string ArchivedOperation::DisplayName() const {
  const std::string& actor = actor_id.empty() ? actor_type : actor_id;
  const std::string& mission = mission_id.empty() ? mission_type : mission_id;
  return actor + " @ " + mission;
}

std::string ArchivedOperation::TypeKey() const {
  return actor_type + "@" + mission_type;
}

bool ArchivedOperation::HasInfo(std::string_view name) const {
  return infos.find(name) != infos.end();
}

const InfoValue* ArchivedOperation::FindInfo(std::string_view name) const {
  auto it = infos.find(name);
  return it == infos.end() ? nullptr : &it->second;
}

double ArchivedOperation::InfoNumber(std::string_view name,
                                     double fallback) const {
  const InfoValue* info = FindInfo(name);
  if (info == nullptr || !info->value.is_number()) return fallback;
  return info->value.AsDouble();
}

SimTime ArchivedOperation::StartTime() const {
  const InfoValue* info = FindInfo("StartTime");
  if (info == nullptr || !info->value.is_number()) return SimTime();
  return SimTime::Nanos(info->value.AsInt());
}

SimTime ArchivedOperation::EndTime() const {
  const InfoValue* info = FindInfo("EndTime");
  if (info == nullptr || !info->value.is_number()) return SimTime();
  return SimTime::Nanos(info->value.AsInt());
}

void ArchivedOperation::SetInfo(std::string name, Json value,
                                std::string source) {
  infos[std::move(name)] = InfoValue{std::move(value), std::move(source)};
}

void ArchivedOperation::Visit(
    const std::function<void(const ArchivedOperation&)>& fn) const {
  fn(*this);
  for (const auto& child : children) child->Visit(fn);
}

uint64_t ArchivedOperation::SubtreeSize() const {
  uint64_t count = 1;
  for (const auto& child : children) count += child->SubtreeSize();
  return count;
}

Json ArchivedOperation::ToJson() const {
  Json j;
  j["actor_type"] = actor_type;
  j["actor_id"] = actor_id;
  j["mission_type"] = mission_type;
  j["mission_id"] = mission_id;
  Json infos_json = Json::MakeObject();
  for (const auto& [name, info] : infos) {
    Json entry;
    entry["value"] = info.value;
    entry["source"] = info.source;
    infos_json[name] = std::move(entry);
  }
  j["infos"] = std::move(infos_json);
  Json children_json = Json::MakeArray();
  for (const auto& child : children) children_json.Append(child->ToJson());
  j["children"] = std::move(children_json);
  return j;
}

Result<OperationPtr> ArchivedOperation::FromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::Corruption("operation node must be a JSON object");
  }
  auto op = std::make_shared<ArchivedOperation>();
  op->actor_type = j.GetString("actor_type");
  op->actor_id = j.GetString("actor_id");
  op->mission_type = j.GetString("mission_type");
  op->mission_id = j.GetString("mission_id");
  if (const Json* infos = j.Find("infos"); infos != nullptr) {
    if (!infos->is_object()) {
      return Status::Corruption("infos must be an object");
    }
    for (const auto& [name, entry] : infos->AsObject()) {
      InfoValue info;
      if (const Json* value = entry.Find("value")) info.value = *value;
      info.source = entry.GetString("source");
      op->infos[name] = std::move(info);
    }
  }
  if (const Json* children = j.Find("children"); children != nullptr) {
    if (!children->is_array()) {
      return Status::Corruption("children must be an array");
    }
    for (const Json& child : children->AsArray()) {
      GRANULA_ASSIGN_OR_RETURN(auto parsed, FromJson(child));
      op->children.push_back(std::move(parsed));
    }
  }
  return OperationPtr(std::move(op));
}

namespace {

// Levels in the tree under `op`, `op` included. Recursive: only run on
// trees Json::Parse bounded.
int TreeDepth(const ArchivedOperation& op) {
  int deepest = 0;
  for (const auto& child : op.children) {
    deepest = std::max(deepest, TreeDepth(*child));
  }
  return deepest + 1;
}

const ArchivedOperation* MatchSegment(const ArchivedOperation& op,
                                      std::string_view segment) {
  if (op.mission_id == segment) return &op;
  if (op.mission_id.empty() && op.mission_type == segment) return &op;
  return nullptr;
}

}  // namespace

const ArchivedOperation* PerformanceArchive::FindByPath(
    std::string_view path) const {
  if (root == nullptr) return nullptr;
  std::vector<std::string> segments = StrSplit(path, '/');
  if (segments.empty()) return nullptr;
  const ArchivedOperation* current = MatchSegment(*root, segments[0]);
  if (current == nullptr) return nullptr;
  for (size_t i = 1; i < segments.size(); ++i) {
    const ArchivedOperation* next = nullptr;
    for (const auto& child : current->children) {
      next = MatchSegment(*child, segments[i]);
      if (next != nullptr) break;
    }
    if (next == nullptr) return nullptr;
    current = next;
  }
  return current;
}

std::vector<const ArchivedOperation*> PerformanceArchive::FindOperations(
    std::string_view actor_type, std::string_view mission_type) const {
  std::vector<const ArchivedOperation*> out;
  if (root == nullptr) return out;
  root->Visit([&](const ArchivedOperation& op) {
    bool actor_ok = actor_type.empty() || op.actor_type == actor_type;
    bool mission_ok = mission_type.empty() || op.mission_type == mission_type;
    if (actor_ok && mission_ok) out.push_back(&op);
  });
  return out;
}

uint64_t PerformanceArchive::OperationCount() const {
  return root == nullptr ? 0 : root->SubtreeSize();
}

std::map<std::string, double> PerformanceArchive::TopLevelBreakdown() const {
  std::map<std::string, double> breakdown;
  if (root == nullptr) return breakdown;
  double total = root->Duration().seconds();
  if (total <= 0) return breakdown;
  for (const auto& child : root->children) {
    std::string key =
        child->mission_id.empty() ? child->mission_type : child->mission_id;
    breakdown[key] += child->Duration().seconds() / total;
  }
  return breakdown;
}

std::string_view ArchiveStatusName(ArchiveStatus status) {
  return status == ArchiveStatus::kComplete ? "complete" : "incomplete";
}

std::string PerformanceArchive::ToJsonString(int indent) const {
  Json j;
  Json meta = Json::MakeObject();
  for (const auto& [key, value] : job_metadata) meta[key] = value;
  j["job"] = std::move(meta);
  j["model"] = model_name;
  j["status"] = std::string(ArchiveStatusName(status));
  j["root"] = root == nullptr ? Json() : root->ToJson();
  Json env = Json::MakeArray();
  for (const EnvironmentRecord& r : environment) {
    Json entry;
    entry["node"] = static_cast<int64_t>(r.node);
    entry["hostname"] = r.hostname;
    entry["time_s"] = r.time_seconds;
    entry["cpu"] = r.cpu_seconds_per_second;
    entry["net_bps"] = r.net_bytes_per_second;
    entry["disk_bps"] = r.disk_bytes_per_second;
    env.Append(std::move(entry));
  }
  j["environment"] = std::move(env);
  if (!lint.clean()) j["quarantined"] = lint.ToJson();
  return j.Dump(indent);
}

Result<PerformanceArchive> PerformanceArchive::FromJsonString(
    std::string_view text) {
  GRANULA_ASSIGN_OR_RETURN(Json j, Json::Parse(text));
  PerformanceArchive archive;
  if (const Json* meta = j.Find("job"); meta != nullptr && meta->is_object()) {
    for (const auto& [key, value] : meta->AsObject()) {
      if (value.is_string()) archive.job_metadata[key] = value.AsString();
    }
  }
  archive.model_name = j.GetString("model");
  // Absent in archives written before the status field existed: those
  // were all complete runs.
  archive.status = j.GetString("status") == "incomplete"
                       ? ArchiveStatus::kIncomplete
                       : ArchiveStatus::kComplete;
  if (const Json* root = j.Find("root");
      root != nullptr && !root->is_null()) {
    GRANULA_ASSIGN_OR_RETURN(archive.root, ArchivedOperation::FromJson(*root));
    if (TreeDepth(*archive.root) > kMaxOperationDepth) {
      return Status::Corruption(StrFormat(
          "archive operation tree deeper than %d levels", kMaxOperationDepth));
    }
  }
  if (const Json* env = j.Find("environment");
      env != nullptr && env->is_array()) {
    for (const Json& entry : env->AsArray()) {
      EnvironmentRecord r;
      r.node = static_cast<uint32_t>(entry.GetInt("node"));
      r.hostname = entry.GetString("hostname");
      r.time_seconds = entry.GetDouble("time_s");
      r.cpu_seconds_per_second = entry.GetDouble("cpu");
      r.net_bytes_per_second = entry.GetDouble("net_bps");
      r.disk_bytes_per_second = entry.GetDouble("disk_bps");
      archive.environment.push_back(std::move(r));
    }
  }
  if (const Json* quarantined = j.Find("quarantined");
      quarantined != nullptr) {
    GRANULA_ASSIGN_OR_RETURN(archive.lint,
                             LintReport::FromJson(*quarantined));
  }
  return archive;
}

}  // namespace granula::core
