#include "granula/model/info_rule.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"

namespace granula::core {

namespace {

class DurationRule : public InfoRule {
 public:
  DurationRule() : name_("Duration") {}

  const std::string& info_name() const override { return name_; }

  Result<Json> Derive(const ArchivedOperation& op) const override {
    const InfoValue* start = op.FindInfo("StartTime");
    const InfoValue* end = op.FindInfo("EndTime");
    if (start == nullptr || end == nullptr) {
      return Status::NotFound("StartTime/EndTime missing");
    }
    return Json(end->value.AsInt() - start->value.AsInt());
  }

  std::string Describe() const override { return "EndTime - StartTime"; }

 private:
  std::string name_;
};

const char* AggregateName(Aggregate agg) {
  switch (agg) {
    case Aggregate::kSum:
      return "sum";
    case Aggregate::kMax:
      return "max";
    case Aggregate::kMin:
      return "min";
    case Aggregate::kCount:
      return "count";
    case Aggregate::kMean:
      return "mean";
  }
  return "?";
}

class ChildAggregateRule : public InfoRule {
 public:
  ChildAggregateRule(std::string info_name, Aggregate agg,
                     std::string child_info, std::string child_mission_type)
      : name_(std::move(info_name)),
        agg_(agg),
        child_info_(std::move(child_info)),
        child_mission_type_(std::move(child_mission_type)),
        description_(StrFormat("%s of %s over children%s%s",
                               AggregateName(agg_), child_info_.c_str(),
                               child_mission_type_.empty() ? ""
                                                           : " of type ",
                               child_mission_type_.c_str())) {}

  const std::string& info_name() const override { return name_; }

  Result<Json> Derive(const ArchivedOperation& op) const override {
    double sum = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    int64_t count = 0;
    for (const auto& child : op.children) {
      if (!child_mission_type_.empty() &&
          child->mission_type != child_mission_type_) {
        continue;
      }
      const InfoValue* info = child->FindInfo(child_info_);
      if (info == nullptr || !info->value.is_number()) continue;
      double v = info->value.AsDouble();
      sum += v;
      min = std::min(min, v);
      max = std::max(max, v);
      ++count;
    }
    if (count == 0 && agg_ != Aggregate::kCount) {
      return Status::NotFound("no matching children");
    }
    switch (agg_) {
      case Aggregate::kSum:
        return Json(sum);
      case Aggregate::kMax:
        return Json(max);
      case Aggregate::kMin:
        return Json(min);
      case Aggregate::kCount:
        return Json(count);
      case Aggregate::kMean:
        return Json(sum / static_cast<double>(count));
    }
    return Status::Internal("bad aggregate");
  }

  std::string Describe() const override { return description_; }

 private:
  std::string name_;
  Aggregate agg_;
  std::string child_info_;
  std::string child_mission_type_;
  std::string description_;
};

class RateRule : public InfoRule {
 public:
  RateRule(std::string info_name, std::string numerator_info)
      : name_(std::move(info_name)),
        numerator_info_(std::move(numerator_info)),
        description_(numerator_info_ + " / Duration") {}

  const std::string& info_name() const override { return name_; }

  Result<Json> Derive(const ArchivedOperation& op) const override {
    const InfoValue* numerator = op.FindInfo(numerator_info_);
    if (numerator == nullptr || !numerator->value.is_number()) {
      return Status::NotFound("numerator missing");
    }
    double seconds = op.Duration().seconds();
    if (seconds <= 0) return Status::NotFound("zero duration");
    return Json(numerator->value.AsDouble() / seconds);
  }

  std::string Describe() const override { return description_; }

 private:
  std::string name_;
  std::string numerator_info_;
  std::string description_;
};

class CustomRule : public InfoRule {
 public:
  CustomRule(std::string info_name, std::string description,
             std::function<Result<Json>(const ArchivedOperation&)> fn)
      : name_(std::move(info_name)),
        description_(std::move(description)),
        fn_(std::move(fn)) {}

  const std::string& info_name() const override { return name_; }
  Result<Json> Derive(const ArchivedOperation& op) const override {
    return fn_(op);
  }
  std::string Describe() const override { return description_; }

 private:
  std::string name_;
  std::string description_;
  std::function<Result<Json>(const ArchivedOperation&)> fn_;
};

}  // namespace

InfoRulePtr MakeDurationRule() { return std::make_shared<DurationRule>(); }

InfoRulePtr MakeChildAggregateRule(std::string info_name, Aggregate agg,
                                   std::string child_info,
                                   std::string child_mission_type) {
  return std::make_shared<ChildAggregateRule>(
      std::move(info_name), agg, std::move(child_info),
      std::move(child_mission_type));
}

InfoRulePtr MakeRateRule(std::string info_name, std::string numerator_info) {
  return std::make_shared<RateRule>(std::move(info_name),
                                    std::move(numerator_info));
}

InfoRulePtr MakeCustomRule(
    std::string info_name, std::string description,
    std::function<Result<Json>(const ArchivedOperation&)> fn) {
  return std::make_shared<CustomRule>(std::move(info_name),
                                      std::move(description), std::move(fn));
}

}  // namespace granula::core
