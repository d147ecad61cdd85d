#include "sim/faults.h"

#include <algorithm>

#include "common/random.h"
#include "common/strings.h"

namespace granula::sim {

FaultPlan FaultPlan::Random(uint64_t seed, uint32_t num_workers,
                            uint64_t max_step, uint32_t num_faults) {
  FaultPlan plan;
  if (num_workers == 0) return plan;
  Rng rng(seed);
  for (uint32_t i = 0; i < num_faults; ++i) {
    FaultSpec spec;
    switch (rng.NextBounded(3)) {
      case 0:
        spec.kind = FaultKind::kWorkerCrash;
        break;
      case 1:
        spec.kind = FaultKind::kTaskFailure;
        break;
      default:
        spec.kind = FaultKind::kStorageError;
        break;
    }
    spec.worker = static_cast<uint32_t>(rng.NextBounded(num_workers));
    spec.step = rng.NextBounded(max_step + 1);
    spec.failures = 1;
    spec.work_before_crash =
        SimTime::Millis(static_cast<int64_t>(100 + rng.NextBounded(900)));
    plan.Add(spec);
  }
  return plan;
}

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  for (const std::string& one : StrSplit(text, ',')) {
    std::vector<std::string> parts = StrSplit(one, ':');
    if (parts.empty() || parts[0].empty()) {
      return Status::InvalidArgument("empty --fault spec");
    }
    auto part_u64 = [&](size_t i, uint64_t fallback) -> Result<uint64_t> {
      if (i >= parts.size()) return fallback;
      Result<uint64_t> value = ParseUint64(parts[i]);
      if (!value.ok()) {
        return Status::InvalidArgument("bad fault spec '" + one +
                                       "': " + value.status().message());
      }
      return value;
    };
    // WORKER and N are 32-bit: a larger number is an error, not a
    // silently wrapped value.
    auto part_u32 = [&](size_t i, uint32_t fallback) -> Result<uint32_t> {
      GRANULA_ASSIGN_OR_RETURN(uint64_t value, part_u64(i, fallback));
      if (value > UINT32_MAX) {
        return Status::InvalidArgument("bad fault spec '" + one + "': '" +
                                       parts[i] + "' is out of range");
      }
      return static_cast<uint32_t>(value);
    };
    FaultSpec spec;
    const std::string& kind = parts[0];
    if (kind == "crash" || kind == "task") {
      if (parts.size() < 3 || parts.size() > 4) {
        return Status::InvalidArgument(
            "--fault " + kind + " expects " + kind + ":WORKER:STEP[:N]");
      }
      spec.kind = kind == "crash" ? FaultKind::kWorkerCrash
                                  : FaultKind::kTaskFailure;
      GRANULA_ASSIGN_OR_RETURN(spec.worker, part_u32(1, 0));
      GRANULA_ASSIGN_OR_RETURN(spec.step, part_u64(2, 0));
      GRANULA_ASSIGN_OR_RETURN(spec.failures, part_u32(3, 1));
    } else if (kind == "storage") {
      if (parts.size() < 2 || parts.size() > 3) {
        return Status::InvalidArgument(
            "--fault storage expects storage:WORKER[:N]");
      }
      spec.kind = FaultKind::kStorageError;
      GRANULA_ASSIGN_OR_RETURN(spec.worker, part_u32(1, 0));
      GRANULA_ASSIGN_OR_RETURN(spec.failures, part_u32(2, 1));
    } else if (kind == "netrefuse") {
      if (parts.size() > 2) {
        return Status::InvalidArgument("--fault netrefuse expects netrefuse[:N]");
      }
      spec.kind = FaultKind::kNetRefuse;
      GRANULA_ASSIGN_OR_RETURN(spec.failures, part_u32(1, 1));
    } else if (kind == "netreset" || kind == "netslow") {
      if (parts.size() < 2 || parts.size() > 3) {
        return Status::InvalidArgument(
            "--fault " + kind + " expects " + kind +
            (kind == "netreset" ? ":BYTES[:N]" : ":MS[:N]"));
      }
      spec.kind = kind == "netreset" ? FaultKind::kNetReset
                                     : FaultKind::kNetSlow;
      GRANULA_ASSIGN_OR_RETURN(spec.net_value, part_u64(1, 0));
      GRANULA_ASSIGN_OR_RETURN(spec.failures, part_u32(2, 1));
    } else if (kind == "logdrop" || kind == "logtrunc") {
      if (parts.size() != 2) {
        return Status::InvalidArgument("--fault " + kind + " expects " +
                                       kind + ":SEQ");
      }
      spec.kind = FaultKind::kLogWrite;
      GRANULA_ASSIGN_OR_RETURN(spec.log_seq, part_u64(1, 0));
      spec.log_effect = kind == "logdrop" ? LogWriteFault::kDrop
                                          : LogWriteFault::kTruncate;
    } else {
      return Status::InvalidArgument(
          "unknown fault kind '" + kind +
          "' (crash|task|storage|logdrop|logtrunc|netrefuse|netreset|"
          "netslow)");
    }
    plan.Add(spec);
  }
  return plan;
}

namespace {

// Walks `specs` filtered by `match` in the order given by `less`,
// treating each matching spec as dooming `failures` consecutive
// attempts; returns the spec that covers `attempt`, if any.
template <typename Match, typename Less>
const FaultSpec* CoveringSpec(const std::vector<FaultSpec>& specs,
                              uint32_t attempt, Match match, Less less) {
  std::vector<const FaultSpec*> hits;
  for (const FaultSpec& spec : specs) {
    if (match(spec)) hits.push_back(&spec);
  }
  std::stable_sort(hits.begin(), hits.end(),
                   [&](const FaultSpec* a, const FaultSpec* b) {
                     return less(*a, *b);
                   });
  uint32_t covered = 0;
  for (const FaultSpec* spec : hits) {
    if (attempt < covered + spec->failures) return spec;
    covered += spec->failures;
  }
  return nullptr;
}

bool ByStepWorker(const FaultSpec& a, const FaultSpec& b) {
  if (a.step != b.step) return a.step < b.step;
  return a.worker < b.worker;
}

}  // namespace

const FaultSpec* FaultInjector::JobFault(uint32_t attempt) const {
  return CoveringSpec(
      plan_->specs(), attempt,
      [](const FaultSpec& s) {
        return s.kind == FaultKind::kWorkerCrash ||
               s.kind == FaultKind::kTaskFailure;
      },
      ByStepWorker);
}

const FaultSpec* FaultInjector::CrashAt(uint64_t step,
                                        uint32_t attempt) const {
  return CoveringSpec(
      plan_->specs(), attempt,
      [step](const FaultSpec& s) {
        return s.kind == FaultKind::kWorkerCrash && s.step == step;
      },
      ByStepWorker);
}

const FaultSpec* FaultInjector::TaskFault(uint32_t worker, uint64_t step,
                                          uint32_t attempt) const {
  return CoveringSpec(
      plan_->specs(), attempt,
      [worker, step](const FaultSpec& s) {
        return (s.kind == FaultKind::kTaskFailure ||
                s.kind == FaultKind::kWorkerCrash) &&
               s.worker == worker && s.step == step;
      },
      ByStepWorker);
}

const FaultSpec* FaultInjector::LoadFault(uint32_t worker,
                                          uint32_t attempt) const {
  return CoveringSpec(
      plan_->specs(), attempt,
      [worker](const FaultSpec& s) {
        return (s.kind == FaultKind::kTaskFailure ||
                s.kind == FaultKind::kStorageError) &&
               s.worker == worker;
      },
      ByStepWorker);
}

const FaultSpec* FaultInjector::StorageFault(uint32_t worker,
                                             uint32_t attempt) const {
  return CoveringSpec(
      plan_->specs(), attempt,
      [worker](const FaultSpec& s) {
        return s.kind == FaultKind::kStorageError && s.worker == worker;
      },
      ByStepWorker);
}

SimTime FaultInjector::Backoff(uint32_t retries) const {
  const RetryPolicy& p = plan_->retry;
  double scale = 1.0;
  for (uint32_t i = 0; i < retries; ++i) scale *= p.backoff_factor;
  return p.backoff_base * scale;
}

const FaultSpec* FaultInjector::NetFault(uint32_t connection) const {
  return CoveringSpec(
      plan_->specs(), connection,
      [](const FaultSpec& s) {
        return s.kind == FaultKind::kNetRefuse ||
               s.kind == FaultKind::kNetReset ||
               s.kind == FaultKind::kNetSlow;
      },
      // Declaration order: the stable sort keeps it with an
      // everything-is-equal comparator.
      [](const FaultSpec&, const FaultSpec&) { return false; });
}

LogWriteFault FaultInjector::LogFaultFor(uint64_t seq) const {
  for (const FaultSpec& spec : plan_->specs()) {
    if (spec.kind == FaultKind::kLogWrite && spec.log_seq == seq) {
      return spec.log_effect;
    }
  }
  return LogWriteFault::kNone;
}

}  // namespace granula::sim
