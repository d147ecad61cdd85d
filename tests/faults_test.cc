// Unit tests for the deterministic fault plan and its injector: attempt
// coverage and ordering, backoff arithmetic, log-write fault lookup, and
// determinism of the seeded random plan, and the textual grammar under
// hostile input. The injector must stay a pure function of the plan —
// every query here is repeated to prove it.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "sim/faults.h"

namespace granula::sim {
namespace {

FaultSpec Crash(uint32_t worker, uint64_t step, uint32_t failures = 1) {
  FaultSpec spec;
  spec.kind = FaultKind::kWorkerCrash;
  spec.worker = worker;
  spec.step = step;
  spec.failures = failures;
  return spec;
}

TEST(FaultPlanTest, EmptyPlanIsInert) {
  FaultPlan plan;
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.enabled());
  EXPECT_EQ(injector.JobFault(0), nullptr);
  EXPECT_EQ(injector.CrashAt(0, 0), nullptr);
  EXPECT_EQ(injector.TaskFault(0, 0, 0), nullptr);
  EXPECT_EQ(injector.LoadFault(0, 0), nullptr);
  EXPECT_EQ(injector.StorageFault(0, 0), nullptr);
  EXPECT_EQ(injector.LogFaultFor(7), LogWriteFault::kNone);
}

TEST(FaultPlanTest, JobFaultCoversAttemptsInStepWorkerOrder) {
  FaultPlan plan;
  plan.Add(Crash(/*worker=*/3, /*step=*/5));
  plan.Add(Crash(/*worker=*/1, /*step=*/2));
  FaultInjector injector(plan);
  ASSERT_TRUE(injector.enabled());

  // Attempt 0 is doomed by the earliest (step, worker) spec, regardless
  // of insertion order; attempt 1 by the next; attempt 2 succeeds.
  const FaultSpec* first = injector.JobFault(0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->step, 2u);
  EXPECT_EQ(first->worker, 1u);
  const FaultSpec* second = injector.JobFault(1);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->step, 5u);
  EXPECT_EQ(second->worker, 3u);
  EXPECT_EQ(injector.JobFault(2), nullptr);
}

TEST(FaultPlanTest, MultiFailureSpecDoomsConsecutiveAttempts) {
  FaultPlan plan;
  plan.Add(Crash(/*worker=*/0, /*step=*/1, /*failures=*/3));
  FaultInjector injector(plan);
  for (uint32_t attempt = 0; attempt < 3; ++attempt) {
    EXPECT_NE(injector.JobFault(attempt), nullptr) << "attempt " << attempt;
  }
  EXPECT_EQ(injector.JobFault(3), nullptr);
}

TEST(FaultPlanTest, CrashAtMatchesOnlyItsStep) {
  FaultPlan plan;
  plan.Add(Crash(/*worker=*/2, /*step=*/4));
  FaultInjector injector(plan);
  EXPECT_EQ(injector.CrashAt(3, 0), nullptr);
  EXPECT_NE(injector.CrashAt(4, 0), nullptr);
  EXPECT_EQ(injector.CrashAt(4, 1), nullptr);  // one failure only
  EXPECT_EQ(injector.CrashAt(5, 0), nullptr);
}

TEST(FaultPlanTest, TaskFaultMatchesWorkerAndStepForBothKinds) {
  FaultPlan plan;
  FaultSpec task;
  task.kind = FaultKind::kTaskFailure;
  task.worker = 1;
  task.step = 0;
  plan.Add(task);
  plan.Add(Crash(/*worker=*/2, /*step=*/3));
  FaultInjector injector(plan);
  EXPECT_NE(injector.TaskFault(1, 0, 0), nullptr);
  // Worker crashes surface as failed task attempts on Hadoop.
  EXPECT_NE(injector.TaskFault(2, 3, 0), nullptr);
  EXPECT_EQ(injector.TaskFault(1, 1, 0), nullptr);
  EXPECT_EQ(injector.TaskFault(0, 0, 0), nullptr);
}

TEST(FaultPlanTest, StorageFaultFiltersKindAndWorker) {
  FaultPlan plan;
  FaultSpec storage;
  storage.kind = FaultKind::kStorageError;
  storage.worker = 4;
  storage.failures = 2;
  plan.Add(storage);
  plan.Add(Crash(/*worker=*/4, /*step=*/0));
  FaultInjector injector(plan);
  EXPECT_NE(injector.StorageFault(4, 0), nullptr);
  EXPECT_NE(injector.StorageFault(4, 1), nullptr);
  EXPECT_EQ(injector.StorageFault(4, 2), nullptr);  // crash doesn't count
  EXPECT_EQ(injector.StorageFault(3, 0), nullptr);
}

TEST(FaultPlanTest, BackoffGrowsExponentially) {
  FaultPlan plan;
  plan.retry.backoff_base = SimTime::Millis(100);
  plan.retry.backoff_factor = 2.0;
  FaultInjector injector(plan);
  EXPECT_EQ(injector.Backoff(0), SimTime::Millis(100));
  EXPECT_EQ(injector.Backoff(1), SimTime::Millis(200));
  EXPECT_EQ(injector.Backoff(3), SimTime::Millis(800));
}

TEST(FaultPlanTest, LogFaultForMatchesSeq) {
  FaultPlan plan;
  FaultSpec drop;
  drop.kind = FaultKind::kLogWrite;
  drop.log_seq = 12;
  drop.log_effect = LogWriteFault::kDrop;
  plan.Add(drop);
  FaultSpec trunc;
  trunc.kind = FaultKind::kLogWrite;
  trunc.log_seq = 30;
  trunc.log_effect = LogWriteFault::kTruncate;
  plan.Add(trunc);
  FaultInjector injector(plan);
  EXPECT_EQ(injector.LogFaultFor(12), LogWriteFault::kDrop);
  EXPECT_EQ(injector.LogFaultFor(30), LogWriteFault::kTruncate);
  EXPECT_EQ(injector.LogFaultFor(13), LogWriteFault::kNone);
}

TEST(FaultPlanTest, RepeatedQueriesAreStable) {
  FaultPlan plan;
  plan.Add(Crash(/*worker=*/1, /*step=*/2, /*failures=*/2));
  FaultInjector injector(plan);
  const FaultSpec* a = injector.JobFault(1);
  const FaultSpec* b = injector.JobFault(1);
  EXPECT_EQ(a, b);  // pure function: same pointer, no consumed state
}

TEST(FaultPlanTest, RandomPlanIsDeterministicInSeed) {
  FaultPlan a = FaultPlan::Random(/*seed=*/42, /*num_workers=*/8,
                                  /*max_step=*/6, /*num_faults=*/5);
  FaultPlan b = FaultPlan::Random(42, 8, 6, 5);
  ASSERT_EQ(a.specs().size(), 5u);
  ASSERT_EQ(b.specs().size(), 5u);
  for (size_t i = 0; i < a.specs().size(); ++i) {
    EXPECT_EQ(a.specs()[i].kind, b.specs()[i].kind);
    EXPECT_EQ(a.specs()[i].worker, b.specs()[i].worker);
    EXPECT_EQ(a.specs()[i].step, b.specs()[i].step);
    EXPECT_EQ(a.specs()[i].work_before_crash, b.specs()[i].work_before_crash);
  }
  FaultPlan c = FaultPlan::Random(43, 8, 6, 5);
  bool any_diff = false;
  for (size_t i = 0; i < c.specs().size(); ++i) {
    if (c.specs()[i].worker != a.specs()[i].worker ||
        c.specs()[i].step != a.specs()[i].step) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff) << "different seeds should give different plans";
  EXPECT_TRUE(FaultPlan::Random(1, /*num_workers=*/0, 4, 3).empty());
}

TEST(FaultPlanTest, ParsesTheNetworkFaultGrammar) {
  auto plan = FaultPlan::Parse("netrefuse:2,netreset:1024,netslow:40:3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->specs().size(), 3u);

  EXPECT_EQ(plan->specs()[0].kind, FaultKind::kNetRefuse);
  EXPECT_EQ(plan->specs()[0].failures, 2u);

  EXPECT_EQ(plan->specs()[1].kind, FaultKind::kNetReset);
  EXPECT_EQ(plan->specs()[1].net_value, 1024u);
  EXPECT_EQ(plan->specs()[1].failures, 1u);

  EXPECT_EQ(plan->specs()[2].kind, FaultKind::kNetSlow);
  EXPECT_EQ(plan->specs()[2].net_value, 40u);
  EXPECT_EQ(plan->specs()[2].failures, 3u);

  // Bare netrefuse defaults to one connection.
  auto bare = FaultPlan::Parse("netrefuse");
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_EQ(bare->specs()[0].failures, 1u);

  // Strict numerics and arities, same as the rest of the grammar.
  EXPECT_FALSE(FaultPlan::Parse("netreset").ok());       // missing BYTES
  EXPECT_FALSE(FaultPlan::Parse("netslow:x").ok());      // non-numeric
  EXPECT_FALSE(FaultPlan::Parse("netrefuse:1:2").ok());  // too many parts
  EXPECT_FALSE(FaultPlan::Parse("netreset:1:2:3").ok());
}

TEST(FaultPlanTest, NetFaultCoversConnectionsInDeclarationOrder) {
  auto plan = FaultPlan::Parse("netrefuse:2,netreset:64,netslow:10:2");
  ASSERT_TRUE(plan.ok()) << plan.status();
  FaultInjector injector(*plan);

  // Connections 0-1 refused, 2 reset, 3-4 slow, 5+ clean.
  const FaultSpec* c0 = injector.NetFault(0);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->kind, FaultKind::kNetRefuse);
  const FaultSpec* c1 = injector.NetFault(1);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->kind, FaultKind::kNetRefuse);
  const FaultSpec* c2 = injector.NetFault(2);
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c2->kind, FaultKind::kNetReset);
  EXPECT_EQ(c2->net_value, 64u);
  const FaultSpec* c4 = injector.NetFault(4);
  ASSERT_NE(c4, nullptr);
  EXPECT_EQ(c4->kind, FaultKind::kNetSlow);
  EXPECT_EQ(injector.NetFault(5), nullptr);

  // Pure function: the same query gives the same answer.
  EXPECT_EQ(injector.NetFault(2), c2);

  // Net specs are invisible to the platform-side decision points, and
  // platform specs are invisible to NetFault.
  EXPECT_EQ(injector.JobFault(0), nullptr);
  auto crash_plan = FaultPlan::Parse("crash:0:1");
  ASSERT_TRUE(crash_plan.ok());
  EXPECT_EQ(FaultInjector(*crash_plan).NetFault(0), nullptr);
}

TEST(FaultPlanTest, RejectsWorkerAndCountsPastThirtyTwoBits) {
  // Both used to wrap: worker 1 and failures 0.
  EXPECT_EQ(FaultPlan::Parse("crash:4294967297:1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("crash:0:1:4294967296").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("storage:4294967296").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("netslow:5:4294967296").status().code(),
            StatusCode::kInvalidArgument);

  // The largest 32-bit values still parse, and STEP stays 64-bit.
  auto edge = FaultPlan::Parse("task:4294967295:18446744073709551615:"
                               "4294967295");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge->specs()[0].worker, 4294967295u);
  EXPECT_EQ(edge->specs()[0].step, 18446744073709551615u);
  EXPECT_EQ(edge->specs()[0].failures, 4294967295u);
}

// The decimal value of `text`, or nullopt when it is not a plain run of
// digits or does not fit 64 bits.
std::optional<uint64_t> Decimal(std::string_view text) {
  if (text.empty()) return std::nullopt;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

// Checks every field of an accepted `spec` against the numbers written in
// `text`, its one comma-free SPEC.
void ExpectFieldsMatchText(const FaultSpec& spec, const std::string& text) {
  SCOPED_TRACE(text);
  const std::vector<std::string> parts = StrSplit(text, ':');
  auto number = [&](size_t i, uint64_t fallback) -> uint64_t {
    if (i >= parts.size()) return fallback;
    std::optional<uint64_t> value = Decimal(parts[i]);
    EXPECT_TRUE(value.has_value()) << "accepted '" << parts[i] << "'";
    return value.value_or(0);
  };
  const std::string& kind = parts[0];
  if (kind == "crash" || kind == "task") {
    EXPECT_EQ(spec.kind, kind == "crash" ? FaultKind::kWorkerCrash
                                         : FaultKind::kTaskFailure);
    EXPECT_EQ(spec.worker, number(1, 0));
    EXPECT_EQ(spec.step, number(2, 0));
    EXPECT_EQ(spec.failures, number(3, 1));
  } else if (kind == "storage") {
    EXPECT_EQ(spec.kind, FaultKind::kStorageError);
    EXPECT_EQ(spec.worker, number(1, 0));
    EXPECT_EQ(spec.failures, number(2, 1));
  } else if (kind == "netrefuse") {
    EXPECT_EQ(spec.kind, FaultKind::kNetRefuse);
    EXPECT_EQ(spec.failures, number(1, 1));
  } else if (kind == "netreset" || kind == "netslow") {
    EXPECT_EQ(spec.kind, kind == "netreset" ? FaultKind::kNetReset
                                            : FaultKind::kNetSlow);
    EXPECT_EQ(spec.net_value, number(1, 0));
    EXPECT_EQ(spec.failures, number(2, 1));
  } else if (kind == "logdrop" || kind == "logtrunc") {
    EXPECT_EQ(spec.kind, FaultKind::kLogWrite);
    EXPECT_EQ(spec.log_effect, kind == "logdrop" ? LogWriteFault::kDrop
                                                 : LogWriteFault::kTruncate);
    EXPECT_EQ(spec.log_seq, number(1, 0));
  } else {
    ADD_FAILURE() << "accepted unknown kind '" << kind << "'";
  }
}

TEST(FaultPlanTest, MutatedSpecsNeverCrashOrOverreach) {
  const std::vector<std::string> seeds = {
      "crash:2:1",
      "task:0:3:2,storage:1:2",
      "logdrop:40,logtrunc:60",
      "netrefuse:2,netreset:1024,netslow:40:3",
      "crash:0:1:4,storage:3,task:7:0",
  };
  const std::vector<std::string> inserts = {
      ":", ",", "::", ",,", "0", "7", "-1", "+1", " ",
      "4294967295", "4294967296", "18446744073709551615",
      "18446744073709551616", "99999999999999999999", "crash:", "storage:"};
  Rng rng(19);
  int accepted = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string text = seeds[rng.NextBounded(seeds.size())];
    const uint64_t mutations = 1 + rng.NextBounded(3);
    for (uint64_t m = 0; m < mutations; ++m) {
      const size_t at = rng.NextBounded(text.size() + 1);
      switch (rng.NextBounded(3)) {
        case 0:  // flip a byte
          if (at < text.size()) {
            text[at] = static_cast<char>(rng.NextBounded(256));
          }
          break;
        case 1:  // truncate
          text.resize(at);
          break;
        default:  // insert a separator or a huge/negative number
          text.insert(at, inserts[rng.NextBounded(inserts.size())]);
          break;
      }
    }
    SCOPED_TRACE(testing::Message() << "round " << round << ": " << text);
    Result<FaultPlan> plan = FaultPlan::Parse(text);
    if (!plan.ok()) {
      EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    } else {
      ++accepted;
      const std::vector<std::string> specs = StrSplit(text, ',');
      ASSERT_EQ(plan->specs().size(), specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        ExpectFieldsMatchText(plan->specs()[i], specs[i]);
      }
    }
    if (testing::Test::HasFailure()) return;
  }
  // The field checks must have had something to check (925 of the 20000
  // mutants parse with this seed).
  EXPECT_GT(accepted, 500);
}

}  // namespace
}  // namespace granula::sim
