#include "sim/sync.h"

#include <vector>

#include <gtest/gtest.h>

namespace granula::sim {
namespace {

Task<> BarrierWorker(Simulator& sim, Barrier& barrier, SimTime work,
                     std::vector<double>& release_times) {
  co_await sim.Delay(work);
  co_await barrier.Arrive();
  release_times.push_back(sim.Now().seconds());
}

TEST(BarrierTest, ReleasesAllAtLastArrival) {
  Simulator sim;
  Barrier barrier(&sim, 3);
  std::vector<double> releases;
  sim.Spawn(BarrierWorker(sim, barrier, SimTime::Seconds(1), releases));
  sim.Spawn(BarrierWorker(sim, barrier, SimTime::Seconds(5), releases));
  sim.Spawn(BarrierWorker(sim, barrier, SimTime::Seconds(3), releases));
  sim.Run();
  ASSERT_EQ(releases.size(), 3u);
  for (double t : releases) EXPECT_DOUBLE_EQ(t, 5.0);
  EXPECT_EQ(barrier.generation(), 1u);
}

Task<> IterativeWorker(Simulator& sim, Barrier& barrier, int rounds,
                       SimTime step, std::vector<double>& marks) {
  for (int r = 0; r < rounds; ++r) {
    co_await sim.Delay(step);
    co_await barrier.Arrive();
  }
  marks.push_back(sim.Now().seconds());
}

TEST(BarrierTest, ReusableAcrossGenerations) {
  Simulator sim;
  Barrier barrier(&sim, 2);
  std::vector<double> marks;
  sim.Spawn(IterativeWorker(sim, barrier, 3, SimTime::Seconds(1), marks));
  sim.Spawn(IterativeWorker(sim, barrier, 3, SimTime::Seconds(2), marks));
  sim.Run();
  // Slow worker paces both: rounds end at 2, 4, 6.
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_DOUBLE_EQ(marks[0], 6.0);
  EXPECT_DOUBLE_EQ(marks[1], 6.0);
  EXPECT_EQ(barrier.generation(), 3u);
}

Task<> UseSemaphore(Simulator& sim, Semaphore& sem, SimTime hold,
                    std::vector<double>& start_times) {
  co_await sem.Acquire();
  start_times.push_back(sim.Now().seconds());
  co_await sim.Delay(hold);
  sem.Release();
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(&sim, 2);
  std::vector<double> starts;
  for (int i = 0; i < 6; ++i) {
    sim.Spawn(UseSemaphore(sim, sem, SimTime::Seconds(1), starts));
  }
  sim.Run();
  // 2 at t=0, 2 at t=1, 2 at t=2.
  ASSERT_EQ(starts.size(), 6u);
  EXPECT_EQ(std::count(starts.begin(), starts.end(), 0.0), 2);
  EXPECT_EQ(std::count(starts.begin(), starts.end(), 1.0), 2);
  EXPECT_EQ(std::count(starts.begin(), starts.end(), 2.0), 2);
  EXPECT_EQ(sem.available(), 2);
}

TEST(SemaphoreTest, FifoOrdering) {
  Simulator sim;
  Semaphore sem(&sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn([](Simulator& s, Semaphore& sm, std::vector<int>& ord,
                 int id) -> Task<> {
      co_await sm.Acquire();
      ord.push_back(id);
      co_await s.Delay(SimTime::Seconds(1));
      sm.Release();
    }(sim, sem, order, i));
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace granula::sim
