#ifndef GRANULA_SIM_SYNC_H_
#define GRANULA_SIM_SYNC_H_

#include <cassert>
#include <coroutine>
#include <deque>
#include <vector>

#include "sim/simulator.h"

namespace granula::sim {

// Reusable BSP barrier for `parties` participants. Every arrival suspends;
// when the last party arrives, the whole generation is released at the
// current simulation time. This is the synchronization point between Pregel
// supersteps.
class Barrier {
 public:
  Barrier(Simulator* sim, int parties) : sim_(sim), parties_(parties) {
    assert(parties > 0);
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  int parties() const { return parties_; }
  uint64_t generation() const { return generation_; }

  auto Arrive() {
    struct Awaiter {
      Barrier* barrier;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        barrier->waiting_.push_back(h);
        if (static_cast<int>(barrier->waiting_.size()) == barrier->parties_) {
          ++barrier->generation_;
          for (std::coroutine_handle<> w : barrier->waiting_) {
            barrier->sim_->ScheduleResume(barrier->sim_->Now(), w);
          }
          barrier->waiting_.clear();
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulator* sim_;
  int parties_;
  uint64_t generation_ = 0;
  std::vector<std::coroutine_handle<>> waiting_;
};

// Counting semaphore with FIFO handoff: Release passes a permit directly to
// the oldest waiter, so acquisition order is fair and deterministic.
class Semaphore {
 public:
  Semaphore(Simulator* sim, int64_t permits)
      : sim_(sim), permits_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  int64_t available() const { return permits_; }
  size_t queue_length() const { return waiters_.size(); }

  auto Acquire() {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept {
        if (sem->permits_ > 0 && sem->waiters_.empty()) {
          --sem->permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem->waiters_.push_back(h);
        sem->Drain();
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void Release() {
    ++permits_;
    Drain();
  }

 private:
  void Drain() {
    while (permits_ > 0 && !waiters_.empty()) {
      --permits_;
      std::coroutine_handle<> h = waiters_.front();
      waiters_.pop_front();
      sim_->ScheduleResume(sim_->Now(), h);
    }
  }

  Simulator* sim_;
  int64_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace granula::sim

#endif  // GRANULA_SIM_SYNC_H_
