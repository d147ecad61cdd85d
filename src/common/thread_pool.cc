#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace granula {

namespace {

// Set while a thread is executing chunks, so reentrant ParallelFor calls
// (e.g. a parallel merge inside a parallel region) run inline instead of
// deadlocking on the single shared job slot.
thread_local bool t_in_pool_job = false;

int DefaultHostThreads() {
  if (const char* env = std::getenv("GRANULA_HOST_THREADS")) {
    char* end = nullptr;
    long n = std::strtol(env, &end, 10);
    if (end != env && n >= 1 && n <= 1024) return static_cast<int>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) { Resize(num_threads); }

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Spawn() {
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  shutdown_ = false;
}

void ThreadPool::Resize(int num_threads) {
  Shutdown();
  num_threads_ = std::max(1, num_threads);
  Spawn();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_gen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || job_gen_ != seen_gen; });
      if (shutdown_) return;
      seen_gen = job_gen_;
      // A fully claimed job is either drained or already retired; skip it
      // rather than touching its (possibly being-rewritten) fields. The
      // caller cannot start the next job while workers_in_job_ > 0, so a
      // worker that does enter here reads stable fields.
      if (next_chunk_.load(std::memory_order_relaxed) >= job_chunks_) {
        continue;
      }
      ++workers_in_job_;
    }
    t_in_pool_job = true;
    RunChunks();
    t_in_pool_job = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_in_job_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::RunChunks() {
  for (;;) {
    uint64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= job_chunks_) return;
    uint64_t b = job_begin_ + c * job_grain_;
    uint64_t e = std::min(b + job_grain_, job_end_);
    try {
      (*job_fn_)(c, b, e);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!job_error_) job_error_ = std::current_exception();
    }
    if (done_chunks_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job_chunks_) {
      // Briefly take the lock so a caller between its predicate check and
      // its sleep cannot miss this wakeup.
      { std::lock_guard<std::mutex> lock(mu_); }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(uint64_t begin, uint64_t end, uint64_t grain,
                             const ChunkFn& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  uint64_t chunks = NumChunks(end - begin, grain);
  // Inline path: single thread, single chunk, a nested call from inside a
  // pool job, or an outside caller that finds the job slot taken by
  // another thread's job (concurrent HTTP handlers, a fleet finalizer
  // saving beside them): it runs its own chunks instead of queueing
  // behind a job of unknown length. Chunk indices and bounds are
  // identical to the threaded path.
  auto run_inline = [&] {
    for (uint64_t c = 0; c < chunks; ++c) {
      uint64_t b = begin + c * grain;
      fn(c, b, std::min(b + grain, end));
    }
  };
  if (num_threads_ == 1 || chunks == 1 || t_in_pool_job) {
    run_inline();
    return;
  }
  bool claimed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!job_active_) {
      claimed = job_active_ = true;
      job_fn_ = &fn;
      job_begin_ = begin;
      job_end_ = end;
      job_grain_ = grain;
      job_chunks_ = chunks;
      next_chunk_.store(0, std::memory_order_relaxed);
      done_chunks_.store(0, std::memory_order_relaxed);
      job_error_ = nullptr;
      ++job_gen_;
    }
  }
  if (!claimed) {
    run_inline();
    return;
  }
  work_cv_.notify_all();
  t_in_pool_job = true;
  RunChunks();
  t_in_pool_job = false;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return done_chunks_.load(std::memory_order_acquire) == job_chunks_ &&
             workers_in_job_ == 0;
    });
    // Read the error before freeing the slot: the next job resets it.
    error = job_error_;
    job_fn_ = nullptr;
    job_active_ = false;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::Global() {
  // Leaked intentionally: engine code may run during static destruction of
  // test fixtures; a joined-at-exit pool would deadlock with TSan atexit.
  static ThreadPool* pool = new ThreadPool(DefaultHostThreads());
  return *pool;
}

}  // namespace granula
