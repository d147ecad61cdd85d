#ifndef GRANULA_BENCH_THREAD_AXIS_H_
#define GRANULA_BENCH_THREAD_AXIS_H_

#include <thread>

#include <benchmark/benchmark.h>

namespace granula {

// Host-thread axis for benches that sweep ThreadPool::Global().Resize():
// 1, 2, 4, 8, up to the host's core count. More pool threads than cores
// only measure oversubscription.
inline void ThreadAxis(benchmark::internal::Benchmark* b) {
  const unsigned cores = std::thread::hardware_concurrency();
  for (int threads = 1; threads <= 8; threads *= 2) {
    if (threads > 1 && static_cast<unsigned>(threads) > cores) break;
    b->Arg(threads);
  }
}

}  // namespace granula

#endif  // GRANULA_BENCH_THREAD_AXIS_H_
