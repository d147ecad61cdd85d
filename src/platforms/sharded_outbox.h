#ifndef GRANULA_PLATFORMS_SHARDED_OUTBOX_H_
#define GRANULA_PLATFORMS_SHARDED_OUTBOX_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "graph/graph.h"

namespace granula::platform {

// Capacity one outbox or value vector keeps across supersteps.
inline constexpr uint64_t kRetainBytes = 64 * 1024;

// Releases a vector's memory when its capacity exceeds kRetainBytes,
// otherwise keeps the allocation for reuse next superstep. This bounds
// resident memory after a high-water superstep instead of retaining the
// peak forever.
template <typename T>
void ReleaseOrClear(std::vector<T>& v) {
  if (v.capacity() * sizeof(T) > kRetainBytes) {
    std::vector<T>().swap(v);
  } else {
    v.clear();
  }
}

// Per-chunk outboxes for host-parallel message exchange, shared by
// MessageStore (Giraph, Hadoop) and PGX.D's push scatter.
//
// A shard is owned by exactly one ParallelFor chunk. AddShards() hands out
// shard indices in deterministic (simulation) order, and ForEachInBucket()
// visits shards in index order, each in emission order — the order a
// sequential loop would have produced, since chunks are contiguous
// subranges of the iteration. Whatever a caller folds in that order is
// identical for every host-thread count (DESIGN.md "Host parallelism vs.
// simulated parallelism").
//
// Messages are bucketed by target range, at most 64 buckets, so Drain()
// runs the caller's merge kernel over disjoint vertex ranges in parallel.
template <typename Value>
class ShardedOutbox {
 public:
  struct Message {
    graph::VertexId target;
    Value value;
  };

  explicit ShardedOutbox(uint64_t num_vertices) : num_vertices_(num_vertices) {
    // Bucket width: next power of two of ceil(V / 64) — enough merge
    // parallelism without per-shard bucket arrays dominating memory.
    uint64_t width = 1;
    if (num_vertices_ > 64) {
      width = std::bit_ceil((num_vertices_ + 63) / 64);
    }
    bucket_shift_ = static_cast<uint64_t>(std::countr_zero(width));
    num_buckets_ = num_vertices_ == 0
                       ? 0
                       : ((num_vertices_ + width - 1) >> bucket_shift_);
  }

  uint64_t num_buckets() const { return num_buckets_; }
  uint64_t BucketOf(graph::VertexId v) const { return v >> bucket_shift_; }
  uint64_t BucketBegin(uint64_t b) const { return b << bucket_shift_; }
  uint64_t BucketEnd(uint64_t b) const {
    uint64_t e = (b + 1) << bucket_shift_;
    return e < num_vertices_ ? e : num_vertices_;
  }

  // Reserves `n` shards for one parallel region and returns the index of
  // the first. Call outside parallel regions; the call order defines the
  // merge order. Shard storage is recycled by Drain().
  uint64_t AddShards(uint64_t n) {
    uint64_t first = live_shards_;
    live_shards_ += n;
    if (shards_.size() < live_shards_) {
      uint64_t old_size = shards_.size();
      shards_.resize(live_shards_);
      for (uint64_t i = old_size; i < live_shards_; ++i) {
        shards_[i].resize(num_buckets_);
      }
    }
    return first;
  }

  // Concurrent-safe across *distinct* shards.
  void Emit(uint64_t shard, graph::VertexId target, Value value) {
    shards_[shard][BucketOf(target)].push_back(
        Message{target, std::move(value)});
  }

  // Messages buffered in every shard (call outside parallel regions).
  uint64_t size() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      for (const std::vector<Message>& bucket : s) total += bucket.size();
    }
    return total;
  }

  // Calls fn(message) for every message buffered in `shard`.
  template <typename Fn>
  void ForEachInShard(uint64_t shard, Fn&& fn) const {
    for (const std::vector<Message>& bucket : shards_[shard]) {
      for (const Message& m : bucket) fn(m);
    }
  }

  // Calls fn(message) for every message of bucket `b`: shards in index
  // order, each shard in emission order.
  template <typename Fn>
  void ForEachInBucket(uint64_t b, Fn&& fn) const {
    for (const Shard& s : shards_) {
      for (const Message& m : s[b]) fn(m);
    }
  }

  // Finds the buckets holding messages (touched()), runs merge(b) for each
  // of them on the host pool, then empties every shard — releasing bucket
  // capacity above kRetainBytes — and frees every shard slot for
  // AddShards(). A kernel that writes only the per-vertex state of its own
  // bucket's range needs no locking. Call outside parallel regions.
  template <typename MergeFn>
  void Drain(MergeFn&& merge) {
    touched_.clear();
    for (uint64_t b = 0; b < num_buckets_; ++b) {
      for (const Shard& s : shards_) {
        if (!s[b].empty()) {
          touched_.push_back(b);
          break;
        }
      }
    }
    ParallelFor(0, touched_.size(), /*grain=*/1,
                [&](uint64_t, uint64_t lo, uint64_t hi) {
                  for (uint64_t i = lo; i < hi; ++i) merge(touched_[i]);
                });
    for (Shard& s : shards_) {
      for (std::vector<Message>& bucket : s) ReleaseOrClear(bucket);
    }
    live_shards_ = 0;
  }

  // The buckets the last Drain() merged, in increasing order.
  const std::vector<uint64_t>& touched() const { return touched_; }

  // Bytes held by the shard buckets, by capacity.
  uint64_t ResidentBytes() const {
    uint64_t bytes = 0;
    for (const Shard& s : shards_) {
      for (const std::vector<Message>& bucket : s) {
        bytes += bucket.capacity() * sizeof(Message);
      }
    }
    return bytes;
  }

 private:
  using Shard = std::vector<std::vector<Message>>;

  uint64_t num_vertices_;
  uint64_t bucket_shift_ = 0;
  uint64_t num_buckets_ = 0;
  std::vector<Shard> shards_;
  uint64_t live_shards_ = 0;
  std::vector<uint64_t> touched_;
};

}  // namespace granula::platform

#endif  // GRANULA_PLATFORMS_SHARDED_OUTBOX_H_
