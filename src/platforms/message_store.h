#ifndef GRANULA_PLATFORMS_MESSAGE_STORE_H_
#define GRANULA_PLATFORMS_MESSAGE_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "algorithms/pregel.h"
#include "graph/graph.h"

namespace granula::platform {

// Double-buffered Pregel message store, sharded for host-parallel delivery.
//
// Deliveries during superstep k go into per-shard outboxes ("next");
// Swap() at the superstep barrier merges the shards into the flat "current"
// representation the vertex programs read. A shard is owned by exactly one
// ParallelFor chunk of one worker, and shard indices are handed out in
// deterministic (simulation) order via AddShards(), so the merge — which
// folds shards in index order — produces bit-identical results for every
// host-thread count (see DESIGN.md "Host parallelism vs. simulated
// parallelism").
//
// With a combiner, messages to the same vertex collapse to one value at
// merge time (as Giraph's combiners do), but the pre-combine delivery count
// is kept for compute-cost accounting. Without a combiner, messages land in
// flat per-bucket value arrays grouped stably by (target, shard, seq), which
// reproduces the sequential engine's per-vertex delivery order.
//
// Shard outboxes are bucketed by target range so the merge parallelizes
// over disjoint vertex ranges. Outbox capacity above a fixed retention cap
// is released at every Swap, bounding resident memory across supersteps
// (ResidentBytes() exposes the accounting for tests).
class MessageStore {
 public:
  MessageStore(uint64_t num_vertices, algo::Combiner combiner);

  // Frontier bookkeeping: with an owner map installed, Swap() also counts
  // the merged deliveries per partition (per receiving vertex, not per
  // message), so engines can skip whole partitions at the barrier.
  // `owner` must outlive the store.
  void SetOwners(const std::vector<uint32_t>* owner, uint32_t num_partitions);

  // Reserves `n` outbox shards for a parallel region and returns the index
  // of the first. Must be called outside parallel regions; the call order
  // (simulation order) defines the merge order.
  uint64_t AddShards(uint64_t n);

  // Concurrent-safe across *distinct* shards.
  void Deliver(uint64_t shard, graph::VertexId target, double value) {
    Shard& s = shards_[shard];
    s.buckets[BucketOf(target)].push_back(Msg{target, value});
    ++s.total;
  }
  // Sequential convenience: delivers to shard 0 (always present).
  void Deliver(graph::VertexId target, double value) {
    Deliver(0, target, value);
  }

  bool HasCurrent(graph::VertexId v) const { return count_[v] > 0; }

  // Messages visible to the vertex program this superstep, in the same
  // order the sequential engine would have delivered them.
  std::span<const double> CurrentMessages(graph::VertexId v) const {
    if (count_[v] == 0) return {};
    if (combiner_ != algo::Combiner::kNone) {
      return std::span<const double>(&value_[v], 1);
    }
    const std::vector<double>& bucket = bucket_values_[BucketOf(v)];
    return std::span<const double>(bucket.data() + offset_[v], count_[v]);
  }

  // Pre-combine deliveries into the current buffer (cost accounting).
  uint64_t CurrentDeliveryCount(graph::VertexId v) const { return count_[v]; }

  // Deliveries buffered for the next superstep (sums over shards; call
  // outside parallel regions).
  uint64_t pending_total() const;

  // Deliveries buffered in shards [first, first + n), per partition
  // (requires SetOwners; call outside parallel regions). Visits every
  // buffered message of those shards, host-parallel by shard.
  std::vector<uint64_t> PendingPartitionCounts(uint64_t first,
                                               uint64_t n) const;

  // Deliveries merged into the current superstep.
  uint64_t current_total() const { return current_total_; }

  // Current-superstep deliveries addressed to partition p (requires
  // SetOwners).
  uint64_t CurrentPartitionCount(uint32_t p) const {
    return current_partition_counts_[p];
  }

  // Barrier action: merge shards (next becomes current), release slack
  // capacity above the retention cap, and recycle shard slots.
  void Swap();

  // Bytes held by dynamic message storage (shard outboxes + current value
  // buckets), by capacity. Excludes the fixed O(V) index arrays. Used by
  // tests to assert bounded residency across supersteps.
  uint64_t ResidentBytes() const;

 private:
  struct Msg {
    graph::VertexId target;
    double value;
  };
  // Deliver() bumps `total` per message from the shard's own chunk; a cache
  // line per shard keeps chunks on different threads from sharing one.
  struct alignas(64) Shard {
    std::vector<std::vector<Msg>> buckets;
    uint64_t total = 0;
  };

  uint64_t BucketOf(graph::VertexId v) const { return v >> bucket_shift_; }
  uint64_t BucketBegin(uint64_t b) const { return b << bucket_shift_; }
  uint64_t BucketEnd(uint64_t b) const {
    uint64_t e = (b + 1) << bucket_shift_;
    return e < num_vertices_ ? e : num_vertices_;
  }
  void InitShard(Shard& shard) const;
  void MergeBucket(uint64_t b);

  // Per-Swap capacity retention cap for one outbox/value vector.
  static constexpr uint64_t kRetainBytes = 64 * 1024;

  uint64_t num_vertices_;
  algo::Combiner combiner_;
  uint64_t bucket_shift_ = 0;
  uint64_t num_buckets_ = 0;

  std::vector<Shard> shards_;
  uint64_t live_shards_ = 1;

  // "Current" superstep state, rebuilt at Swap.
  std::vector<uint64_t> count_;           // pre-combine deliveries per vertex
  std::vector<double> value_;             // combiner path: combined value
  std::vector<uint64_t> offset_;          // no-combiner: index into bucket
  std::vector<std::vector<double>> bucket_values_;  // no-combiner payloads
  std::vector<uint64_t> touched_;         // buckets with current messages
  uint64_t current_total_ = 0;

  const std::vector<uint32_t>* owner_ = nullptr;
  uint32_t num_partitions_ = 0;
  std::vector<uint64_t> current_partition_counts_;
};

}  // namespace granula::platform

#endif  // GRANULA_PLATFORMS_MESSAGE_STORE_H_
