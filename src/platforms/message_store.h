#ifndef GRANULA_PLATFORMS_MESSAGE_STORE_H_
#define GRANULA_PLATFORMS_MESSAGE_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "algorithms/pregel.h"
#include "graph/graph.h"
#include "platforms/sharded_outbox.h"

namespace granula::platform {

// Double-buffered Pregel message store, sharded for host-parallel delivery.
//
// Deliveries during superstep k go into a ShardedOutbox ("next"); Swap() at
// the superstep barrier merges the shards into the flat "current"
// representation the vertex programs read. A shard is owned by exactly one
// ParallelFor chunk of one worker, and the merge folds shards in index
// order, so it produces bit-identical results for every host-thread count.
//
// With a combiner, messages to the same vertex collapse to one value at
// merge time (as Giraph's combiners do), but the pre-combine delivery count
// is kept for compute-cost accounting. Without a combiner, messages land in
// flat per-bucket value arrays grouped stably by (target, shard, seq), which
// reproduces the sequential engine's per-vertex delivery order.
//
// Outbox and current-value capacity above kRetainBytes is released at every
// Swap, bounding resident memory across supersteps (ResidentBytes() exposes
// the accounting for tests).
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
    outbox_.Emit(shard, target, value);
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
    const std::vector<double>& bucket = bucket_values_[outbox_.BucketOf(v)];
    return std::span<const double>(bucket.data() + offset_[v], count_[v]);
  }

  // Pre-combine deliveries into the current buffer (cost accounting).
  uint64_t CurrentDeliveryCount(graph::VertexId v) const { return count_[v]; }

  // Deliveries buffered for the next superstep (sums over shards; call
  // outside parallel regions).
  uint64_t pending_total() const { return outbox_.size(); }

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
  // capacity above kRetainBytes, and recycle shard slots.
  void Swap();

  // Bytes held by dynamic message storage (shard outboxes + current value
  // buckets), by capacity. Excludes the fixed O(V) index arrays. Used by
  // tests to assert bounded residency across supersteps.
  uint64_t ResidentBytes() const;

 private:
  void MergeBucket(uint64_t b);

  algo::Combiner combiner_;
  ShardedOutbox<double> outbox_;

  // "Current" superstep state, rebuilt at Swap.
  std::vector<uint64_t> count_;           // pre-combine deliveries per vertex
  std::vector<double> value_;             // combiner path: combined value
  std::vector<uint64_t> offset_;          // no-combiner: index into bucket
  std::vector<std::vector<double>> bucket_values_;  // no-combiner payloads
  uint64_t current_total_ = 0;

  const std::vector<uint32_t>* owner_ = nullptr;
  uint32_t num_partitions_ = 0;
  std::vector<uint64_t> current_partition_counts_;
};

}  // namespace granula::platform

#endif  // GRANULA_PLATFORMS_MESSAGE_STORE_H_
