#include "platforms/message_store.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace granula::platform {

MessageStore::MessageStore(uint64_t num_vertices, algo::Combiner combiner)
    : combiner_(combiner), outbox_(num_vertices) {
  count_.assign(num_vertices, 0);
  if (combiner_ == algo::Combiner::kNone) {
    offset_.assign(num_vertices, 0);
    bucket_values_.resize(outbox_.num_buckets());
  } else {
    value_.assign(num_vertices, 0.0);
  }
  outbox_.AddShards(1);  // shard 0, for sequential delivery
}

void MessageStore::SetOwners(const std::vector<uint32_t>* owner,
                             uint32_t num_partitions) {
  owner_ = owner;
  num_partitions_ = num_partitions;
  current_partition_counts_.assign(num_partitions_, 0);
}

uint64_t MessageStore::AddShards(uint64_t n) { return outbox_.AddShards(n); }

std::vector<uint64_t> MessageStore::PendingPartitionCounts(uint64_t first,
                                                         uint64_t n) const {
  std::vector<uint64_t> per_shard(n * num_partitions_, 0);
  ParallelFor(0, n, /*grain=*/1, [&](uint64_t, uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) {
      uint64_t* counts = per_shard.data() + i * num_partitions_;
      outbox_.ForEachInShard(first + i, [&](const auto& m) {
        ++counts[(*owner_)[m.target]];
      });
    }
  });
  std::vector<uint64_t> total(num_partitions_, 0);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      total[p] += per_shard[i * num_partitions_ + p];
    }
  }
  return total;
}

void MessageStore::MergeBucket(uint64_t b) {
  if (combiner_ != algo::Combiner::kNone) {
    // Fold shards in index order — the global sequential delivery order.
    // (kMin/kMax are exact in any order; kSum folds in the same order as
    // the sequential engine, so results are bit-identical regardless.)
    outbox_.ForEachInBucket(b, [this](const auto& m) {
      if (count_[m.target]++ == 0) {
        value_[m.target] = m.value;
        return;
      }
      switch (combiner_) {
        case algo::Combiner::kMin:
          value_[m.target] = std::min(value_[m.target], m.value);
          break;
        case algo::Combiner::kMax:
          value_[m.target] = std::max(value_[m.target], m.value);
          break;
        case algo::Combiner::kSum:
          value_[m.target] += m.value;
          break;
        case algo::Combiner::kNone:
          break;
      }
    });
    return;
  }
  // No combiner: counting sort by target, stable in (shard, seq) order —
  // i.e. exactly the order a sequential engine would have appended.
  outbox_.ForEachInBucket(b, [this](const auto& m) { ++count_[m.target]; });
  uint64_t run = 0;
  const uint64_t lo = outbox_.BucketBegin(b);
  const uint64_t hi = outbox_.BucketEnd(b);
  for (uint64_t v = lo; v < hi; ++v) {
    offset_[v] = run;
    run += count_[v];
    count_[v] = 0;  // reused as the placement cursor below
  }
  std::vector<double>& values = bucket_values_[b];
  values.resize(run);
  outbox_.ForEachInBucket(b, [&](const auto& m) {
    values[offset_[m.target] + count_[m.target]++] = m.value;
  });
}

void MessageStore::Swap() {
  // Drop the previous superstep's current state, touching only the buckets
  // the last Drain merged.
  for (uint64_t b : outbox_.touched()) {
    const uint64_t hi = outbox_.BucketEnd(b);
    for (uint64_t v = outbox_.BucketBegin(b); v < hi; ++v) count_[v] = 0;
    if (combiner_ == algo::Combiner::kNone) ReleaseOrClear(bucket_values_[b]);
  }
  current_total_ = outbox_.size();
  outbox_.Drain([this](uint64_t b) { MergeBucket(b); });
  outbox_.AddShards(1);  // shard 0 again

  std::fill(current_partition_counts_.begin(),
            current_partition_counts_.end(), 0);
  if (owner_ != nullptr) {
    // Per receiving vertex, not per message.
    for (uint64_t b : outbox_.touched()) {
      const uint64_t hi = outbox_.BucketEnd(b);
      for (uint64_t v = outbox_.BucketBegin(b); v < hi; ++v) {
        current_partition_counts_[(*owner_)[v]] += count_[v];
      }
    }
  }
}

uint64_t MessageStore::ResidentBytes() const {
  uint64_t bytes = outbox_.ResidentBytes();
  for (const std::vector<double>& bucket : bucket_values_) {
    bytes += bucket.capacity() * sizeof(double);
  }
  return bytes;
}

}  // namespace granula::platform
