#include "platforms/message_store.h"

#include <algorithm>
#include <bit>

#include "common/thread_pool.h"

namespace granula::platform {

namespace {

// Releases a vector's memory when its capacity exceeds `retain_bytes`,
// otherwise keeps the allocation for reuse next superstep. This bounds
// resident memory after a high-water superstep instead of retaining the
// peak forever.
template <typename T>
void ReleaseOrClear(std::vector<T>& v, uint64_t retain_bytes) {
  if (v.capacity() * sizeof(T) > retain_bytes) {
    std::vector<T>().swap(v);
  } else {
    v.clear();
  }
}

}  // namespace

MessageStore::MessageStore(uint64_t num_vertices, algo::Combiner combiner)
    : num_vertices_(num_vertices), combiner_(combiner) {
  // Bucket width: next power of two of ceil(V / 64), giving at most 64
  // contiguous-range buckets — enough merge parallelism without per-shard
  // bucket arrays dominating memory.
  uint64_t width = 1;
  if (num_vertices_ > 64) {
    width = std::bit_ceil((num_vertices_ + 63) / 64);
  }
  bucket_shift_ = static_cast<uint64_t>(std::countr_zero(width));
  num_buckets_ =
      num_vertices_ == 0 ? 0 : ((num_vertices_ + width - 1) >> bucket_shift_);

  count_.assign(num_vertices_, 0);
  if (combiner_ == algo::Combiner::kNone) {
    offset_.assign(num_vertices_, 0);
    bucket_values_.resize(num_buckets_);
  } else {
    value_.assign(num_vertices_, 0.0);
  }
  shards_.resize(1);
  InitShard(shards_[0]);
}

void MessageStore::InitShard(Shard& shard) const {
  shard.buckets.resize(num_buckets_);
  shard.total = 0;
}

void MessageStore::SetOwners(const std::vector<uint32_t>* owner,
                             uint32_t num_partitions) {
  owner_ = owner;
  num_partitions_ = num_partitions;
  current_partition_counts_.assign(num_partitions_, 0);
}

uint64_t MessageStore::AddShards(uint64_t n) {
  uint64_t first = live_shards_;
  live_shards_ += n;
  if (shards_.size() < live_shards_) {
    uint64_t old_size = shards_.size();
    shards_.resize(live_shards_);
    for (uint64_t i = old_size; i < live_shards_; ++i) InitShard(shards_[i]);
  }
  return first;
}

std::vector<uint64_t> MessageStore::PendingPartitionCounts(uint64_t first,
                                                         uint64_t n) const {
  std::vector<uint64_t> per_shard(n * num_partitions_, 0);
  ParallelFor(0, n, /*grain=*/1, [&](uint64_t, uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) {
      uint64_t* counts = per_shard.data() + i * num_partitions_;
      for (const std::vector<Msg>& bucket : shards_[first + i].buckets) {
        for (const Msg& m : bucket) ++counts[(*owner_)[m.target]];
      }
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

uint64_t MessageStore::pending_total() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.total;
  return total;
}

void MessageStore::MergeBucket(uint64_t b) {
  if (combiner_ != algo::Combiner::kNone) {
    // Fold shards in index order — the global sequential delivery order.
    // (kMin/kMax are exact in any order; kSum folds in the same order as
    // the sequential engine, so results are bit-identical regardless.)
    for (const Shard& s : shards_) {
      for (const Msg& m : s.buckets[b]) {
        if (count_[m.target]++ == 0) {
          value_[m.target] = m.value;
          continue;
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
      }
    }
    return;
  }
  // No combiner: counting sort by target, stable in (shard, seq) order —
  // i.e. exactly the order a sequential engine would have appended.
  for (const Shard& s : shards_) {
    for (const Msg& m : s.buckets[b]) ++count_[m.target];
  }
  uint64_t run = 0;
  const uint64_t lo = BucketBegin(b);
  const uint64_t hi = BucketEnd(b);
  for (uint64_t v = lo; v < hi; ++v) {
    offset_[v] = run;
    run += count_[v];
    count_[v] = 0;  // reused as the placement cursor below
  }
  std::vector<double>& values = bucket_values_[b];
  values.resize(run);
  for (const Shard& s : shards_) {
    for (const Msg& m : s.buckets[b]) {
      values[offset_[m.target] + count_[m.target]++] = m.value;
    }
  }
}

void MessageStore::Swap() {
  // Drop the previous superstep's current state, touching only buckets
  // that actually held messages.
  for (uint64_t b : touched_) {
    const uint64_t hi = BucketEnd(b);
    for (uint64_t v = BucketBegin(b); v < hi; ++v) count_[v] = 0;
    if (combiner_ == algo::Combiner::kNone) {
      ReleaseOrClear(bucket_values_[b], kRetainBytes);
    }
  }
  touched_.clear();
  for (uint64_t b = 0; b < num_buckets_; ++b) {
    for (const Shard& s : shards_) {
      if (!s.buckets[b].empty()) {
        touched_.push_back(b);
        break;
      }
    }
  }
  // Buckets cover disjoint vertex ranges, so merging parallelizes cleanly;
  // within a bucket the shard fold order is fixed, so the result does not
  // depend on the host-thread count.
  ParallelFor(0, touched_.size(), /*grain=*/1,
              [&](uint64_t, uint64_t lo, uint64_t hi) {
                for (uint64_t i = lo; i < hi; ++i) MergeBucket(touched_[i]);
              });

  current_total_ = 0;
  std::fill(current_partition_counts_.begin(),
            current_partition_counts_.end(), 0);
  if (owner_ != nullptr) {
    // Per receiving vertex, not per message.
    for (uint64_t b : touched_) {
      const uint64_t hi = BucketEnd(b);
      for (uint64_t v = BucketBegin(b); v < hi; ++v) {
        current_partition_counts_[(*owner_)[v]] += count_[v];
      }
    }
  }
  for (Shard& s : shards_) {
    current_total_ += s.total;
    s.total = 0;
    for (std::vector<Msg>& bucket : s.buckets) {
      ReleaseOrClear(bucket, kRetainBytes);
    }
  }
  live_shards_ = 1;
}

uint64_t MessageStore::ResidentBytes() const {
  uint64_t bytes = 0;
  for (const Shard& s : shards_) {
    for (const std::vector<Msg>& bucket : s.buckets) {
      bytes += bucket.capacity() * sizeof(Msg);
    }
  }
  for (const std::vector<double>& bucket : bucket_values_) {
    bytes += bucket.capacity() * sizeof(double);
  }
  return bytes;
}

}  // namespace granula::platform
