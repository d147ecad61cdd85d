#include "platforms/message_store.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace granula::platform {
namespace {

TEST(MessageStoreTest, NoCombinerKeepsAllMessages) {
  MessageStore store(4, algo::Combiner::kNone);
  store.Deliver(1, 3.0);
  store.Deliver(1, 5.0);
  store.Deliver(2, 7.0);
  EXPECT_FALSE(store.HasCurrent(1));  // still in the "next" buffer
  EXPECT_EQ(store.pending_total(), 3u);
  store.Swap();
  ASSERT_TRUE(store.HasCurrent(1));
  auto messages = store.CurrentMessages(1);
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_DOUBLE_EQ(messages[0], 3.0);
  EXPECT_DOUBLE_EQ(messages[1], 5.0);
  EXPECT_EQ(store.CurrentDeliveryCount(1), 2u);
  EXPECT_EQ(store.CurrentMessages(2).size(), 1u);
  EXPECT_TRUE(store.CurrentMessages(0).empty());
  EXPECT_FALSE(store.HasCurrent(3));
}

TEST(MessageStoreTest, MinCombinerCollapsesButCounts) {
  MessageStore store(2, algo::Combiner::kMin);
  store.Deliver(0, 9.0);
  store.Deliver(0, 4.0);
  store.Deliver(0, 6.0);
  store.Swap();
  auto messages = store.CurrentMessages(0);
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_DOUBLE_EQ(messages[0], 4.0);
  EXPECT_EQ(store.CurrentDeliveryCount(0), 3u);  // pre-combine count
}

TEST(MessageStoreTest, MaxAndSumCombiners) {
  MessageStore max_store(1, algo::Combiner::kMax);
  max_store.Deliver(0, 1.0);
  max_store.Deliver(0, 8.0);
  max_store.Swap();
  EXPECT_DOUBLE_EQ(max_store.CurrentMessages(0)[0], 8.0);

  MessageStore sum_store(1, algo::Combiner::kSum);
  sum_store.Deliver(0, 1.5);
  sum_store.Deliver(0, 2.5);
  sum_store.Swap();
  EXPECT_DOUBLE_EQ(sum_store.CurrentMessages(0)[0], 4.0);
}

TEST(MessageStoreTest, SwapClearsNextBuffer) {
  MessageStore store(2, algo::Combiner::kMin);
  store.Deliver(0, 1.0);
  store.Swap();
  EXPECT_TRUE(store.HasCurrent(0));
  EXPECT_EQ(store.pending_total(), 0u);
  store.Swap();  // nothing pending: current becomes empty
  EXPECT_FALSE(store.HasCurrent(0));
}

TEST(MessageStoreTest, DeliveriesDuringSuperstepGoToNext) {
  MessageStore store(2, algo::Combiner::kNone);
  store.Deliver(0, 1.0);
  store.Swap();
  // "Superstep": read current, deliver new.
  EXPECT_TRUE(store.HasCurrent(0));
  store.Deliver(0, 2.0);
  EXPECT_EQ(store.CurrentMessages(0).size(), 1u);  // unchanged this step
  store.Swap();
  ASSERT_EQ(store.CurrentMessages(0).size(), 1u);
  EXPECT_DOUBLE_EQ(store.CurrentMessages(0)[0], 2.0);
}

TEST(MessageStoreTest, PendingTotalTracksAllTargets) {
  MessageStore store(8, algo::Combiner::kSum);
  for (graph::VertexId v = 0; v < 8; ++v) store.Deliver(v, 1.0);
  EXPECT_EQ(store.pending_total(), 8u);
  store.Swap();
  EXPECT_EQ(store.pending_total(), 0u);
}

// Serializes the full current-superstep view of a store for byte-compare.
std::string Snapshot(const MessageStore& store, uint64_t num_vertices) {
  std::string out;
  for (graph::VertexId v = 0; v < num_vertices; ++v) {
    out += std::to_string(v) + ":" +
           std::to_string(store.CurrentDeliveryCount(v)) + "[";
    for (double m : store.CurrentMessages(v)) {
      out += std::to_string(m) + ",";
    }
    out += "]\n";
  }
  return out;
}

TEST(MessageStoreTest, ShardedMergeMatchesSequentialDelivery) {
  // The same deliveries, once through shard 0 in sequential order and once
  // split across shards (chunks of the iteration), must merge to the same
  // per-vertex message sequences — the determinism contract of Swap().
  constexpr uint64_t kVertices = 300;
  for (algo::Combiner combiner :
       {algo::Combiner::kNone, algo::Combiner::kMin, algo::Combiner::kSum}) {
    MessageStore sequential(kVertices, combiner);
    MessageStore sharded(kVertices, combiner);
    uint64_t first = sharded.AddShards(4);
    EXPECT_EQ(first, 1u);  // shard 0 pre-exists for sequential delivery

    // Sender s emits to (s * 7 + k) % kVertices for k = 0..2; the sharded
    // store splits senders into 4 contiguous chunks like ParallelFor does.
    for (uint64_t s = 0; s < 200; ++s) {
      for (uint64_t k = 0; k < 3; ++k) {
        sequential.Deliver((s * 7 + k) % kVertices, 1.0 + s + 0.5 * k);
      }
    }
    for (uint64_t s = 0; s < 200; ++s) {
      uint64_t shard = first + s / 50;  // chunk index in iteration order
      for (uint64_t k = 0; k < 3; ++k) {
        sharded.Deliver(shard, (s * 7 + k) % kVertices, 1.0 + s + 0.5 * k);
      }
    }
    EXPECT_EQ(sequential.pending_total(), sharded.pending_total());
    sequential.Swap();
    sharded.Swap();
    EXPECT_EQ(Snapshot(sequential, kVertices), Snapshot(sharded, kVertices));
    EXPECT_EQ(sequential.current_total(), sharded.current_total());
  }
}

TEST(MessageStoreTest, ShardSlotsRecycleAcrossSupersteps) {
  MessageStore store(16, algo::Combiner::kNone);
  EXPECT_EQ(store.AddShards(3), 1u);
  store.Deliver(2, 5, 1.0);
  store.Swap();
  // After Swap the region's shards are released; the next region gets the
  // same slots back.
  EXPECT_EQ(store.AddShards(2), 1u);
  store.Deliver(1, 5, 2.0);
  store.Swap();
  ASSERT_EQ(store.CurrentMessages(5).size(), 1u);
  EXPECT_DOUBLE_EQ(store.CurrentMessages(5)[0], 2.0);
}

TEST(MessageStoreTest, PartitionCountsTrackCurrentDeliveries) {
  // owner: vertices 0-3 -> partition 0, 4-7 -> partition 1.
  std::vector<uint32_t> owner = {0, 0, 0, 0, 1, 1, 1, 1};
  MessageStore store(8, algo::Combiner::kMin);
  store.SetOwners(&owner, 2);
  store.Deliver(1, 1.0);
  store.Deliver(1, 2.0);
  store.Deliver(6, 3.0);
  EXPECT_EQ(store.CurrentPartitionCount(0), 0u);  // still pending
  store.Swap();
  EXPECT_EQ(store.CurrentPartitionCount(0), 2u);
  EXPECT_EQ(store.CurrentPartitionCount(1), 1u);
  EXPECT_EQ(store.current_total(), 3u);
  store.Swap();
  EXPECT_EQ(store.CurrentPartitionCount(0), 0u);
  EXPECT_EQ(store.CurrentPartitionCount(1), 0u);
}

TEST(MessageStoreTest, PendingPartitionCountsCoverOnlyTheShardRange) {
  std::vector<uint32_t> owner = {0, 0, 0, 0, 1, 1, 1, 1};
  MessageStore store(8, algo::Combiner::kNone);
  store.SetOwners(&owner, 2);
  const uint64_t first = store.AddShards(2);
  const uint64_t other = store.AddShards(1);
  store.Deliver(first, 1, 1.0);
  store.Deliver(first + 1, 6, 2.0);
  store.Deliver(first + 1, 7, 3.0);
  store.Deliver(other, 2, 4.0);
  EXPECT_EQ(store.PendingPartitionCounts(first, 2),
            (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(store.PendingPartitionCounts(other, 1),
            (std::vector<uint64_t>{1, 0}));
  store.Swap();
  EXPECT_EQ(store.CurrentPartitionCount(0), 2u);
  EXPECT_EQ(store.CurrentPartitionCount(1), 2u);
}

TEST(MessageStoreTest, ResidentBytesBoundedAfterBurst) {
  // Satellite fix: a high-water superstep must not pin its capacity. After
  // one burst of ~200k messages, later small supersteps must run with
  // resident message storage back near the retention cap, not at the
  // burst's high-water mark.
  constexpr uint64_t kVertices = 4096;
  MessageStore store(kVertices, algo::Combiner::kNone);
  // Concentrate the burst on a small vertex range so the per-vector cap is
  // what bounds residency, not even spreading.
  for (uint64_t i = 0; i < 200'000; ++i) {
    store.Deliver(i % 64, static_cast<double>(i));
  }
  store.Swap();
  uint64_t high_water = store.ResidentBytes();
  EXPECT_GT(high_water, 1'000'000u);  // the burst really was big

  for (int step = 0; step < 3; ++step) {
    for (uint64_t i = 0; i < 100; ++i) store.Deliver(i, 1.0);
    store.Swap();
  }
  // Swap releases capacity above kRetainBytes (64 KiB) per vector; with a
  // couple of buckets in play the steady-state residency must be orders of
  // magnitude below the burst.
  EXPECT_LT(store.ResidentBytes(), high_water / 10);
  EXPECT_LT(store.ResidentBytes(), 512u * 1024u);
}

}  // namespace
}  // namespace granula::platform
