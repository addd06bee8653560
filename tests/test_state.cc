#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "state/keyed_state.h"

namespace drrs::state {
namespace {

TEST(StateCell, RecomputeBytes) {
  StateCell cell;
  cell.RecomputeBytes();
  EXPECT_EQ(cell.nominal_bytes, 64u);
  cell.windows.emplace_back(100, 1);
  cell.windows.emplace_back(200, 2);
  cell.RecomputeBytes(1000);
  EXPECT_EQ(cell.nominal_bytes, 1000u + 32u);
}

class BackendTest : public ::testing::Test {
 protected:
  BackendTest() : backend_(8) {
    for (uint32_t kg = 0; kg < 4; ++kg) backend_.AcquireKeyGroup(kg);
  }
  KeyedStateBackend backend_;
};

TEST_F(BackendTest, OwnershipFlags) {
  EXPECT_TRUE(backend_.OwnsKeyGroup(0));
  EXPECT_FALSE(backend_.OwnsKeyGroup(5));
  backend_.ReleaseKeyGroup(0);
  EXPECT_FALSE(backend_.OwnsKeyGroup(0));
  EXPECT_EQ(backend_.owned_key_groups().size(), 3u);
}

TEST_F(BackendTest, GetOrCreatePersists) {
  StateCell* cell = backend_.GetOrCreate(1, 42);
  cell->counter = 7;
  EXPECT_EQ(backend_.Get(1, 42)->counter, 7);
  EXPECT_EQ(backend_.Get(1, 43), nullptr);
  EXPECT_EQ(backend_.KeyCount(1), 1u);
}

TEST_F(BackendTest, ExtractMovesStateAndOwnership) {
  backend_.GetOrCreate(2, 10)->counter = 1;
  backend_.GetOrCreate(2, 11)->counter = 2;
  KeyGroupState moved = backend_.ExtractKeyGroup(2);
  EXPECT_EQ(moved.key_group, 2u);
  EXPECT_EQ(moved.cells.size(), 2u);
  EXPECT_FALSE(backend_.OwnsKeyGroup(2));
  EXPECT_EQ(backend_.KeyCount(2), 0u);

  KeyedStateBackend other(8);
  other.InstallKeyGroup(std::move(moved));
  EXPECT_TRUE(other.OwnsKeyGroup(2));
  EXPECT_EQ(other.Get(2, 10)->counter, 1);
  EXPECT_EQ(other.Get(2, 11)->counter, 2);
}

TEST_F(BackendTest, ExtractSubKeyGroupPartitions) {
  for (uint64_t k = 0; k < 100; ++k) backend_.GetOrCreate(3, k)->counter = 1;
  KeyGroupState s0 = backend_.ExtractSubKeyGroup(3, 0, 4);
  KeyGroupState s1 = backend_.ExtractSubKeyGroup(3, 1, 4);
  KeyGroupState s2 = backend_.ExtractSubKeyGroup(3, 2, 4);
  KeyGroupState s3 = backend_.ExtractSubKeyGroup(3, 3, 4);
  EXPECT_EQ(s0.cells.size() + s1.cells.size() + s2.cells.size() +
                s3.cells.size(),
            100u);
  EXPECT_EQ(backend_.KeyCount(3), 0u);
  // Partitions are disjoint.
  std::set<dataflow::KeyT> seen;
  for (const auto* s : {&s0, &s1, &s2, &s3}) {
    s->cells.ForEach([&](dataflow::KeyT key, const StateCell&) {
      EXPECT_TRUE(seen.insert(key).second);
    });
  }
}

TEST_F(BackendTest, SubKeyGroupExtractionIsStable) {
  // The same key always lands in the same sub-key-group.
  for (uint64_t k = 0; k < 50; ++k) backend_.GetOrCreate(1, k)->counter = 1;
  KeyGroupState first = backend_.ExtractSubKeyGroup(1, 2, 4);
  // Re-insert and extract again: same key set.
  std::set<dataflow::KeyT> keys1;
  first.cells.ForEach(
      [&](dataflow::KeyT key, const StateCell&) { keys1.insert(key); });
  backend_.InstallKeyGroup(first);  // copy: `first` stays readable
  KeyGroupState second = backend_.ExtractSubKeyGroup(1, 2, 4);
  std::set<dataflow::KeyT> keys2;
  second.cells.ForEach(
      [&](dataflow::KeyT key, const StateCell&) { keys2.insert(key); });
  EXPECT_EQ(keys1, keys2);
}

TEST_F(BackendTest, BytesAccounting) {
  backend_.GetOrCreate(0, 1)->nominal_bytes = 100;
  backend_.GetOrCreate(0, 2)->nominal_bytes = 200;
  backend_.GetOrCreate(1, 3)->nominal_bytes = 50;
  EXPECT_EQ(backend_.KeyGroupBytes(0), 300u);
  EXPECT_EQ(backend_.TotalBytes(), 350u);
  EXPECT_EQ(backend_.TotalKeys(), 3u);
}

TEST_F(BackendTest, TotalBytesOnlyCountsOwned) {
  backend_.GetOrCreate(0, 1)->nominal_bytes = 100;
  backend_.ReleaseKeyGroup(0);
  EXPECT_EQ(backend_.TotalBytes(), 0u);
}

TEST_F(BackendTest, SnapshotAndRestoreRoundTrip) {
  backend_.GetOrCreate(0, 1)->counter = 11;
  backend_.GetOrCreate(1, 2)->sum = 22;
  auto snapshot = backend_.Snapshot();
  // Mutate after snapshot: restore must undo this.
  backend_.GetOrCreate(0, 1)->counter = 999;
  backend_.GetOrCreate(2, 5)->counter = 5;
  backend_.Restore(std::move(snapshot));
  EXPECT_EQ(backend_.Get(0, 1)->counter, 11);
  EXPECT_EQ(backend_.Get(1, 2)->sum, 22);
  EXPECT_EQ(backend_.Get(2, 5), nullptr);
  EXPECT_TRUE(backend_.OwnsKeyGroup(0));
}

TEST_F(BackendTest, SnapshotIsDeepCopy) {
  backend_.GetOrCreate(0, 1)->counter = 1;
  auto snapshot = backend_.Snapshot();
  backend_.Get(0, 1)->counter = 2;
  bool found = false;
  for (auto& group : snapshot) {
    if (const StateCell* cell = group.cells.Find(1)) {
      EXPECT_EQ(cell->counter, 1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(BackendTest, InstallMergesSubGroups) {
  // Installing two sub-key-group chunks of the same group accumulates cells.
  KeyGroupState a;
  a.key_group = 6;
  a.cells.FindOrInsert(1).first->counter = 1;
  KeyGroupState b;
  b.key_group = 6;
  b.cells.FindOrInsert(2).first->counter = 2;
  backend_.InstallKeyGroup(std::move(a));
  backend_.InstallKeyGroup(std::move(b));
  EXPECT_EQ(backend_.KeyCount(6), 2u);
}

TEST_F(BackendTest, InstallIntoEmptyGroupKeepsSlotOrder) {
  // A whole key-group travels as its store: the receiver visits the keys in
  // the sender's slot order.
  const std::vector<dataflow::KeyT> keys = {9, 3, 27, 1, 14};
  for (dataflow::KeyT k : keys) backend_.GetOrCreate(2, k)->counter = 1;
  KeyedStateBackend other(8);
  other.InstallKeyGroup(backend_.ExtractKeyGroup(2));
  std::vector<dataflow::KeyT> visited;
  other.ForEachKey(2, [&](dataflow::KeyT k) { visited.push_back(k); });
  EXPECT_EQ(visited, keys);
}

TEST_F(BackendTest, MergeReplacesExistingCells) {
  backend_.GetOrCreate(1, 5)->counter = 1;
  backend_.GetOrCreate(1, 6)->counter = 1;
  KeyGroupState in;
  in.key_group = 1;
  in.cells.FindOrInsert(6).first->counter = 60;
  in.cells.FindOrInsert(7).first->counter = 70;
  backend_.MergeKeyGroup(std::move(in));
  EXPECT_EQ(backend_.KeyCount(1), 3u);
  EXPECT_EQ(backend_.Get(1, 5)->counter, 1);
  EXPECT_EQ(backend_.Get(1, 6)->counter, 60);
  EXPECT_EQ(backend_.Get(1, 7)->counter, 70);
}

TEST_F(BackendTest, MergeLeavesOwnershipAlone) {
  KeyGroupState in;
  in.key_group = 6;
  in.cells.FindOrInsert(1).first->counter = 1;
  backend_.MergeKeyGroup(std::move(in));
  EXPECT_FALSE(backend_.OwnsKeyGroup(6));
  EXPECT_EQ(backend_.Get(6, 1)->counter, 1);
}

TEST_F(BackendTest, OwnedKeyGroupsAscend) {
  KeyedStateBackend b(16);
  for (dataflow::KeyGroupId kg : {11u, 2u, 7u, 0u, 15u}) b.AcquireKeyGroup(kg);
  std::vector<dataflow::KeyGroupId> order(b.owned_key_groups().begin(),
                                          b.owned_key_groups().end());
  EXPECT_EQ(order, (std::vector<dataflow::KeyGroupId>{0, 2, 7, 11, 15}));
}

TEST(GroupStore, CopyIsDeep) {
  GroupStore a;
  for (dataflow::KeyT k = 0; k < 100; ++k) {
    a.FindOrInsert(k).first->windows.emplace_back(k, 1);
  }
  a.Erase(50);
  GroupStore b(a);
  a.Find(1)->windows.clear();
  EXPECT_EQ(b.size(), 99u);
  EXPECT_EQ(b.Find(50), nullptr);
  ASSERT_NE(b.Find(1), nullptr);
  EXPECT_EQ(b.Find(1)->windows.size(), 1u);
  // The copy keeps the slot layout, so it iterates in the same order.
  std::vector<dataflow::KeyT> ka, kb;
  a.ForEach([&](dataflow::KeyT k, const StateCell&) { ka.push_back(k); });
  b.ForEach([&](dataflow::KeyT k, const StateCell&) { kb.push_back(k); });
  EXPECT_EQ(ka, kb);
}

TEST(KeyGroupState, TotalBytes) {
  KeyGroupState s;
  s.cells.FindOrInsert(1).first->nominal_bytes = 10;
  s.cells.FindOrInsert(2).first->nominal_bytes = 20;
  EXPECT_EQ(s.TotalBytes(), 30u);
}

}  // namespace
}  // namespace drrs::state
