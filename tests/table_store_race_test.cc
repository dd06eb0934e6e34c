// Regression for the TableStore copy/move data race: the copy and move
// constructors used to read `other.fragments_` without taking other's
// mutex, so copying a store while a loader thread ran Put/Append was a
// torn read (caught by TSan). The fix locks both sides; these tests
// hammer exactly that interleaving and must stay clean under
// -fsanitize=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/table_store.h"
#include "types/value.h"

namespace cgq {
namespace {

Row MakeRow(int64_t i) {
  const std::string n = std::to_string(i);
  return {Value::Int64(i), Value::String("v" + n)};
}

// Mutator iterations between resets of the fragments it appends to.
constexpr int64_t kResetEvery = 4096;

std::vector<Row> MakeRows(int64_t n, int64_t base) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back(MakeRow(base + i));
  return rows;
}

// A copied store is internally consistent: every fragment it reports is
// readable and every row is well-formed (width 2, non-null). Under a
// torn copy this dereferences freed vector storage.
void CheckCopyConsistent(const TableStore& copy) {
  for (const auto& frag : copy.ListFragments()) {
    auto rows = copy.Get(frag.location, frag.table);
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_EQ((*rows)->size(), frag.row_count);
    for (const Row& row : **rows) {
      ASSERT_EQ(row.size(), 2u);
      ASSERT_FALSE(row[0].is_null());
    }
  }
}

TEST(TableStoreRaceTest, CopyWhileConcurrentPutAppend) {
  TableStore store;
  ASSERT_TRUE(store.Put(0, "events", MakeRows(64, 0)).ok());
  ASSERT_TRUE(store.Put(1, "users", MakeRows(64, 1000)).ok());

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)store.Put(0, "events", MakeRows(32 + (i % 64), i));
      (void)store.Append(1, "users", MakeRow(i));
      (void)store.AppendRows(0, "extra", MakeRows(8, i));
      if (++i % kResetEvery == 0) {
        // Bound the appended fragments: a mutator that outruns the
        // copier would otherwise grow them (and each copy) without limit.
        (void)store.Put(1, "users", MakeRows(64, 1000));
        (void)store.Put(0, "extra", {});
      }
    }
  });

  for (int iter = 0; iter < 200; ++iter) {
    TableStore copy(store);  // copy ctor under concurrent mutation
    CheckCopyConsistent(copy);
  }
  stop.store(true);
  mutator.join();
}

TEST(TableStoreRaceTest, CopyAssignWhileConcurrentPutAppend) {
  TableStore store;
  ASSERT_TRUE(store.Put(0, "events", MakeRows(64, 0)).ok());

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)store.Put(0, "events", MakeRows(32 + (i % 64), i));
      (void)store.Append(0, "tail", MakeRow(i));
      if (++i % kResetEvery == 0) (void)store.Put(0, "tail", {});
    }
  });

  TableStore target;
  for (int iter = 0; iter < 200; ++iter) {
    target = store;  // copy assignment under concurrent mutation
    CheckCopyConsistent(target);
  }
  stop.store(true);
  mutator.join();
}

TEST(TableStoreRaceTest, MoveFromQuiescedStoreIsComplete) {
  // Moves require the source to be externally quiesced (no concurrent
  // mutators), but must still take the source lock so a *finished*
  // mutator's writes are visible. Mutate on one thread, join, then move.
  TableStore store;
  std::thread loader([&] {
    for (int64_t i = 0; i < 100; ++i) {
      (void)store.Append(0, "t", MakeRow(i));
    }
  });
  loader.join();
  TableStore moved(std::move(store));
  auto n = moved.FragmentRows(0, "t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 100u);
}

TEST(TableStoreRaceTest, ConcurrentReadersAndCopies) {
  TableStore store;
  ASSERT_TRUE(store.Put(0, "t", MakeRows(256, 0)).ok());

  const vec::ColumnMask keep = {false, true};
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)store.Put(0, "t", MakeRows(128 + (i % 128), i));
      ++i;
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto cursor = store.Scan(0, "t");
      if (!cursor.ok()) continue;
      std::vector<Row> chunk;
      while (true) {
        auto more = cursor->Next(&chunk);
        if (!more.ok() || !*more) break;
      }
      // A masked columnar drain shares the cached column runs the
      // mutator's Puts keep dropping.
      auto masked = store.Scan(0, "t", &keep);
      if (!masked.ok()) continue;
      vec::ColumnBatch batch;
      while (true) {
        auto more = masked->Next(&batch);
        ASSERT_TRUE(more.ok()) << more.status();
        if (!*more) break;
        ASSERT_EQ(batch.NumColumns(), 1u);
        for (uint32_t i : batch.sel) {
          ASSERT_FALSE(batch.columns[0]->GetValue(i).is_null());
        }
      }
      (void)store.FragmentRows(0, "t");
      (void)store.TotalRows();
    }
  });

  for (int iter = 0; iter < 100; ++iter) {
    TableStore copy(store);
    CheckCopyConsistent(copy);
  }
  stop.store(true);
  mutator.join();
  reader.join();
}

}  // namespace
}  // namespace cgq
