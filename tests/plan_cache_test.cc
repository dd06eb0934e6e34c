#include "service/plan_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "sql/param_normalizer.h"

namespace cgq {
namespace {

// Three sites; cust lives at n, ord at e — two tables at two locations so
// fine-grained invalidation has unrelated dependencies to leave alone.
class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Catalog catalog;
    for (const char* l : {"n", "e", "a"}) {
      ASSERT_TRUE(catalog.mutable_locations().AddLocation(l).ok());
    }
    TableDef cust;
    cust.name = "cust";
    cust.schema = Schema({{"id", DataType::kInt64},
                          {"name", DataType::kString}});
    cust.fragments = {TableFragment{0, 1.0}};
    cust.stats.row_count = 100;
    ASSERT_TRUE(catalog.AddTable(cust).ok());
    TableDef ord;
    ord.name = "ord";
    ord.schema = Schema({{"oid", DataType::kInt64},
                         {"cid", DataType::kInt64}});
    ord.fragments = {TableFragment{1, 1.0}};
    ord.stats.row_count = 100;
    ASSERT_TRUE(catalog.AddTable(ord).ok());
    engine_ = std::make_unique<Engine>(std::move(catalog),
                                       NetworkModel::DefaultGeo(3));
    ASSERT_TRUE(engine_->AddPolicy("n", "ship * from cust to *").ok());
    ASSERT_TRUE(engine_->AddPolicy("e", "ship * from ord to *").ok());
  }

  OptimizedQuery MustOptimize(const std::string& sql) {
    auto r = engine_->Optimize(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status();
    return std::move(*r);
  }

  PolicyCatalog& policies() { return engine_->policies(); }

  std::unique_ptr<Engine> engine_;
};

TEST_F(PlanCacheTest, KeyNormalizesWhitespaceAndCaseOutsideLiterals) {
  // The engine keys the cache by the ParameterizeSql skeleton, which is
  // already the canonical token stream: case and spacing outside literals
  // never reach the key.
  OptimizerOptions opts;
  auto key = [&](const std::string& sql, const OptimizerOptions& o) {
    return PlanCache::ComputeKey(ParameterizeSql(sql).skeleton, o);
  };
  auto a = key("SELECT name FROM cust", opts);
  auto b = key("  select   NAME \n FROM  cust ", opts);
  EXPECT_EQ(a, b);

  // Literals leave the skeleton: queries that differ only in a literal's
  // case share one key and differ in their params.
  const ParameterizedSql upper =
      ParameterizeSql("SELECT id FROM cust WHERE name = 'A B'");
  const ParameterizedSql lower =
      ParameterizeSql("SELECT id FROM cust WHERE name = 'a b'");
  EXPECT_EQ(PlanCache::ComputeKey(upper.skeleton, opts),
            PlanCache::ComputeKey(lower.skeleton, opts));
  ASSERT_EQ(upper.params.size(), 1u);
  ASSERT_EQ(lower.params.size(), 1u);
  EXPECT_FALSE(upper.params[0].StructurallyEquals(lower.params[0]));

  // Plan-shaping options split the key; throughput knobs do not.
  OptimizerOptions pinned = opts;
  pinned.required_result = LocationSet::Single(1);
  EXPECT_FALSE(a == key("SELECT name FROM cust", pinned));
  OptimizerOptions threaded = opts;
  threaded.threads = 8;
  threaded.implication_cache = false;
  EXPECT_EQ(a, key("SELECT name FROM cust", threaded));
}

TEST_F(PlanCacheTest, HitAfterInsertMissOtherwise) {
  PlanCache cache;
  OptimizerOptions opts = engine_->default_options();
  const std::string sql = "SELECT name FROM cust";
  PlanCache::Key key = PlanCache::ComputeKey(sql, opts);

  EXPECT_FALSE(cache.Lookup(key, {}, policies()).has_value());
  cache.Insert(key, MustOptimize(sql), {}, policies());
  auto hit = cache.Lookup(key, {}, policies());
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->compliant);
  ASSERT_NE(hit->plan, nullptr);

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST_F(PlanCacheTest, ServedPlansAreDeepCopies) {
  PlanCache cache;
  OptimizerOptions opts = engine_->default_options();
  const std::string sql = "SELECT name FROM cust";
  PlanCache::Key key = PlanCache::ComputeKey(sql, opts);
  cache.Insert(key, MustOptimize(sql), {}, policies());

  auto first = cache.Lookup(key, {}, policies());
  auto second = cache.Lookup(key, {}, policies());
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(first->plan.get(), second->plan.get());
  // Mutating one served copy must not leak into the next hit.
  first->plan->table = "tampered";
  auto third = cache.Lookup(key, {}, policies());
  ASSERT_TRUE(third.has_value());
  EXPECT_NE(third->plan->table, "tampered");
}

TEST_F(PlanCacheTest, UnrelatedPolicyChangeRevalidatesInsteadOfInvalidating) {
  PlanCache cache;
  OptimizerOptions opts = engine_->default_options();
  const std::string sql = "SELECT name FROM cust";
  PlanCache::Key key = PlanCache::ComputeKey(sql, opts);
  cache.Insert(key, MustOptimize(sql), {}, policies());

  const uint64_t epoch_before = policies().epoch();
  // ord's policies change; cust's dependency fingerprint does not.
  ASSERT_TRUE(engine_->AddPolicy("e", "ship oid from ord to a").ok());
  ASSERT_GT(policies().epoch(), epoch_before);

  auto hit = cache.Lookup(key, {}, policies());
  EXPECT_TRUE(hit.has_value());
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.invalidations, 0);

  // The refreshed entry is fresh again: a second lookup takes the cheap
  // epoch-equality path (same observable result).
  EXPECT_TRUE(cache.Lookup(key, {}, policies()).has_value());
}

TEST_F(PlanCacheTest, RelevantPolicyChangeInvalidates) {
  PlanCache cache;
  OptimizerOptions opts = engine_->default_options();
  const std::string sql = "SELECT name FROM cust";
  PlanCache::Key key = PlanCache::ComputeKey(sql, opts);
  cache.Insert(key, MustOptimize(sql), {}, policies());

  // Dropping cust's policy changes the (n, cust) fingerprint.
  int64_t cust_policy = policies().For(0)[0].id;
  ASSERT_TRUE(policies().RemovePolicy(cust_policy).ok());

  EXPECT_FALSE(cache.Lookup(key, {}, policies()).has_value());
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.invalidations, 1);
  EXPECT_EQ(stats.entries, 0u);
}

TEST_F(PlanCacheTest, RemovePolicyIsNotFoundForUnknownId) {
  EXPECT_TRUE(policies().RemovePolicy(123456).IsNotFound());
}

TEST_F(PlanCacheTest, ClearBumpsEpochAndInvalidates) {
  PlanCache cache;
  OptimizerOptions opts = engine_->default_options();
  const std::string sql = "SELECT name FROM cust";
  PlanCache::Key key = PlanCache::ComputeKey(sql, opts);
  cache.Insert(key, MustOptimize(sql), {}, policies());

  const uint64_t before = policies().epoch();
  policies().Clear();
  EXPECT_GT(policies().epoch(), before);
  // Every dependency fingerprint changed (no policies govern cust now).
  EXPECT_FALSE(cache.Lookup(key, {}, policies()).has_value());
}

TEST_F(PlanCacheTest, LruEvictsAtByteBudget) {
  // Size the budget from a real entry so the test is robust to plan-size
  // drift: room for about three entries, one shard so LRU order is global.
  OptimizerOptions opts = engine_->default_options();
  OptimizedQuery probe = MustOptimize("SELECT name FROM cust");
  const size_t entry_bytes =
      sizeof(void*) * 8 + PlanCache::EstimatePlanBytes(*probe.plan);

  PlanCacheOptions copts;
  copts.shards = 1;
  copts.max_bytes = entry_bytes * 4;
  PlanCache cache(copts);

  std::vector<PlanCache::Key> keys;
  for (int i = 0; i < 10; ++i) {
    std::string sql = "SELECT name FROM cust WHERE id > " + std::to_string(i);
    PlanCache::Key key = PlanCache::ComputeKey(sql, opts);
    keys.push_back(key);
    // Offered twice: once the shard is full, a first-seen key is refused
    // and only its second miss is admitted (and evicts).
    OptimizedQuery q = MustOptimize(sql);
    cache.Insert(key, q, {}, policies());
    cache.Insert(key, q, {}, policies());
  }

  PlanCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LT(stats.entries, 10u);
  EXPECT_LE(stats.bytes, copts.max_bytes);
  // The most recent insert survives; the oldest was evicted.
  EXPECT_TRUE(cache.Lookup(keys.back(), {}, policies()).has_value());
  EXPECT_FALSE(cache.Lookup(keys.front(), {}, policies()).has_value());
}

TEST_F(PlanCacheTest, ExplicitInvalidateErases) {
  PlanCache cache;
  OptimizerOptions opts = engine_->default_options();
  PlanCache::Key key = PlanCache::ComputeKey("SELECT name FROM cust", opts);
  cache.Insert(key, MustOptimize("SELECT name FROM cust"), {}, policies());
  cache.Invalidate(key);
  EXPECT_FALSE(cache.Lookup(key, {}, policies()).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1);
}

// Admission on second miss. These use one shard whose budget holds
// `room` entries of the size of SELECT name FROM cust's plan.
class PlanCacheAdmissionTest : public PlanCacheTest {
 protected:
  void SetUp() override {
    PlanCacheTest::SetUp();
    opts_ = engine_->default_options();
    plan_ = MustOptimize("SELECT name FROM cust");
    PlanCache probe;
    probe.Insert(KeyOf(0), plan_, {}, policies());
    entry_bytes_ = probe.stats().bytes;
    ASSERT_GT(entry_bytes_, 0u);
  }

  // Distinct skeletons sharing one plan: the cache only sees their keys.
  PlanCache::Key KeyOf(int i) const {
    return PlanCache::ComputeKey("SELECT name FROM cust -- " +
                                     std::to_string(i),
                                 opts_);
  }

  std::unique_ptr<PlanCache> MakeCache(size_t room) const {
    PlanCacheOptions copts;
    copts.shards = 1;
    copts.max_bytes = entry_bytes_ * room + entry_bytes_ / 2;
    return std::make_unique<PlanCache>(copts);
  }

  PlanCache::InsertResult Insert(PlanCache& cache, int i) {
    return cache.Insert(KeyOf(i), plan_, {}, policies());
  }

  bool Hits(PlanCache& cache, int i) {
    return cache.Lookup(KeyOf(i), {}, policies()).has_value();
  }

  OptimizerOptions opts_;
  OptimizedQuery plan_;
  size_t entry_bytes_ = 0;
};

TEST_F(PlanCacheAdmissionTest, ShardWithRoomAdmitsFirstSeenKey) {
  std::unique_ptr<PlanCache> cache = MakeCache(2);
  for (int i = 0; i < 2; ++i) {
    PlanCache::InsertResult r = Insert(*cache, i);
    EXPECT_TRUE(r.admitted) << i;
    EXPECT_EQ(r.evicted, 0) << i;
    EXPECT_TRUE(Hits(*cache, i)) << i;
  }
  EXPECT_EQ(cache->stats().refused, 0);
  EXPECT_EQ(cache->stats().doorkeeper_keys, 0u);
}

TEST_F(PlanCacheAdmissionTest, FullShardRefusesFirstSeenKey) {
  std::unique_ptr<PlanCache> cache = MakeCache(1);
  ASSERT_TRUE(Insert(*cache, 0).admitted);
  PlanCache::InsertResult r = Insert(*cache, 1);
  EXPECT_FALSE(r.admitted);
  EXPECT_EQ(r.evicted, 0);
  EXPECT_EQ(r.dependencies, 0u);  // refused before the dependency walk
  PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.refused, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.doorkeeper_keys, 1u);
  EXPECT_FALSE(Hits(*cache, 1));
  EXPECT_TRUE(Hits(*cache, 0));
}

TEST_F(PlanCacheAdmissionTest, SecondMissIsAdmittedAndEvictsLruTail) {
  std::unique_ptr<PlanCache> cache = MakeCache(2);
  ASSERT_TRUE(Insert(*cache, 0).admitted);
  ASSERT_TRUE(Insert(*cache, 1).admitted);
  ASSERT_TRUE(Hits(*cache, 0));  // key 1 is now the LRU tail
  ASSERT_FALSE(Insert(*cache, 2).admitted);
  PlanCache::InsertResult r = Insert(*cache, 2);
  EXPECT_TRUE(r.admitted);
  EXPECT_EQ(r.evicted, 1);
  EXPECT_EQ(r.dependencies, 1u);
  EXPECT_TRUE(Hits(*cache, 2));
  EXPECT_TRUE(Hits(*cache, 0));
  EXPECT_FALSE(Hits(*cache, 1));
  PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.refused, 1);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.doorkeeper_keys, 0u);  // admitted keys leave it
}

TEST_F(PlanCacheAdmissionTest, ResidentKeyIsAlwaysReplaced) {
  std::unique_ptr<PlanCache> cache = MakeCache(1);
  ASSERT_TRUE(Insert(*cache, 0).admitted);
  for (int round = 0; round < 3; ++round) {
    PlanCache::InsertResult r = Insert(*cache, 0);
    EXPECT_TRUE(r.admitted) << round;
    EXPECT_EQ(r.evicted, 0) << round;
  }
  PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.refused, 0);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_TRUE(Hits(*cache, 0));
}

TEST_F(PlanCacheAdmissionTest, DoorkeeperStaysBoundedAfterManyRefusals) {
  std::unique_ptr<PlanCache> cache = MakeCache(1);
  ASSERT_TRUE(Insert(*cache, 0).admitted);
  constexpr int kDistinct = 1000;
  size_t most = 0;
  for (int i = 1; i <= kDistinct; ++i) {
    ASSERT_FALSE(Insert(*cache, i).admitted) << i;
    most = std::max(most, cache->stats().doorkeeper_keys);
  }
  PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.refused, kDistinct);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.entries, 1u);
  // Reset at max(entries, floor of 64) keys: far below the 1000 offered.
  EXPECT_GT(most, 0u);
  EXPECT_LE(most, 64u);
  EXPECT_TRUE(Hits(*cache, 0));
}

// Threaded stress (meaningful under TSan): concurrent lookups, inserts,
// invalidations and clears on a shared cache, with policy mutations
// serialized against readers by a shared_mutex exactly as QueryService
// does it.
TEST_F(PlanCacheTest, ThreadedStress) {
  PlanCacheOptions copts;
  copts.shards = 4;
  copts.max_bytes = 1 << 16;  // small enough to force evictions
  PlanCache cache(copts);
  OptimizerOptions opts = engine_->default_options();

  std::vector<std::string> sqls;
  std::vector<OptimizedQuery> plans;
  std::vector<PlanCache::Key> keys;
  for (int i = 0; i < 8; ++i) {
    sqls.push_back("SELECT name FROM cust WHERE id > " + std::to_string(i));
    plans.push_back(MustOptimize(sqls.back()));
    keys.push_back(PlanCache::ComputeKey(sqls.back(), opts));
  }

  std::shared_mutex policy_mu;
  std::atomic<int64_t> hits{0};
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        size_t k = static_cast<size_t>((t + i) % 8);
        std::shared_lock<std::shared_mutex> lock(policy_mu);
        if (i % 7 == 3) {
          cache.Insert(keys[k], plans[k], {}, policies());
        } else if (i % 31 == 5) {
          cache.Invalidate(keys[k]);
        } else if (i % 97 == 11) {
          cache.Clear();
        } else {
          if (cache.Lookup(keys[k], {}, policies()).has_value()) {
            hits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // One writer toggling an unrelated policy so epochs move during the run.
  threads.emplace_back([&] {
    for (int i = 0; i < 40; ++i) {
      std::unique_lock<std::shared_mutex> lock(policy_mu);
      ASSERT_TRUE(
          engine_->AddPolicy("e", "ship oid from ord to a").ok());
      int64_t id = policies().For(1).back().id;
      ASSERT_TRUE(policies().RemovePolicy(id).ok());
    }
  });
  for (std::thread& th : threads) th.join();

  PlanCacheStats stats = cache.stats();
  EXPECT_GT(hits.load(), 0);
  EXPECT_EQ(stats.hits, hits.load());
  // Cached entries still serve valid deep copies afterwards. Cleared
  // first so the insert lands in an empty shard, which admits any key
  // whatever the stress left in the shard or its doorkeeper.
  cache.Clear();
  EXPECT_TRUE(cache.Insert(keys[0], plans[0], {}, policies()).admitted);
  auto hit = cache.Lookup(keys[0], {}, policies());
  ASSERT_TRUE(hit.has_value());
  EXPECT_NE(hit->plan, nullptr);
}

}  // namespace
}  // namespace cgq
