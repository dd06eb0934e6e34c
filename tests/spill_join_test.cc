// Out-of-core (grace) hash join: when the build side exceeds
// `memory_budget_bytes`, every backend partitions both sides to disk and
// joins partition-by-partition — and the output must stay byte-identical
// to the unbounded in-memory hash join, order included (the row
// reference probes in input order with matches in build insertion
// order). The TPC-H cells pin the ISSUE acceptance bar: a join completes
// correctly with a budget below 10% of its build side, with
// spill_partitions > 0 actually asserted.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/spill_join.h"
#include "exec/table_store.h"
#include "exec/vector/column_batch.h"
#include "expr/expr.h"
#include "net/cluster_client.h"
#include "net/network_model.h"
#include "net/server.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

using exec_internal::JoinSpec;
using exec_internal::SpillHashJoin;

// Joins every partition pair and returns the output rows in order.
Result<std::vector<Row>> FinishRows(SpillHashJoin* join) {
  std::vector<Row> rows;
  CGQ_RETURN_NOT_OK(join->Finish([&](vec::ColumnBatch batch) {
    for (Row& row : vec::ToRowBatch(batch).rows) rows.push_back(std::move(row));
    return Status::OK();
  }));
  return rows;
}

class SpillJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.scale_factor = 0.002;
    catalog_ = std::make_unique<Catalog>(*tpch::BuildCatalog(config_));
    policies_ = std::make_unique<PolicyCatalog>(catalog_.get());
    ASSERT_TRUE(tpch::InstallUnrestrictedPolicies(policies_.get()).ok());
    net_ = std::make_unique<NetworkModel>(NetworkModel::DefaultGeo(5));
    store_ = std::make_unique<TableStore>();
    ASSERT_TRUE(tpch::GenerateData(*catalog_, config_, store_.get()).ok());
  }

  Result<OptimizedQuery> Optimize(int qnum) {
    QueryOptimizer optimizer(catalog_.get(), policies_.get(), net_.get(),
                             OptimizerOptions());
    CGQ_ASSIGN_OR_RETURN(std::string sql, tpch::Query(qnum));
    return optimizer.Optimize(sql);
  }

  Result<QueryResult> Run(const OptimizedQuery& q, ExecMode mode,
                          uint64_t budget,
                          net::ClusterClient* cluster = nullptr) {
    ExecutorOptions opts;
    opts.mode = mode;
    opts.memory_budget_bytes = budget;
    opts.cluster = cluster;
    Executor executor(store_.get(), net_.get(), opts);
    return executor.Execute(q);
  }

  // Full-precision order-sensitive serialization: spilled joins must
  // reproduce the in-memory output exactly, not merely as a set.
  static std::vector<std::string> ExactRows(const QueryResult& r) {
    std::vector<std::string> rows;
    rows.reserve(r.rows.size());
    for (const Row& row : r.rows) {
      std::string s;
      for (const Value& v : row) {
        if (v.is_null()) {
          s += "NULL|";
        } else if (v.is_double()) {
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%.17g|", v.dbl());
          s += buf;
        } else {
          s += v.ToString() + "|";
        }
      }
      rows.push_back(std::move(s));
    }
    return rows;
  }

  tpch::TpchConfig config_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<PolicyCatalog> policies_;
  std::unique_ptr<NetworkModel> net_;
  std::unique_ptr<TableStore> store_;
};

TEST_F(SpillJoinTest, PickPartitionsScalesWithPressure) {
  // No pressure -> minimum fan-out; extreme pressure -> capped.
  EXPECT_EQ(SpillHashJoin::PickPartitions(1000, 1u << 30), 2);
  EXPECT_EQ(SpillHashJoin::PickPartitions(1u << 30, 1), 64);
  int mild = SpillHashJoin::PickPartitions(1 << 20, 1 << 18);
  EXPECT_GE(mild, 2);
  EXPECT_LE(mild, 64);
  int harsher = SpillHashJoin::PickPartitions(1 << 20, 1 << 14);
  EXPECT_GE(harsher, mild);
}

// The acceptance cell: TPC-H join queries under a budget far below 10%
// of any build side (1 KB vs multi-hundred-KB builds at sf 0.002) spill
// and still reproduce the unbounded run byte for byte, on every
// in-process backend.
TEST_F(SpillJoinTest, TpchJoinsSpillAndMatchUnbounded) {
  const struct {
    ExecMode mode;
    const char* name;
  } backends[] = {{ExecMode::kRow, "row"},
                  {ExecMode::kFragment, "fragment"}};
  const uint64_t kTinyBudget = 1024;

  for (int qnum : {3, 5, 10, 12, 14}) {
    SCOPED_TRACE("Q" + std::to_string(qnum));
    auto q = Optimize(qnum);
    ASSERT_TRUE(q.ok()) << q.status();

    auto unbounded = Run(*q, ExecMode::kRow, 0);
    ASSERT_TRUE(unbounded.ok()) << unbounded.status();
    EXPECT_EQ(unbounded->metrics.spill_partitions, 0);
    ASSERT_FALSE(unbounded->rows.empty());

    for (const auto& backend : backends) {
      SCOPED_TRACE(backend.name);
      auto spilled = Run(*q, backend.mode, kTinyBudget);
      ASSERT_TRUE(spilled.ok()) << spilled.status();
      EXPECT_GT(spilled->metrics.spill_partitions, 0)
          << "a 1KB budget must force the grace path";
      EXPECT_GT(spilled->metrics.spill_bytes, 0);
      EXPECT_EQ(ExactRows(*spilled), ExactRows(*unbounded));
    }
  }
}

// The same cells over the wire: location servers receive the budget
// with each fragment, spill under it, and return their spill accounting
// in the fragment's end frame. Servers start on loopback the way
// storage_equivalence_test starts them.
TEST_F(SpillJoinTest, DistributedJoinsSpillAndMatchUnbounded) {
  const std::vector<std::vector<LocationId>> hosting = {{0, 1}, {2, 3}, {4}};
  std::vector<std::unique_ptr<net::SiteServer>> servers;
  std::map<LocationId, net::Endpoint> endpoints;
  for (const std::vector<LocationId>& locations : hosting) {
    net::SiteServer::Options o;
    o.locations = locations;
    servers.push_back(std::make_unique<net::SiteServer>(o));
    ASSERT_TRUE(servers.back()->Start().ok());
    for (LocationId loc : locations) {
      endpoints[loc] = {"127.0.0.1", servers.back()->port()};
    }
  }
  net::ClusterClient cluster;
  ASSERT_TRUE(cluster.Connect(endpoints).ok());
  ASSERT_TRUE(cluster.Deploy(*store_).ok());
  const uint64_t kTinyBudget = 1024;

  for (int qnum : {3, 5, 10, 12, 14}) {
    SCOPED_TRACE("Q" + std::to_string(qnum));
    auto q = Optimize(qnum);
    ASSERT_TRUE(q.ok()) << q.status();

    auto unbounded = Run(*q, ExecMode::kDistributed, 0, &cluster);
    ASSERT_TRUE(unbounded.ok()) << unbounded.status();
    EXPECT_EQ(unbounded->metrics.spill_partitions, 0);
    ASSERT_FALSE(unbounded->rows.empty());

    auto spilled = Run(*q, ExecMode::kDistributed, kTinyBudget, &cluster);
    ASSERT_TRUE(spilled.ok()) << spilled.status();
    EXPECT_GT(spilled->metrics.spill_partitions, 0)
        << "a 1KB budget must force the grace path on the servers";
    EXPECT_GT(spilled->metrics.spill_bytes, 0);
    EXPECT_EQ(ExactRows(*spilled), ExactRows(*unbounded));
    EXPECT_EQ(spilled->metrics.ships, unbounded->metrics.ships);
    EXPECT_EQ(spilled->metrics.rows_shipped,
              unbounded->metrics.rows_shipped);
    EXPECT_EQ(spilled->metrics.bytes_shipped,
              unbounded->metrics.bytes_shipped);
    EXPECT_EQ(spilled->metrics.network_ms, unbounded->metrics.network_ms);
  }
  for (auto& server : servers) server->Stop();
}

// A budget larger than every build side must never spill: the budget is
// a threshold, not a behavior change for small joins.
TEST_F(SpillJoinTest, GenerousBudgetNeverSpills) {
  auto q = Optimize(3);
  ASSERT_TRUE(q.ok()) << q.status();
  auto r = Run(*q, ExecMode::kRow, 1ull << 40);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->metrics.spill_partitions, 0);
  EXPECT_EQ(r->metrics.spill_bytes, 0);
}

// Direct exercise of the spill machinery on adversarial shapes the TPC-H
// workload underrepresents: heavy duplicate keys (cross-product bursts)
// and NULL join keys (dropped on both sides, matching the in-memory
// hash-join contract).
TEST_F(SpillJoinTest, DuplicateAndNullKeysMatchReference) {
  JoinSpec spec;
  spec.key_positions = {{0, 0}};
  spec.combined = RowLayout({0, 1, 2, 3});
  spec.out_positions = {0, 1, 2, 3};  // identity over build ++ probe

  std::vector<Row> build, probe;
  for (int64_t i = 0; i < 200; ++i) {
    // Keys cycle 0..9 -> 20 duplicates per key on each side.
    const std::string n = std::to_string(i);
    build.push_back({Value::Int64(i % 10), Value::String("b" + n)});
    probe.push_back({Value::Int64(i % 10), Value::String("p" + n)});
  }
  // NULL keys never match and never crash the partitioner.
  build.push_back({Value::Null(), Value::String("bnull")});
  probe.push_back({Value::Null(), Value::String("pnull")});

  // Reference: the in-memory hash join via a row executor is overkill to
  // set up here, so compute the expected output directly from the
  // documented contract — probe order outer, build insertion order inner.
  std::vector<Row> expected;
  for (const Row& p : probe) {
    if (p[0].is_null()) continue;
    for (const Row& b : build) {
      if (b[0].is_null()) continue;
      if (b[0].int64() == p[0].int64()) {
        Row joined = b;
        joined.insert(joined.end(), p.begin(), p.end());
        expected.push_back(joined);
      }
    }
  }

  const vec::ColumnBatch build_batch =
      vec::FromRows(RowLayout({0, 1}), build).ValueOrDie();
  const vec::ColumnBatch probe_batch =
      vec::FromRows(RowLayout({2, 3}), probe).ValueOrDie();
  for (int partitions : {2, 7, 64}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    SpillHashJoin join(&spec, SpillHashJoin::MakeSpillDir(""), partitions,
                       nullptr);
    ASSERT_TRUE(join.Init().ok());
    ASSERT_TRUE(join.AddBuild(build_batch).ok());
    ASSERT_TRUE(join.AddProbe(probe_batch).ok());
    auto got = FinishRows(&join);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(RowsStructurallyEqual((*got)[i], expected[i]))
          << "row " << i;
    }
    EXPECT_GT(join.spill_bytes(), 0);
  }
}

// String keys go through KeyIndex like every other key. A residual
// conjunct (build value < probe value) drops some key matches, NULL
// among them, and the output order is a permutation of build ++ probe.
TEST_F(SpillJoinTest, StringKeysAndResidualMatchReference) {
  JoinSpec spec;
  spec.key_positions = {{0, 0}};
  spec.combined = RowLayout({0, 1, 2, 3});
  spec.residual = {Expr::Binary(
      ExprOp::kLt, Expr::BoundColumn(1, "b", "v", "build", DataType::kInt64),
      Expr::BoundColumn(3, "p", "v", "probe", DataType::kInt64))};
  spec.out_positions = {2, 1, 3};  // probe key, build value, probe value

  std::vector<Row> build, probe;
  for (int64_t i = 0; i < 150; ++i) {
    // Keys k0..k6; every 10th build value is NULL (fails the residual).
    const std::string key = std::to_string(i % 7);
    build.push_back({Value::String("k" + key),
                     i % 10 == 3 ? Value::Null() : Value::Int64(i % 13)});
  }
  for (int64_t i = 0; i < 120; ++i) {
    // Keys k0..k8: k7 and k8 match no build row.
    const std::string key = std::to_string(i % 9);
    probe.push_back({Value::String("k" + key), Value::Int64(i % 11)});
  }
  build.push_back({Value::Null(), Value::Int64(0)});
  probe.push_back({Value::Null(), Value::Int64(12)});

  // The documented contract: probe order outer, build insertion order
  // inner, NULL keys never match, the residual keeps only bv < pv.
  std::vector<Row> expected;
  size_t key_matches = 0;
  for (const Row& p : probe) {
    if (p[0].is_null()) continue;
    for (const Row& b : build) {
      if (b[0].is_null() || b[0].str() != p[0].str()) continue;
      ++key_matches;
      if (b[1].is_null() || b[1].int64() >= p[1].int64()) continue;
      expected.push_back({p[0], b[1], p[1]});
    }
  }
  ASSERT_GT(expected.size(), 0u);
  ASSERT_LT(expected.size(), key_matches) << "the residual must drop some";

  const vec::ColumnBatch build_batch =
      vec::FromRows(RowLayout({0, 1}), build).ValueOrDie();
  const vec::ColumnBatch probe_batch =
      vec::FromRows(RowLayout({2, 3}), probe).ValueOrDie();
  ASSERT_EQ(build_batch.columns[0]->tag, vec::ColumnTag::kString);
  for (int partitions : {2, 7, 64}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    SpillHashJoin join(&spec, SpillHashJoin::MakeSpillDir(""), partitions,
                       nullptr);
    ASSERT_TRUE(join.Init().ok());
    // Two probe batches: ordinals continue across AddProbe calls.
    ASSERT_TRUE(join.AddBuild(build_batch).ok());
    ASSERT_TRUE(join.AddProbe(probe_batch.Slice(0, 50)).ok());
    ASSERT_TRUE(
        join.AddProbe(probe_batch.Slice(50, probe_batch.NumRows())).ok());
    auto got = FinishRows(&join);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(RowsStructurallyEqual((*got)[i], expected[i]))
          << "row " << i;
    }
  }
}

TEST_F(SpillJoinTest, EmptySidesProduceEmptyOutput) {
  JoinSpec spec;
  spec.key_positions = {{0, 0}};
  spec.combined = RowLayout({0, 1});
  spec.out_positions = {0, 1};
  SpillHashJoin join(&spec, SpillHashJoin::MakeSpillDir(""), 4, nullptr);
  ASSERT_TRUE(join.Init().ok());
  const vec::ColumnBatch probe =
      vec::FromRows(RowLayout({1}), {{Value::Int64(1)}}).ValueOrDie();
  ASSERT_TRUE(join.AddProbe(probe).ok());
  auto got = FinishRows(&join);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->empty());
}

// Spill files are checksummed frames: a byte flipped inside a build
// partition's spilled values, or a partition file cut mid-frame, fails
// Finish with kDataLoss before a single row is emitted — never rows that
// differ from the unbounded join.
TEST_F(SpillJoinTest, CorruptSpillFrameIsDataLoss) {
  JoinSpec spec;
  spec.key_positions = {{0, 0}};
  spec.combined = RowLayout({0, 1, 2});
  spec.out_positions = {0, 1, 2};  // build key, build value, probe key

  // Enough build rows that stdio has written most of each partition's
  // frame to the file before Finish flushes it.
  std::vector<Row> build, probe;
  for (int64_t i = 0; i < 4000; ++i) {
    build.push_back({Value::Int64(i % 10),
                     Value::String("build-value-" + std::to_string(i))});
  }
  for (int64_t k = 0; k < 10; ++k) probe.push_back({Value::Int64(k)});
  const vec::ColumnBatch build_batch =
      vec::FromRows(RowLayout({0, 1}), build).ValueOrDie();
  const vec::ColumnBatch probe_batch =
      vec::FromRows(RowLayout({2}), probe).ValueOrDie();

  enum class Damage { kFlipValueByte, kTruncateMidFrame };
  for (Damage damage : {Damage::kFlipValueByte, Damage::kTruncateMidFrame}) {
    SCOPED_TRACE(damage == Damage::kFlipValueByte ? "flip" : "truncate");
    const std::string dir = SpillHashJoin::MakeSpillDir("");
    SpillHashJoin join(&spec, dir, 2, nullptr);
    ASSERT_TRUE(join.Init().ok());
    ASSERT_TRUE(join.AddBuild(build_batch).ok());

    const std::string path = dir + "/build-0.spl";
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    if (damage == Damage::kFlipValueByte) {
      const size_t at = bytes.find("build-value-");
      ASSERT_NE(at, std::string::npos) << "no spilled value on disk yet";
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(at));
      f.put('B');  // "build-value-" -> "Build-value-"
    } else {
      // Cut mid-frame. Bytes stdio still holds land at their old offset
      // when Finish flushes, past a gap; either way the frame is broken.
      ASSERT_GT(bytes.size(), 40u);
      std::filesystem::resize_file(path, bytes.size() / 2);
    }

    ASSERT_TRUE(join.AddProbe(probe_batch).ok());
    size_t emitted = 0;
    Status s = join.Finish([&](vec::ColumnBatch batch) {
      emitted += batch.NumRows();
      return Status::OK();
    });
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(s.IsDataLoss()) << s;
    EXPECT_EQ(emitted, 0u);
  }
}

}  // namespace
}  // namespace cgq
