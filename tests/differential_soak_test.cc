// Differential soak of the columnar fragment runtime against the row
// interpreter. The inputs are ad-hoc queries from the src/workload
// generator plus the 12 TPC-H analytics queries, each optimized under
// policy sets T and CR. Every accepted plan must pass the independent
// Definition-1 checker, then run under a seeded sample of
//
//   storage {memory, disk} x batch_size {1, 7, 1024} x threads {1, 4}
//   x memory budget {0, 1 KiB}
//
// and reproduce the in-memory row interpreter exactly: result digest
// (row order, value types, NULLs), ships, rows and bytes shipped, and
// rows scanned. Batch boundaries are part of the contract as well: at
// one batch size, every run's per-edge batch counts and modeled network
// time equal those of the memory, single-thread, unbounded run.
//
// Joins without equi-keys (nested loops) over the small TPC-H tables
// run the whole grid, every cell at every batch size.
//
// The NULL-semantics cases at the end pin the kernels' three-valued
// logic on data the TPC-H generator never produces.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "core/compliance_checker.h"
#include "core/engine.h"
#include "exec/executor.h"
#include "net/network_model.h"
#include "tpch/tpch.h"
#include "workload/query_generator.h"

namespace cgq {
namespace {

namespace fs = std::filesystem;

// TPC-H generated once: the in-memory reference store and a disk-backed
// twin with small blocks, so disk scans stream many blocks per fragment.
struct SharedTpch {
  SharedTpch() {
    config.scale_factor = 0.002;
    catalog = std::make_unique<Catalog>(*tpch::BuildCatalog(config));
    net = std::make_unique<NetworkModel>(NetworkModel::DefaultGeo(5));
    memory = std::make_unique<TableStore>();
    CGQ_CHECK(tpch::GenerateData(*catalog, config, memory.get()).ok());

    dir = (fs::temp_directory_path() /
           ("cgq-differential-soak-" + std::to_string(::getpid())))
              .string();
    std::error_code ec;
    fs::remove_all(dir, ec);
    disk = std::make_unique<TableStore>(*memory);
    storage::StorageOptions options;
    options.block_target_bytes = 8 * 1024;
    CGQ_CHECK(disk->EnableDiskStorage(dir, options).ok());
  }
  ~SharedTpch() {
    disk.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  tpch::TpchConfig config;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<NetworkModel> net;
  std::unique_ptr<TableStore> memory;
  std::unique_ptr<TableStore> disk;
  std::string dir;
};

// FNV-1a over the result's column names and rows: order-sensitive,
// type-sensitive (int64 1 and double 1.0 print differently), NULL-tagged.
uint64_t Digest(const QueryResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const std::string& name : r.column_names) mix(name + ";");
  for (const Row& row : r.rows) {
    for (const Value& v : row) {
      if (v.is_null()) {
        mix("NULL|");
      } else if (v.is_double()) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g|", v.dbl());
        mix(buf);
      } else {
        mix(v.ToString() + "|");
      }
    }
    mix("\n");
  }
  return h;
}

// The soak's inputs: the cases of the former ad-hoc equivalence test
// (generator seed 20260809) and digest soak (one query per seed), then
// the TPC-H analytics queries.
std::vector<std::string> SoakQueries(const Catalog& catalog) {
  std::vector<std::string> out;
  WorkloadProperties props = TpchWorkloadProperties();
  QueryGeneratorConfig qconfig;
  qconfig.seed = 20260809;
  AdhocQueryGenerator qgen(&catalog, &props, qconfig);
  for (int i = 0; i < 12; ++i) out.push_back(qgen.Next());
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    qconfig.seed = seed * 7919 + 1;
    out.push_back(AdhocQueryGenerator(&catalog, &props, qconfig).Next());
  }
  std::vector<int> tpch_queries = tpch::QueryNumbers();
  for (int q : tpch::ExtendedQueryNumbers()) tpch_queries.push_back(q);
  for (int q : tpch_queries) out.push_back(*tpch::Query(q));
  return out;
}

// Theta and cross joins over nation, region and supplier; each plans as
// a nested loop. The second one's residual meets NULLs (x / 0 is NULL at
// regionkey 2); in the COUNT and in the last one, one side contributes
// no output column.
std::vector<std::string> NestedLoopQueries() {
  return {
      "SELECT n.name, r.name FROM nation n, region r "
      "WHERE n.regionkey < r.regionkey",
      "SELECT n.nationkey, r.regionkey FROM nation n, region r "
      "WHERE n.nationkey / (r.regionkey - 2) > 3",
      "SELECT COUNT(*) AS c FROM nation n, region r",
      "SELECT s.name, n.name FROM supplier s, nation n "
      "WHERE s.nationkey > n.nationkey + 20",
      "SELECT n.name FROM nation n, region r WHERE n.nationkey > 20",
  };
}

void CollectJoinMethods(const PlanNode& node, std::vector<JoinMethod>* out) {
  if (node.kind() == PlanKind::kJoin) out->push_back(node.join_method);
  for (const PlanNodePtr& child : node.children()) {
    CollectJoinMethods(*child, out);
  }
}

struct SoakConfig {
  bool disk = false;
  int threads = 1;
  uint64_t budget = 0;
};

TEST(DifferentialSoak, FragmentRuntimeMatchesRowOracle) {
  SharedTpch shared;
  const std::vector<std::string> queries = SoakQueries(*shared.catalog);
  ASSERT_EQ(queries.size(), 44u);

  const int kBatchSizes[] = {1, 7, 1024};
  // Every non-reference (storage, threads, budget) combination, in a
  // seeded order; plans take them round-robin, two at a time.
  std::vector<SoakConfig> configs;
  for (bool disk : {false, true}) {
    for (int threads : {1, 4}) {
      for (uint64_t budget : {uint64_t{0}, uint64_t{1024}}) {
        if (!disk && threads == 1 && budget == 0) continue;  // reference
        configs.push_back({disk, threads, budget});
      }
    }
  }
  Rng rng(0x50a4);
  for (size_t i = configs.size(); i > 1; --i) {
    std::swap(configs[i - 1], configs[rng.Next() % i]);
  }

  auto run = [&](const OptimizedQuery& q, const TableStore* store,
                 int batch_size, int threads, uint64_t budget, ExecMode mode)
      -> Result<QueryResult> {
    ExecutorOptions opts;
    opts.mode = mode;
    opts.batch_size = batch_size;
    opts.threads = threads;
    opts.memory_budget_bytes = budget;
    return Executor(store, shared.net.get(), opts).Execute(q);
  };

  int accepted = 0, runs = 0;
  size_t next_config = 0;
  int64_t spill_partitions = 0, blocks_read = 0;
  std::vector<bool> batch_covered(3, false);
  // One fragment run of `q` in `cell`, against the row oracle and the
  // memory, single-thread, unbounded fragment run at `batch_size`.
  auto check = [&](const OptimizedQuery& q, const QueryResult& oracle,
                   const QueryResult& reference, const SoakConfig& cell,
                   int batch_size) {
    SCOPED_TRACE(std::string(cell.disk ? "disk" : "memory") +
                 " batch=" + std::to_string(batch_size) +
                 " threads=" + std::to_string(cell.threads) +
                 " budget=" + std::to_string(cell.budget));
    auto got = run(q, cell.disk ? shared.disk.get() : shared.memory.get(),
                   batch_size, cell.threads, cell.budget,
                   ExecMode::kFragment);
    ASSERT_TRUE(got.ok()) << got.status();
    ++runs;
    const ExecMetrics& m = got->metrics;
    EXPECT_EQ(Digest(*got), Digest(oracle));
    EXPECT_EQ(m.ships, oracle.metrics.ships);
    EXPECT_EQ(m.rows_shipped, oracle.metrics.rows_shipped);
    EXPECT_EQ(m.bytes_shipped, oracle.metrics.bytes_shipped);
    EXPECT_EQ(m.rows_scanned, oracle.metrics.rows_scanned);
    EXPECT_EQ(m.network_ms, reference.metrics.network_ms);
    ASSERT_EQ(m.edges.size(), reference.metrics.edges.size());
    for (size_t e = 0; e < m.edges.size(); ++e) {
      EXPECT_EQ(m.edges[e].batches, reference.metrics.edges[e].batches)
          << "edge " << e;
      EXPECT_EQ(m.edges[e].network_ms, reference.metrics.edges[e].network_ms)
          << "edge " << e;
    }
    if (cell.budget > 0) spill_partitions += m.spill_partitions;
    if (cell.disk) {
      EXPECT_GT(m.storage_blocks_read, 0);
      blocks_read += m.storage_blocks_read;
    } else {
      EXPECT_EQ(m.storage_blocks_read, 0);
    }
  };
  int nested_loop_runs = 0;
  for (const char* policy_set : {"T", "CR"}) {
    PolicyCatalog policies(shared.catalog.get());
    ASSERT_TRUE(tpch::InstallPolicySet(policy_set, &policies).ok());
    PolicyEvaluator evaluator(shared.catalog.get(), &policies);
    QueryOptimizer optimizer(shared.catalog.get(), &policies,
                             shared.net.get(), OptimizerOptions());
    for (const std::string& sql : queries) {
      auto q = optimizer.Optimize(sql);
      if (!q.ok()) continue;  // rejected, or beyond the supported SQL
      SCOPED_TRACE(std::string(policy_set) + ": " + sql);
      ComplianceReport report = CheckCompliance(
          *q->plan, evaluator, shared.catalog->locations());
      EXPECT_TRUE(report.compliant)
          << (report.violations.empty() ? "" : report.violations.front());

      auto oracle = run(*q, shared.memory.get(), 1024, 1, 0, ExecMode::kRow);
      ASSERT_TRUE(oracle.ok()) << oracle.status();

      const size_t b = static_cast<size_t>(accepted) % 3;
      const int batch_size = kBatchSizes[b];
      batch_covered[b] = true;
      auto reference = run(*q, shared.memory.get(), batch_size, 1, 0,
                           ExecMode::kFragment);
      ASSERT_TRUE(reference.ok()) << reference.status();
      std::vector<SoakConfig> cells = {SoakConfig()};
      for (int k = 0; k < 2; ++k) {
        cells.push_back(configs[next_config++ % configs.size()]);
      }
      for (const SoakConfig& cell : cells) {
        check(*q, *oracle, *reference, cell, batch_size);
      }
      ++accepted;
    }
    // The nested-loop inputs must be accepted, plan every join as a
    // nested loop, and match the oracle in every cell of the grid.
    for (const std::string& sql : NestedLoopQueries()) {
      SCOPED_TRACE(std::string(policy_set) + ": " + sql);
      auto q = optimizer.Optimize(sql);
      ASSERT_TRUE(q.ok()) << q.status();
      std::vector<JoinMethod> methods;
      CollectJoinMethods(*q->plan, &methods);
      ASSERT_FALSE(methods.empty());
      for (JoinMethod m : methods) EXPECT_EQ(m, JoinMethod::kNestedLoop);
      EXPECT_TRUE(CheckCompliance(*q->plan, evaluator,
                                  shared.catalog->locations())
                      .compliant);
      auto oracle = run(*q, shared.memory.get(), 1024, 1, 0, ExecMode::kRow);
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      ASSERT_FALSE(oracle->rows.empty());
      for (int batch_size : kBatchSizes) {
        auto reference = run(*q, shared.memory.get(), batch_size, 1, 0,
                             ExecMode::kFragment);
        ASSERT_TRUE(reference.ok()) << reference.status();
        check(*q, *oracle, *reference, SoakConfig(), batch_size);
        for (const SoakConfig& cell : configs) {
          check(*q, *oracle, *reference, cell, batch_size);
        }
        nested_loop_runs += 1 + static_cast<int>(configs.size());
      }
    }
  }
  // Coverage: every configuration of every axis ran, the 1 KiB budget
  // forced the grace path somewhere, and disk runs streamed blocks.
  EXPECT_GE(accepted, 40) << "too few accepted plans";
  EXPECT_GE(static_cast<size_t>(accepted) * 2, configs.size());
  EXPECT_EQ(batch_covered, std::vector<bool>(3, true));
  EXPECT_GT(spill_partitions, 0);
  EXPECT_GT(blocks_read, 0);
  EXPECT_EQ(nested_loop_runs, 2 * 5 * 3 * 8);
  std::printf("differential soak: %d accepted plans, %d fragment runs "
              "(%d of nested loops)\n",
              accepted, runs, nested_loop_runs);
}

// Key shapes the TPC-H inputs above never build: a join on a string key
// (with long build chains), a join on five int-family keys, and GROUP BY
// on a double column, alone and beside a string. Each runs the whole
// grid against the row oracle under unrestricted policies.
TEST(DifferentialSoak, KeyShapesMatchRowOracle) {
  SharedTpch shared;
  PolicyCatalog policies(shared.catalog.get());
  ASSERT_TRUE(tpch::InstallUnrestrictedPolicies(&policies).ok());
  QueryOptimizer optimizer(shared.catalog.get(), &policies,
                           shared.net.get(), OptimizerOptions());
  struct Input {
    std::string sql;
    size_t join_keys;  // hash keys of the plan's one join; 0: no join
  };
  const std::vector<Input> inputs = {
      {"SELECT o.orderkey, l.linenumber FROM orders o, lineitem l "
       "WHERE o.orderstatus = l.linestatus AND o.orderkey < 160 "
       "AND l.orderkey < 12",
       1},
      {"SELECT a.orderkey, a.linenumber, b.quantity "
       "FROM lineitem a, lineitem b "
       "WHERE a.orderkey = b.orderkey AND a.partkey = b.partkey "
       "AND a.suppkey = b.suppkey AND a.linenumber = b.linenumber "
       "AND a.shipdate = b.shipdate AND a.orderkey < 300",
       5},
      {"SELECT l.discount, COUNT(*) AS n, SUM(l.quantity) AS q "
       "FROM lineitem l GROUP BY l.discount",
       0},
      {"SELECT l.tax, l.returnflag, MIN(l.extendedprice) AS lo "
       "FROM lineitem l GROUP BY l.tax, l.returnflag",
       0},
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.sql);
    auto q = optimizer.Optimize(input.sql);
    ASSERT_TRUE(q.ok()) << q.status();
    std::vector<const PlanNode*> joins;
    std::vector<const PlanNode*> stack = {q->plan.get()};
    while (!stack.empty()) {
      const PlanNode* n = stack.back();
      stack.pop_back();
      if (n->kind() == PlanKind::kJoin) joins.push_back(n);
      for (const PlanNodePtr& c : n->children()) stack.push_back(c.get());
    }
    ASSERT_EQ(joins.size(), input.join_keys == 0 ? 0u : 1u);
    if (!joins.empty()) {
      EXPECT_EQ(joins[0]->join_method, JoinMethod::kHash);
      size_t keys = 0;
      for (const ExprPtr& c : joins[0]->conjuncts) keys += IsHashJoinKey(*c);
      EXPECT_EQ(keys, input.join_keys);
    }
    ExecutorOptions opts;
    opts.mode = ExecMode::kRow;
    auto oracle =
        Executor(shared.memory.get(), shared.net.get(), opts).Execute(*q);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_GT(oracle->rows.size(), 1u);
    opts.mode = ExecMode::kFragment;
    for (bool disk : {false, true}) {
      for (int batch_size : {1, 7, 1024}) {
        for (int threads : {1, 4}) {
          for (uint64_t budget : {uint64_t{0}, uint64_t{1024}}) {
            SCOPED_TRACE(std::string(disk ? "disk" : "memory") +
                         " batch=" + std::to_string(batch_size) +
                         " threads=" + std::to_string(threads) +
                         " budget=" + std::to_string(budget));
            opts.batch_size = batch_size;
            opts.threads = threads;
            opts.memory_budget_bytes = budget;
            auto got = Executor(disk ? shared.disk.get() : shared.memory.get(),
                                shared.net.get(), opts)
                           .Execute(*q);
            ASSERT_TRUE(got.ok()) << got.status();
            EXPECT_EQ(Digest(*got), Digest(*oracle));
            EXPECT_EQ(got->metrics.rows_shipped, oracle->metrics.rows_shipped);
            EXPECT_EQ(got->metrics.bytes_shipped,
                      oracle->metrics.bytes_shipped);
            EXPECT_EQ(got->metrics.rows_scanned, oracle->metrics.rows_scanned);
            // The 1 KiB budget sends both joins down the grace spill.
            if (budget > 0 && input.join_keys > 0) {
              EXPECT_GT(got->metrics.spill_partitions, 0);
            }
          }
        }
      }
    }
  }
}

// Hash joins whose right input ends up smaller than their left one index
// the right input and restore the left-indexed order. The inputs join on
// keys duplicated on both sides, filter pairs with residuals that reject
// some of them, and one join has no output. Each runs the whole grid
// against the row oracle; the 1 KiB budget sends the left side down the
// grace spill instead, which never flips.
TEST(DifferentialSoak, FlippedHashJoinsMatchRowOracle) {
  SharedTpch shared;
  PolicyCatalog policies(shared.catalog.get());
  ASSERT_TRUE(tpch::InstallUnrestrictedPolicies(&policies).ok());
  QueryOptimizer optimizer(shared.catalog.get(), &policies,
                           shared.net.get(), OptimizerOptions());
  struct Input {
    std::string sql;
    bool empty;  // the query returns no row
  };
  const std::vector<Input> inputs = {
      // Supplier and partsupp keys repeat on both sides; the residual
      // keeps about half the pairs.
      {"SELECT l.orderkey, l.linenumber, ps.partkey, ps.availqty "
       "FROM lineitem l, partsupp ps "
       "WHERE l.suppkey = ps.suppkey AND ps.partkey < 12 "
       "AND l.partkey < ps.partkey + 100",
       false},
      {"SELECT o.orderkey, o.orderdate, l.linenumber, l.quantity "
       "FROM orders o, lineitem l "
       "WHERE o.orderkey = l.orderkey AND l.quantity < 4 "
       "AND o.totalprice > l.extendedprice * 20",
       false},
      {"SELECT c.name, o.orderkey, n.name FROM customer c, orders o, "
       "nation n WHERE c.custkey = o.custkey AND c.nationkey = n.nationkey "
       "AND n.regionkey = 1 AND o.orderstatus = 'F'",
       false},
      {"SELECT l.orderkey, s.name FROM lineitem l, supplier s "
       "WHERE l.suppkey = s.suppkey AND s.name = 'nobody'",
       true},
  };
  int64_t flips = 0;
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.sql);
    auto q = optimizer.Optimize(input.sql);
    ASSERT_TRUE(q.ok()) << q.status();
    std::vector<JoinMethod> methods;
    CollectJoinMethods(*q->plan, &methods);
    ASSERT_FALSE(methods.empty());
    for (JoinMethod m : methods) EXPECT_EQ(m, JoinMethod::kHash);
    ExecutorOptions opts;
    opts.mode = ExecMode::kRow;
    auto oracle =
        Executor(shared.memory.get(), shared.net.get(), opts).Execute(*q);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(oracle->rows.empty(), input.empty);
    opts.mode = ExecMode::kFragment;
    const int64_t flips_before = MetricsRegistry::Value("exec.join_flips");
    for (bool disk : {false, true}) {
      for (int batch_size : {1, 7, 1024}) {
        for (int threads : {1, 4}) {
          for (uint64_t budget : {uint64_t{0}, uint64_t{1024}}) {
            SCOPED_TRACE(std::string(disk ? "disk" : "memory") +
                         " batch=" + std::to_string(batch_size) +
                         " threads=" + std::to_string(threads) +
                         " budget=" + std::to_string(budget));
            opts.batch_size = batch_size;
            opts.threads = threads;
            opts.memory_budget_bytes = budget;
            auto got = Executor(disk ? shared.disk.get() : shared.memory.get(),
                                shared.net.get(), opts)
                           .Execute(*q);
            ASSERT_TRUE(got.ok()) << got.status();
            EXPECT_EQ(Digest(*got), Digest(*oracle));
            EXPECT_EQ(got->metrics.rows_shipped, oracle->metrics.rows_shipped);
            EXPECT_EQ(got->metrics.bytes_shipped,
                      oracle->metrics.bytes_shipped);
            EXPECT_EQ(got->metrics.rows_scanned, oracle->metrics.rows_scanned);
          }
        }
      }
    }
#ifdef CGQ_TRACING
    // Every input flips a join in the unbudgeted cells.
    EXPECT_GT(MetricsRegistry::Value("exec.join_flips"), flips_before);
#endif
    flips += MetricsRegistry::Value("exec.join_flips") - flips_before;
  }
  std::printf("flipped hash joins: %lld join runs flipped\n",
              static_cast<long long>(flips));
}

// Columns whose cells mix int64 and double are stored as kValue columns
// (or typed, in a block where one type happens to be alone), and carry
// NULLs, so filters, join keys, group keys and SUM/MIN/MAX over them take
// the cell and Value fallbacks beside the typed paths TPC-H exercises.
// Each query runs the whole grid against the row oracle.
TEST(DifferentialSoak, MixedTagColumnsMatchRowOracle) {
  Catalog catalog;
  (void)*catalog.mutable_locations().AddLocation("s1");
  (void)*catalog.mutable_locations().AddLocation("s2");
  TableDef m;
  m.name = "m";
  m.schema = Schema({{"id", DataType::kInt64},
                     {"x", DataType::kDouble},
                     {"g", DataType::kDouble}});
  m.fragments = {TableFragment{0, 1.0}};
  m.stats.row_count = 400;
  (void)catalog.AddTable(m);
  TableDef n;
  n.name = "n";
  n.schema = Schema({{"x2", DataType::kDouble}, {"w", DataType::kInt64}});
  n.fragments = {TableFragment{1, 1.0}};
  n.stats.row_count = 40;
  (void)catalog.AddTable(n);
  PolicyCatalog policies(&catalog);
  ASSERT_TRUE(policies.AddPolicyText("s1", "ship * from m to *").ok());
  ASSERT_TRUE(policies.AddPolicyText("s2", "ship * from n to *").ok());

  // x cycles through int64 and double spellings of the same numbers
  // (structurally distinct keys, numerically equal in filters), -0.0, NaN
  // and NULL.
  auto mixed = [](int64_t i) {
    if (i % 7 == 0) return Value::Null();
    if (i % 29 == 0) return Value::Double(-0.0);
    if (i % 31 == 0) return Value::Double(std::nan(""));
    const int64_t v = i % 13;
    return i % 2 == 0 ? Value::Int64(v) : Value::Double(static_cast<double>(v));
  };
  TableStore memory;
  std::vector<Row> m_rows, n_rows;
  // Built cell by cell: moved, not copied out of an initializer list.
  for (int64_t i = 0; i < 400; ++i) {
    Row& row = m_rows.emplace_back();
    row.push_back(Value::Int64(i));
    row.push_back(mixed(i));
    row.push_back(mixed(i / 3 + 1));
  }
  for (int64_t i = 0; i < 40; ++i) {
    Row& row = n_rows.emplace_back();
    row.push_back(mixed(i * 5 + 1));
    row.push_back(Value::Int64(i % 4));
  }
  ASSERT_EQ(vec::FromRows(m_rows.data(), m_rows.size(), 3).columns[1]->tag,
            vec::ColumnTag::kValue);
  memory.Put(0, "m", m_rows);
  memory.Put(1, "n", n_rows);
  const std::string dir =
      (fs::temp_directory_path() /
       ("cgq-differential-mixed-" + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  TableStore disk(memory);
  storage::StorageOptions storage_options;
  storage_options.block_target_bytes = 1024;
  ASSERT_TRUE(disk.EnableDiskStorage(dir, storage_options).ok());
  const NetworkModel net = NetworkModel::DefaultGeo(2);
  QueryOptimizer optimizer(&catalog, &policies, &net, OptimizerOptions());

  const std::vector<std::string> queries = {
      "SELECT m.id, m.x FROM m WHERE m.x > 5",
      "SELECT m.id FROM m WHERE m.x >= 2.5 AND m.x < 9 AND m.g <> 4",
      "SELECT m.id, m.g FROM m WHERE m.x = 3",
      "SELECT m.id, n.w FROM m, n WHERE m.x = n.x2",
      "SELECT m.g, COUNT(*) AS c, SUM(m.x) AS s, MIN(m.x) AS lo, "
      "MAX(m.x) AS hi FROM m GROUP BY m.g",
      "SELECT SUM(m.x) AS s, MIN(m.x) AS lo, MAX(m.x) AS hi, AVG(m.x) AS a "
      "FROM m WHERE m.id > 10",
      "SELECT n.x2, SUM(m.x) AS s, MIN(m.g) AS lo FROM m, n "
      "WHERE m.x = n.x2 GROUP BY n.x2",
  };
  int64_t spilled = 0;
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    auto q = optimizer.Optimize(sql);
    ASSERT_TRUE(q.ok()) << q.status();
    ExecutorOptions opts;
    opts.mode = ExecMode::kRow;
    auto oracle = Executor(&memory, &net, opts).Execute(*q);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_GE(oracle->rows.size(), 1u);
    opts.mode = ExecMode::kFragment;
    for (bool on_disk : {false, true}) {
      for (int batch_size : {1, 7, 1024}) {
        for (int threads : {1, 4}) {
          for (uint64_t budget : {uint64_t{0}, uint64_t{1024}}) {
            SCOPED_TRACE(std::string(on_disk ? "disk" : "memory") +
                         " batch=" + std::to_string(batch_size) +
                         " threads=" + std::to_string(threads) +
                         " budget=" + std::to_string(budget));
            opts.batch_size = batch_size;
            opts.threads = threads;
            opts.memory_budget_bytes = budget;
            auto got = Executor(on_disk ? &disk : &memory, &net, opts)
                           .Execute(*q);
            ASSERT_TRUE(got.ok()) << got.status();
            EXPECT_EQ(Digest(*got), Digest(*oracle));
            EXPECT_EQ(got->metrics.rows_shipped, oracle->metrics.rows_shipped);
            EXPECT_EQ(got->metrics.bytes_shipped,
                      oracle->metrics.bytes_shipped);
            EXPECT_EQ(got->metrics.rows_scanned, oracle->metrics.rows_scanned);
            spilled += got->metrics.spill_partitions;
          }
        }
      }
    }
  }
  // The joins' build sides exceed the 1 KiB budget: the grace spill ran.
  EXPECT_GT(spilled, 0);
  fs::remove_all(dir, ec);
}

// --- NULL semantics ----------------------------------------------------------

// A small two-site engine whose data is riddled with NULLs: NULL filter
// keys, NULL join keys (must not match, also against a stored 0), NULL
// group keys (must group together), and one all-NULL column.
class VectorNullSemanticsTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Engine> MakeEngine() {
    Catalog catalog;
    (void)*catalog.mutable_locations().AddLocation("s1");
    (void)*catalog.mutable_locations().AddLocation("s2");
    TableDef events;
    events.name = "events";
    events.schema = Schema({{"id", DataType::kInt64},
                            {"kind", DataType::kString},
                            {"amount", DataType::kInt64},
                            {"ghost", DataType::kInt64}});
    events.fragments = {TableFragment{0, 1.0}};
    events.stats.row_count = 200;
    (void)catalog.AddTable(events);
    TableDef kinds;
    kinds.name = "kinds";
    kinds.schema = Schema({{"kind", DataType::kString},
                           {"weight", DataType::kInt64}});
    kinds.fragments = {TableFragment{1, 1.0}};
    kinds.stats.row_count = 5;
    (void)catalog.AddTable(kinds);

    auto engine = std::make_unique<Engine>(std::move(catalog),
                                           NetworkModel::DefaultGeo(2));
    (void)engine->AddPolicy("s1", "ship * from events to *");
    (void)engine->AddPolicy("s2", "ship * from kinds to *");
    const char* pool[] = {"click", "view", "buy"};
    for (int64_t i = 0; i < 200; ++i) {
      engine->store().Append(
          0, "events",
          {Value::Int64(i),
           i % 7 == 0 ? Value::Null() : Value::String(pool[i % 3]),
           i % 5 == 0 ? Value::Null() : Value::Int64(i % 97),
           Value::Null()});
    }
    engine->store().Put(1, "kinds",
                        {{Value::String("click"), Value::Int64(1)},
                         {Value::String("view"), Value::Int64(2)},
                         {Value::Null(), Value::Int64(99)},
                         {Value::String("buy"), Value::Int64(5)},
                         {Value::String("zero"), Value::Int64(0)}});
    return engine;
  }

  void ExpectAgree(const char* sql) {
    auto engine = MakeEngine();
    engine->set_exec_mode(ExecMode::kRow);
    auto row = engine->Run(sql);
    ASSERT_TRUE(row.ok()) << sql << ": " << row.status();
    for (int batch_size : {1, 7, 1024}) {
      engine->set_exec_mode(ExecMode::kFragment);
      engine->default_exec_options().batch_size = batch_size;
      auto frag = engine->Run(sql);
      ASSERT_TRUE(frag.ok()) << sql << ": " << frag.status();
      EXPECT_EQ(Digest(*frag), Digest(*row))
          << sql << " batch=" << batch_size;
    }
  }
};

TEST_F(VectorNullSemanticsTest, FilterDropsNullPredicates) {
  ExpectAgree("SELECT id, amount FROM events WHERE amount > 50");
}

TEST_F(VectorNullSemanticsTest, NullJoinKeysNeverMatch) {
  ExpectAgree(
      "SELECT e.id, k.weight FROM events e, kinds k "
      "WHERE e.kind = k.kind AND e.amount < 30");
}

TEST_F(VectorNullSemanticsTest, NullIntJoinKeysNeverMatch) {
  ExpectAgree(
      "SELECT e.id, k.kind FROM events e, kinds k WHERE e.amount = k.weight");
  ExpectAgree(
      "SELECT e.id, k.kind FROM events e, kinds k WHERE e.ghost = k.weight");
}

TEST_F(VectorNullSemanticsTest, NullGroupKeysFormOneGroup) {
  ExpectAgree(
      "SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events "
      "GROUP BY kind");
}

TEST_F(VectorNullSemanticsTest, AllNullColumnSurvivesProjectAndAggregate) {
  ExpectAgree("SELECT ghost, id FROM events WHERE id < 10");
  ExpectAgree("SELECT COUNT(*) AS n, SUM(ghost) AS s FROM events");
}

TEST_F(VectorNullSemanticsTest, DisjunctionUsesKleeneLogic) {
  ExpectAgree(
      "SELECT id FROM events WHERE amount > 90 OR kind = 'click'");
}

}  // namespace
}  // namespace cgq
