#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "exec/executor.h"
#include "exec/fragmenter.h"
#include "net/network_model.h"
#include "tpch/tpch.h"
#include "workload/query_generator.h"

namespace cgq {
namespace {

// Shared fixture state: generating TPC-H data once keeps the sweep fast.
struct SharedTpch {
  SharedTpch() {
    config.scale_factor = 0.002;
    catalog = std::make_unique<Catalog>(*tpch::BuildCatalog(config));
    net = std::make_unique<NetworkModel>(NetworkModel::DefaultGeo(5));
    store = std::make_unique<TableStore>();
    CGQ_CHECK(tpch::GenerateData(*catalog, config, store.get()).ok());
  }
  tpch::TpchConfig config;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<NetworkModel> net;
  std::unique_ptr<TableStore> store;
};

SharedTpch& Shared() {
  static SharedTpch* s = new SharedTpch();
  return *s;
}

// Full-precision row serialization: the fragment backend must reproduce the
// row interpreter byte for byte, order included.
std::vector<std::string> ExactRows(const QueryResult& r) {
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

// The batch-size / thread-count grid every query is checked against.
std::vector<ExecutorOptions> FragmentConfigs() {
  std::vector<ExecutorOptions> configs;
  for (int batch : {1, 7, 1024}) {
    for (int threads : {1, 4}) {
      ExecutorOptions o;
      o.mode = ExecMode::kFragment;
      o.batch_size = batch;
      o.threads = threads;
      configs.push_back(o);
    }
  }
  return configs;
}

std::string Describe(const ExecutorOptions& o) {
  return std::string("mode=") + ExecModeToString(o.mode) +
         " batch_size=" + std::to_string(o.batch_size) +
         " threads=" + std::to_string(o.threads);
}

// Runs `q` under both backends (the fragmented one at every grid point) and
// asserts identical rows and ship metrics.
void CheckEquivalence(const SharedTpch& shared, const OptimizedQuery& q,
                      const std::string& label) {
  Executor row_exec(shared.store.get(), shared.net.get());
  auto row = row_exec.Execute(q);
  ASSERT_TRUE(row.ok()) << label << ": " << row.status();
  std::vector<std::string> expected = ExactRows(*row);

  for (const ExecutorOptions& o : FragmentConfigs()) {
    SCOPED_TRACE(label + " [" + Describe(o) + "]");
    Executor frag_exec(shared.store.get(), shared.net.get(), o);
    auto frag = frag_exec.Execute(q);
    ASSERT_TRUE(frag.ok()) << frag.status();

    EXPECT_EQ(frag->column_names, row->column_names);
    EXPECT_EQ(ExactRows(*frag), expected);
    EXPECT_EQ(frag->metrics.ships, row->metrics.ships);
    EXPECT_EQ(frag->metrics.rows_shipped, row->metrics.rows_shipped);
    EXPECT_EQ(frag->metrics.bytes_shipped, row->metrics.bytes_shipped);
    EXPECT_EQ(frag->metrics.rows_scanned, row->metrics.rows_scanned);
    EXPECT_NEAR(frag->metrics.network_ms, row->metrics.network_ms,
                1e-6 * (1.0 + row->metrics.network_ms));

    // Per-edge breakdowns match the row backend's SHIP post-order.
    ASSERT_EQ(frag->metrics.edges.size(), row->metrics.edges.size());
    for (size_t i = 0; i < frag->metrics.edges.size(); ++i) {
      EXPECT_EQ(frag->metrics.edges[i].from, row->metrics.edges[i].from);
      EXPECT_EQ(frag->metrics.edges[i].to, row->metrics.edges[i].to);
      EXPECT_EQ(frag->metrics.edges[i].rows, row->metrics.edges[i].rows);
      EXPECT_EQ(frag->metrics.edges[i].bytes, row->metrics.edges[i].bytes);
    }

    // One fragment per SHIP edge plus the top fragment.
    EXPECT_EQ(frag->metrics.fragments.size(),
              frag->metrics.edges.size() + 1);
  }
}

// (policy set, query number) sweep over the TPC-H workload.
class FragmentEquivalence
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(FragmentEquivalence, MatchesRowBackendAcrossGrid) {
  const auto& [set, qnum] = GetParam();
  SharedTpch& shared = Shared();
  PolicyCatalog policies(shared.catalog.get());
  ASSERT_TRUE(tpch::InstallPolicySet(set, &policies).ok());

  QueryOptimizer optimizer(shared.catalog.get(), &policies, shared.net.get(),
                           OptimizerOptions());
  std::string sql = *tpch::Query(qnum);
  auto q = optimizer.Optimize(sql);
  ASSERT_TRUE(q.ok()) << set << "/Q" << qnum << ": " << q.status();

  CheckEquivalence(shared, *q,
                   std::string(set) + "/Q" + std::to_string(qnum));
}

std::vector<std::tuple<const char*, int>> AllVariants() {
  std::vector<std::tuple<const char*, int>> out;
  for (const char* set : {"T", "CR"}) {
    for (int q : tpch::QueryNumbers()) out.emplace_back(set, q);
    for (int q : tpch::ExtendedQueryNumbers()) out.emplace_back(set, q);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    TpchWorkload, FragmentEquivalence, ::testing::ValuesIn(AllVariants()),
    [](const ::testing::TestParamInfo<std::tuple<const char*, int>>& info) {
      return std::string(std::get<0>(info.param)) + "_Q" +
             std::to_string(std::get<1>(info.param));
    });

// Randomized ad-hoc workload: the generator walks the PK-FK graph, so this
// exercises operator shapes (unions over fragmented tables, multi-way
// joins, aggregates) beyond the fixed TPC-H plans.
TEST(FragmentExecutorTest, RandomizedAdhocWorkloadAgrees) {
  SharedTpch& shared = Shared();
  PolicyCatalog policies(shared.catalog.get());
  ASSERT_TRUE(tpch::InstallUnrestrictedPolicies(&policies).ok());

  WorkloadProperties properties = TpchWorkloadProperties();
  QueryGeneratorConfig qconfig;
  qconfig.seed = 20260807;
  AdhocQueryGenerator qgen(shared.catalog.get(), &properties, qconfig);

  QueryOptimizer optimizer(shared.catalog.get(), &policies, shared.net.get(),
                           OptimizerOptions());
  int checked = 0;
  for (int i = 0; i < 20; ++i) {
    std::string sql = qgen.Next();
    auto q = optimizer.Optimize(sql);
    ASSERT_TRUE(q.ok()) << sql << ": " << q.status();
    CheckEquivalence(shared, *q, "adhoc#" + std::to_string(i));
    ++checked;
  }
  EXPECT_EQ(checked, 20);
}

// A plan whose result is empty still pays the per-edge start-up latency in
// both backends.
TEST(FragmentExecutorTest, EmptyResultParity) {
  SharedTpch& shared = Shared();
  PolicyCatalog policies(shared.catalog.get());
  ASSERT_TRUE(tpch::InstallUnrestrictedPolicies(&policies).ok());

  QueryOptimizer optimizer(shared.catalog.get(), &policies, shared.net.get(),
                           OptimizerOptions());
  auto q = optimizer.Optimize(
      "SELECT c.name, o.totalprice FROM customer c, orders o "
      "WHERE c.custkey = o.custkey AND o.totalprice < -1");
  ASSERT_TRUE(q.ok()) << q.status();
  CheckEquivalence(shared, *q, "empty-result");
}

// FragmentPlan splits at every SHIP edge: producers come before consumers,
// channel ids equal fragment ids, and the top fragment has no output.
TEST(FragmentExecutorTest, FragmenterPostOrderInvariants) {
  SharedTpch& shared = Shared();
  PolicyCatalog policies(shared.catalog.get());
  ASSERT_TRUE(tpch::InstallUnrestrictedPolicies(&policies).ok());

  QueryOptimizer optimizer(shared.catalog.get(), &policies, shared.net.get(),
                           OptimizerOptions());
  auto q = optimizer.Optimize(*tpch::Query(5));
  ASSERT_TRUE(q.ok()) << q.status();

  FragmentedPlan fp = FragmentPlan(*q->plan);
  ASSERT_FALSE(fp.fragments.empty());
  EXPECT_EQ(fp.top().output_channel, -1);
  EXPECT_EQ(fp.num_channels(), fp.fragments.size() - 1);
  for (size_t i = 0; i < fp.fragments.size(); ++i) {
    const PlanFragment& f = fp.fragments[i];
    EXPECT_EQ(f.id, static_cast<int>(i));
    if (i + 1 < fp.fragments.size()) {
      EXPECT_EQ(f.output_channel, f.id);
      ASSERT_NE(f.ship, nullptr);
      EXPECT_EQ(f.site, f.ship->ship_from);
    }
    // Producers precede consumers in the schedule.
    for (int in : f.input_channels) {
      EXPECT_LT(in, f.id);
    }
  }
}

// Engine-level plumbing: default_exec_options() selects the backend for
// Run(), and ORDER BY / LIMIT apply identically on top of both.
TEST(FragmentExecutorTest, EnginePlumbingAndOrderBy) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  Engine engine(*tpch::BuildCatalog(config), NetworkModel::DefaultGeo(5));
  ASSERT_TRUE(tpch::InstallUnrestrictedPolicies(&engine.policies()).ok());
  ASSERT_TRUE(
      tpch::GenerateData(engine.catalog(), config, &engine.store()).ok());

  const std::string sql =
      "SELECT c.name, o.totalprice FROM customer c, orders o "
      "WHERE c.custkey = o.custkey ORDER BY totalprice DESC LIMIT 10";

  EXPECT_EQ(engine.default_exec_options().mode, ExecMode::kRow);
  auto row = engine.Run(sql);
  ASSERT_TRUE(row.ok()) << row.status();

  engine.set_exec_mode(ExecMode::kFragment);
  engine.default_exec_options().threads = 4;
  EXPECT_EQ(engine.default_exec_options().mode, ExecMode::kFragment);
  auto frag = engine.Run(sql);
  ASSERT_TRUE(frag.ok()) << frag.status();

  EXPECT_EQ(frag->rows.size(), 10u);
  EXPECT_EQ(ExactRows(*frag), ExactRows(*row));
  EXPECT_EQ(frag->metrics.bytes_shipped, row->metrics.bytes_shipped);
  EXPECT_FALSE(frag->metrics.fragments.empty());
}

// A SHIP leaf reads its edge through one source operator on both ends of
// the wire, which refuses a batch whose attrs differ from the leaf's own
// layout. Here a hand-built SHIP claims the permuted outputs (y, x) over
// a scan yielding (x, y): the projection above it would resolve attr 1
// to the wrong column, so the in-process run fails with a typed
// kInvalidArgument under both schedules instead of returning rows.
TEST(FragmentExecutorTest, ShipBatchOfOtherLayoutRefusedInProcess) {
  const OutputCol x{1, "x", DataType::kInt64};
  const OutputCol y{2, "y", DataType::kInt64};
  auto scan = std::make_shared<PlanNode>(PlanKind::kScan);
  scan->table = "t";
  scan->scan_location = 1;
  scan->location = 1;
  scan->outputs = {x, y};
  auto ship = std::make_shared<PlanNode>(PlanKind::kShip);
  ship->ship_from = 1;
  ship->ship_to = 0;
  ship->location = 0;
  ship->outputs = {y, x};
  ship->children().push_back(scan);
  auto project = std::make_shared<PlanNode>(PlanKind::kProject);
  project->project_ids = {1};
  project->project_names = {"x"};
  project->outputs = {x};
  project->location = 0;
  project->children().push_back(ship);

  TableStore store;
  ASSERT_TRUE(
      store.Put(1, "t", {{Value::Int64(10), Value::Int64(20)}}).ok());
  NetworkModel net = NetworkModel::DefaultGeo(2);
  for (int threads : {1, 0}) {
    ExecutorOptions options;
    options.mode = ExecMode::kFragment;
    options.threads = threads;
    auto r = Executor(&store, &net, options).ExecutePlan(*project);
    ASSERT_FALSE(r.ok()) << "threads=" << threads;
    EXPECT_TRUE(r.status().IsInvalidArgument())
        << "threads=" << threads << ": " << r.status();
  }
}

}  // namespace
}  // namespace cgq
