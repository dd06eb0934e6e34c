// Loopback-equals-in-process: a three-server loopback deployment of the
// distributed backend must reproduce the in-process row backend's
// results byte for byte — and its ship accounting (ships, rows_shipped,
// bytes_shipped, rows_scanned) exactly — across the full 24-cell TPC-H
// compliance workload ({T, CR} policy sets x 12 queries). The servers
// here are in-process threads speaking real TCP over 127.0.0.1; CI runs
// the same contract across OS processes (ci/run_loopback.sh).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "exec/executor.h"
#include "net/cluster_client.h"
#include "net/network_model.h"
#include "net/server.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

// TPC-H data generated once, deployed once onto three loopback servers
// that partition the five locations as {0,1} / {2,3} / {4}.
struct SharedCluster {
  SharedCluster() {
    config.scale_factor = 0.002;
    catalog = std::make_unique<Catalog>(*tpch::BuildCatalog(config));
    net = std::make_unique<NetworkModel>(NetworkModel::DefaultGeo(5));
    store = std::make_unique<TableStore>();
    CGQ_CHECK(tpch::GenerateData(*catalog, config, store.get()).ok());

    const std::vector<std::vector<LocationId>> hosting = {
        {0, 1}, {2, 3}, {4}};
    std::map<LocationId, net::Endpoint> endpoints;
    for (const auto& locations : hosting) {
      net::SiteServer::Options o;
      o.locations = locations;
      servers.push_back(std::make_unique<net::SiteServer>(o));
      CGQ_CHECK(servers.back()->Start().ok());
      for (LocationId loc : locations) {
        endpoints[loc] = {"127.0.0.1", servers.back()->port()};
      }
    }
    CGQ_CHECK(cluster.Connect(endpoints).ok());
    CGQ_CHECK(cluster.Deploy(*store).ok());
  }

  tpch::TpchConfig config;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<NetworkModel> net;
  std::unique_ptr<TableStore> store;
  std::vector<std::unique_ptr<net::SiteServer>> servers;
  net::ClusterClient cluster;
};

SharedCluster* shared_cluster = nullptr;

SharedCluster& Shared() {
  if (shared_cluster == nullptr) shared_cluster = new SharedCluster();
  return *shared_cluster;
}

// Tears the shared cluster down after the last test (of each
// --gtest_repeat iteration): a server joins the threads of its ended
// connections only at its next accept or in Stop(), so one left running
// would leave finished threads unjoined at exit.
class TearDownSharedCluster : public ::testing::Environment {
 public:
  void TearDown() override {
    delete shared_cluster;
    shared_cluster = nullptr;
  }
};
::testing::Environment* const kTearDownSharedCluster =
    ::testing::AddGlobalTestEnvironment(new TearDownSharedCluster);

// Full-precision serialization: loopback runs must reproduce the
// in-process result byte for byte, order included.
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

Result<OptimizedQuery> OptimizeTpch(const SharedCluster& shared, int qnum,
                                    const char* policy_set) {
  PolicyCatalog policies(shared.catalog.get());
  CGQ_RETURN_NOT_OK(tpch::InstallPolicySet(policy_set, &policies));
  QueryOptimizer optimizer(shared.catalog.get(), &policies,
                           shared.net.get(), OptimizerOptions());
  CGQ_ASSIGN_OR_RETURN(std::string sql, tpch::Query(qnum));
  return optimizer.Optimize(sql);
}

ExecutorOptions DistributedOptions(SharedCluster& shared, int threads) {
  ExecutorOptions o;
  o.mode = ExecMode::kDistributed;
  o.threads = threads;
  o.cluster = &shared.cluster;
  return o;
}

// Ship accounting must agree exactly — rows and edge counts as
// integers, modeled bytes bit for bit (both backends charge the same
// NetworkModel for the same batches). Modeled network time is the one
// float the backends *sum* in different edge orders, so it gets a
// relative tolerance instead of bit equality.
void ExpectSameAccounting(const ExecMetrics& a, const ExecMetrics& b) {
  EXPECT_EQ(a.ships, b.ships);
  EXPECT_EQ(a.rows_shipped, b.rows_shipped);
  EXPECT_EQ(a.bytes_shipped, b.bytes_shipped);
  EXPECT_NEAR(a.network_ms, b.network_ms,
              1e-9 * (1.0 + std::abs(a.network_ms)));
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.edges.size(), b.edges.size());
}

// The acceptance gate of the deployment layer: every query of both
// policy workloads, distributed over loopback TCP, equals the row
// backend exactly.
TEST(DistributedExecutorTest, ReproducesRowBackendOnFullWorkload) {
  SharedCluster& shared = Shared();
  std::vector<int> queries = tpch::QueryNumbers();
  for (int q : tpch::ExtendedQueryNumbers()) queries.push_back(q);
  ASSERT_GE(queries.size(), 12u);

  int cells = 0;
  for (const char* policy_set : {"T", "CR"}) {
    for (int qnum : queries) {
      SCOPED_TRACE(std::string(policy_set) + " Q" + std::to_string(qnum));
      auto q = OptimizeTpch(shared, qnum, policy_set);
      ASSERT_TRUE(q.ok()) << q.status();

      Executor row_exec(shared.store.get(), shared.net.get());
      auto row = row_exec.Execute(*q);
      ASSERT_TRUE(row.ok()) << row.status();

      Executor dist_exec(shared.store.get(), shared.net.get(),
                         DistributedOptions(shared, 1));
      auto dist = dist_exec.Execute(*q);
      ASSERT_TRUE(dist.ok()) << dist.status();

      EXPECT_EQ(ExactRows(*dist), ExactRows(*row));
      ExpectSameAccounting(dist->metrics, row->metrics);
      ++cells;
    }
  }
  EXPECT_EQ(cells, 24);
}

// Pipelined dispatch (worker threads running fragments concurrently)
// changes scheduling only: rows and accounting stay identical to the
// sequential schedule.
TEST(DistributedExecutorTest, PipelinedMatchesSequential) {
  SharedCluster& shared = Shared();
  for (int qnum : tpch::QueryNumbers()) {
    SCOPED_TRACE(testing::Message() << "Q" << qnum);
    auto q = OptimizeTpch(shared, qnum, "CR");
    ASSERT_TRUE(q.ok()) << q.status();

    Executor seq(shared.store.get(), shared.net.get(),
                 DistributedOptions(shared, 1));
    auto a = seq.Execute(*q);
    ASSERT_TRUE(a.ok()) << a.status();

    Executor par(shared.store.get(), shared.net.get(),
                 DistributedOptions(shared, 4));
    auto b = par.Execute(*q);
    ASSERT_TRUE(b.ok()) << b.status();

    EXPECT_EQ(ExactRows(*a), ExactRows(*b));
    ExpectSameAccounting(a->metrics, b->metrics);
  }
}

// The distributed accounting also matches the fragment backend (which
// shares the channel machinery directly) — the three backends form one
// equivalence class.
TEST(DistributedExecutorTest, MatchesFragmentBackend) {
  SharedCluster& shared = Shared();
  auto q = OptimizeTpch(shared, tpch::QueryNumbers().front(), "CR");
  ASSERT_TRUE(q.ok()) << q.status();

  ExecutorOptions fopt;
  fopt.mode = ExecMode::kFragment;
  Executor frag(shared.store.get(), shared.net.get(), fopt);
  auto a = frag.Execute(*q);
  ASSERT_TRUE(a.ok()) << a.status();

  Executor dist(shared.store.get(), shared.net.get(),
                DistributedOptions(shared, 1));
  auto b = dist.Execute(*q);
  ASSERT_TRUE(b.ok()) << b.status();

  EXPECT_EQ(ExactRows(*a), ExactRows(*b));
  ExpectSameAccounting(a->metrics, b->metrics);
}

// Without a connected cluster the mode is refused up front with a typed
// error, before any fragment is dispatched.
TEST(DistributedExecutorTest, RequiresConnectedCluster) {
  SharedCluster& shared = Shared();
  auto q = OptimizeTpch(shared, tpch::QueryNumbers().front(), "T");
  ASSERT_TRUE(q.ok()) << q.status();

  ExecutorOptions o;
  o.mode = ExecMode::kDistributed;  // no cluster set
  Executor exec(shared.store.get(), shared.net.get(), o);
  auto r = exec.Execute(*q);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
}

// Engine-level plumbing: ConnectCluster + DeployStore + ExecMode wired
// through default_exec_options, equal to the engine's row-mode Run.
TEST(DistributedExecutorTest, EngineRunsDistributedEndToEnd) {
  SharedCluster& shared = Shared();
  Engine engine(Catalog(*shared.catalog), NetworkModel::DefaultGeo(5));
  ASSERT_TRUE(tpch::InstallPolicySet("CR", &engine.policies()).ok());
  ASSERT_TRUE(
      tpch::GenerateData(engine.catalog(), shared.config, &engine.store())
          .ok());
  ASSERT_TRUE(engine.ConnectCluster(shared.cluster.endpoints()).ok());
  ASSERT_TRUE(engine.DeployStore().ok());

  auto sql = tpch::Query(tpch::QueryNumbers().front());
  ASSERT_TRUE(sql.ok());

  engine.set_exec_mode(ExecMode::kRow);
  auto row = engine.Run(*sql);
  ASSERT_TRUE(row.ok()) << row.status();

  engine.set_exec_mode(ExecMode::kDistributed);
  auto dist = engine.Run(*sql);
  ASSERT_TRUE(dist.ok()) << dist.status();

  EXPECT_EQ(ExactRows(*dist), ExactRows(*row));
  ExpectSameAccounting(dist->metrics, row->metrics);
}

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// `n` copies of `term` joined by `op`: a left-deep chain.
std::string Chain(const std::string& term, const std::string& op, int n) {
  return term + Repeat(" " + op + " " + term, n - 1);
}

// Queries at the parser's nesting bound run, and the site servers decode
// every fragment the coordinator builds from them, the planner's extra
// levels (e.g. SUM(x) -> SUM(x * count)) included: the distributed run
// equals the row backend. Past the bound, Run fails typed; 10,000 OR
// terms used to overflow the stack.
TEST(DistributedExecutorTest, NestingAtParserBoundRunsDistributed) {
  SharedCluster& shared = Shared();
  Engine engine(Catalog(*shared.catalog), NetworkModel::DefaultGeo(5));
  ASSERT_TRUE(tpch::InstallPolicySet("CR", &engine.policies()).ok());
  ASSERT_TRUE(
      tpch::GenerateData(engine.catalog(), shared.config, &engine.store())
          .ok());
  ASSERT_TRUE(engine.ConnectCluster(shared.cluster.endpoints()).ok());

  auto ors = [](int terms) {
    return "SELECT name FROM region WHERE " +
           Chain("regionkey = 0", "OR", terms);
  };
  const std::vector<std::string> at_bound = {
      // kMaxExprDepth - 1 comparisons under a left-deep OR chain.
      ors(kMaxExprDepth - 1),
      // kMaxExprDepth - 2 NOTs over a comparison.
      "SELECT COUNT(*) FROM lineitem l WHERE " +
          Repeat("NOT ", kMaxExprDepth - 2) + "l.quantity < 24",
      // A kMaxExprDepth-level sum under an aggregate over a join.
      "SELECT SUM(" + Chain("l.quantity", "+", kMaxExprDepth) +
          ") FROM orders o, lineitem l WHERE o.orderkey = l.orderkey",
  };
  for (const std::string& sql : at_bound) {
    SCOPED_TRACE(sql.substr(0, 60));
    engine.set_exec_mode(ExecMode::kRow);
    auto row = engine.Run(sql);
    ASSERT_TRUE(row.ok()) << row.status();
    engine.set_exec_mode(ExecMode::kDistributed);
    auto dist = engine.Run(sql);
    ASSERT_TRUE(dist.ok()) << dist.status();
    EXPECT_EQ(ExactRows(*dist), ExactRows(*row));
  }

  for (int terms : {kMaxExprDepth, 10000}) {
    auto refused = engine.Run(ors(terms));
    ASSERT_FALSE(refused.ok());
    EXPECT_TRUE(refused.status().IsInvalidArgument()) << refused.status();
  }
}

}  // namespace
}  // namespace cgq
