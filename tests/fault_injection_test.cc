// Fault-injection harness for the executors: injected link faults
// (drops, latency, hard failures) and failpoint-driven failures must
// either be absorbed by bounded retries — reproducing the fault-free
// result byte for byte — or abort the query with the structured
// kUnavailable status. Never a hang, never a partial result.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "exec/executor.h"
#include "net/network_model.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

// Shared fixture state: TPC-H data is generated once for the whole suite.
// The network model is per-suite mutable (tests install link faults and
// must clear them before returning).
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

// Full-precision serialization: recovered runs must reproduce the
// fault-free result byte for byte, order included.
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

Result<OptimizedQuery> OptimizeTpch(const SharedTpch& shared, int qnum,
                                    const char* policy_set) {
  PolicyCatalog policies(shared.catalog.get());
  CGQ_RETURN_NOT_OK(tpch::InstallPolicySet(policy_set, &policies));
  QueryOptimizer optimizer(shared.catalog.get(), &policies,
                           shared.net.get(), OptimizerOptions());
  CGQ_ASSIGN_OR_RETURN(std::string sql, tpch::Query(qnum));
  return optimizer.Optimize(sql);
}

ExecutorOptions FragmentOptions(int batch, int threads,
                                const RetryPolicy& retry) {
  ExecutorOptions o;
  o.mode = ExecMode::kFragment;
  o.batch_size = batch;
  o.threads = threads;
  o.retry = retry;
  return o;
}

// All cross-site edges of a plan, from a fault-free row-backend run.
std::vector<std::pair<LocationId, LocationId>> CrossSiteEdges(
    const ExecMetrics& metrics) {
  std::set<std::pair<LocationId, LocationId>> edges;
  for (const ChannelStats& e : metrics.edges) {
    if (e.from != e.to) edges.emplace(e.from, e.to);
  }
  return {edges.begin(), edges.end()};
}

// Failpoints are process-global; leave no site armed behind.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::DisarmAll();
    Shared().net->ClearLinkFaults();
  }
  void TearDown() override {
    Failpoints::DisarmAll();
    Shared().net->ClearLinkFaults();
  }
};

// The core contract, swept over the full 12-query TPC-H workload: with a
// lossy fault on each ship edge in turn, bounded retries absorb the drops
// and both backends reproduce the fault-free rows byte for byte — while
// the traffic accounting shows the reattempted transmissions.
TEST_F(FaultInjectionTest, PerEdgeDropsRecoverOnEveryTpchQuery) {
  SharedTpch& shared = Shared();
  std::vector<int> queries = tpch::QueryNumbers();
  for (int q : tpch::ExtendedQueryNumbers()) queries.push_back(q);
  ASSERT_GE(queries.size(), 12u);

  RetryPolicy retry;
  retry.max_retries = 25;  // p=0.3: 26 consecutive drops is impossible here
  retry.fault_seed = 20260807;

  int64_t total_retries = 0;
  for (int qnum : queries) {
    auto q = OptimizeTpch(shared, qnum, "CR");
    ASSERT_TRUE(q.ok()) << "Q" << qnum << ": " << q.status();

    Executor clean_exec(shared.store.get(), shared.net.get());
    auto clean = clean_exec.Execute(*q);
    ASSERT_TRUE(clean.ok()) << clean.status();
    const std::vector<std::string> expected = ExactRows(*clean);

    for (auto [from, to] : CrossSiteEdges(clean->metrics)) {
      SCOPED_TRACE(testing::Message()
                   << "Q" << qnum << " edge l" << from << "->l" << to);
      LinkFault fault;
      fault.drop_probability = 0.3;
      shared.net->SetLinkFault(from, to, fault);

      ExecutorOptions row_opts;
      row_opts.retry = retry;
      Executor row_exec(shared.store.get(), shared.net.get(), row_opts);
      auto row = row_exec.Execute(*q);
      ASSERT_TRUE(row.ok()) << row.status();
      EXPECT_EQ(ExactRows(*row), expected);
      // Reattempts are real traffic: the faulted run never ships less
      // than the clean one, and every drop shows in the counters.
      EXPECT_GE(row->metrics.rows_shipped, clean->metrics.rows_shipped);
      EXPECT_GE(row->metrics.bytes_shipped, clean->metrics.bytes_shipped);
      EXPECT_EQ(row->metrics.send_retries, row->metrics.dropped_batches);
      if (row->metrics.dropped_batches > 0) {
        EXPECT_GT(row->metrics.bytes_shipped, clean->metrics.bytes_shipped);
      }
      total_retries += row->metrics.send_retries;

      Executor frag_exec(shared.store.get(), shared.net.get(),
                         FragmentOptions(7, 4, retry));
      auto frag = frag_exec.Execute(*q);
      ASSERT_TRUE(frag.ok()) << frag.status();
      EXPECT_EQ(ExactRows(*frag), expected);
      EXPECT_GE(frag->metrics.rows_shipped, clean->metrics.rows_shipped);
      total_retries += frag->metrics.send_retries;

      shared.net->ClearLinkFaults();
    }
  }
  // The sweep exercised actual recovery, not just healthy edges.
  EXPECT_GT(total_retries, 0);
}

// A hard link failure cannot be retried away: both backends abort with
// the typed transient-failure status and return no partial result.
TEST_F(FaultInjectionTest, DownLinkAbortsBothBackendsTyped) {
  SharedTpch& shared = Shared();
  auto q = OptimizeTpch(shared, 5, "CR");
  ASSERT_TRUE(q.ok()) << q.status();

  Executor clean_exec(shared.store.get(), shared.net.get());
  auto clean = clean_exec.Execute(*q);
  ASSERT_TRUE(clean.ok()) << clean.status();
  auto edges = CrossSiteEdges(clean->metrics);
  ASSERT_FALSE(edges.empty());

  LinkFault fault;
  fault.down = true;
  shared.net->SetLinkFault(edges[0].first, edges[0].second, fault);

  Executor row_exec(shared.store.get(), shared.net.get());
  auto row = row_exec.Execute(*q);
  ASSERT_FALSE(row.ok());
  EXPECT_TRUE(row.status().IsUnavailable()) << row.status();

  for (int threads : {1, 4}) {
    Executor frag_exec(shared.store.get(), shared.net.get(),
                       FragmentOptions(7, threads, RetryPolicy()));
    auto frag = frag_exec.Execute(*q);
    ASSERT_FALSE(frag.ok()) << "threads=" << threads;
    EXPECT_TRUE(frag.status().IsUnavailable()) << frag.status();
  }
}

// The fragment.start failpoint kills a source fragment on its first
// attempt; the executor restarts it at the same site and the query
// completes with the fault-free result.
TEST_F(FaultInjectionTest, FragmentStartFailureRestartsAndRecovers) {
  SharedTpch& shared = Shared();
  auto q = OptimizeTpch(shared, 3, "CR");
  ASSERT_TRUE(q.ok()) << q.status();

  Executor clean_exec(shared.store.get(), shared.net.get(),
                      FragmentOptions(7, 1, RetryPolicy()));
  auto clean = clean_exec.Execute(*q);
  ASSERT_TRUE(clean.ok()) << clean.status();

  Failpoints::ArmOnce("fragment.start");
  auto faulted = clean_exec.Execute(*q);
  Failpoints::DisarmAll();
  ASSERT_TRUE(faulted.ok()) << faulted.status();

  EXPECT_EQ(ExactRows(*faulted), ExactRows(*clean));
  EXPECT_EQ(faulted->metrics.fragment_restarts, 1);
  // Recovery never re-places: every fragment re-ran at its assigned site.
  ASSERT_EQ(faulted->metrics.fragments.size(),
            clean->metrics.fragments.size());
  for (size_t i = 0; i < clean->metrics.fragments.size(); ++i) {
    EXPECT_EQ(faulted->metrics.fragments[i].site,
              clean->metrics.fragments[i].site);
  }
}

// When the fragment keeps dying, bounded restarts run out and the query
// aborts with kUnavailable — a typed failure, not a hang or wrong answer.
TEST_F(FaultInjectionTest, PersistentFragmentFailureAbortsTyped) {
  SharedTpch& shared = Shared();
  auto q = OptimizeTpch(shared, 3, "CR");
  ASSERT_TRUE(q.ok()) << q.status();

  RetryPolicy retry;
  retry.max_retries = 2;
  Failpoints::ArmEveryN("fragment.start", 1);  // every attempt dies
  Executor exec(shared.store.get(), shared.net.get(),
                FragmentOptions(7, 1, retry));
  auto r = exec.Execute(*q);
  Failpoints::DisarmAll();

  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status();
}

// The channel.send failpoint loses exactly one batch on the wire; the
// send-level retry redelivers it and the reattempt shows in the stats.
TEST_F(FaultInjectionTest, ChannelSendFailpointIsRetried) {
  SharedTpch& shared = Shared();
  auto q = OptimizeTpch(shared, 3, "CR");
  ASSERT_TRUE(q.ok()) << q.status();

  Executor exec(shared.store.get(), shared.net.get(),
                FragmentOptions(7, 1, RetryPolicy()));
  auto clean = exec.Execute(*q);
  ASSERT_TRUE(clean.ok()) << clean.status();

  Failpoints::ArmOnce("channel.send");
  auto faulted = exec.Execute(*q);
  Failpoints::DisarmAll();
  ASSERT_TRUE(faulted.ok()) << faulted.status();

  EXPECT_EQ(ExactRows(*faulted), ExactRows(*clean));
  EXPECT_EQ(faulted->metrics.send_retries, 1);
  EXPECT_EQ(faulted->metrics.dropped_batches, 1);
  EXPECT_GE(faulted->metrics.rows_shipped, clean->metrics.rows_shipped);
  EXPECT_GT(faulted->metrics.backoff_ms, 0.0);
}

// The channel.recv failpoint simulates one timed-out receive; the bounded
// recv retry re-waits and the run completes untouched.
TEST_F(FaultInjectionTest, ChannelRecvFailpointIsRetried) {
  SharedTpch& shared = Shared();
  auto q = OptimizeTpch(shared, 3, "CR");
  ASSERT_TRUE(q.ok()) << q.status();

  Executor exec(shared.store.get(), shared.net.get(),
                FragmentOptions(7, 1, RetryPolicy()));
  auto clean = exec.Execute(*q);
  ASSERT_TRUE(clean.ok()) << clean.status();

  Failpoints::ArmOnce("channel.recv");
  auto faulted = exec.Execute(*q);
  Failpoints::DisarmAll();
  ASSERT_TRUE(faulted.ok()) << faulted.status();

  EXPECT_EQ(ExactRows(*faulted), ExactRows(*clean));
  EXPECT_EQ(faulted->metrics.recv_timeouts, 1);
}

// Seeded randomized soak: ~200 executions across fault profile x batch
// size x thread count x seed. Every run either reproduces the fault-free
// rows byte for byte or aborts with kUnavailable, and repeating a
// configuration repeats its outcome exactly (the fault schedule is a pure
// function of the seed).
TEST_F(FaultInjectionTest, SeededSoakIsDeterministic) {
  SharedTpch& shared = Shared();

  struct Profile {
    double drop;
    double latency_ms;
    int max_retries;
  };
  // "mild" always recovers; "harsh" (p=0.55, 2 retries) aborts some runs.
  const std::vector<Profile> profiles = {{0.15, 3.0, 25}, {0.55, 0.0, 2}};

  int runs = 0;
  int aborted = 0;
  for (int qnum : {3, 5}) {
    auto q = OptimizeTpch(shared, qnum, "CR");
    ASSERT_TRUE(q.ok()) << q.status();
    Executor clean_exec(shared.store.get(), shared.net.get());
    auto clean = clean_exec.Execute(*q);
    ASSERT_TRUE(clean.ok()) << clean.status();
    const std::vector<std::string> expected = ExactRows(*clean);

    for (const Profile& p : profiles) {
      shared.net->ApplyLossyProfile(p.drop, p.latency_ms);
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        for (int batch : {1, 7, 1024}) {
          for (int threads : {1, 4}) {
            SCOPED_TRACE(testing::Message()
                         << "Q" << qnum << " drop=" << std::to_string(p.drop)
                         << " seed=" << seed << " batch=" << batch
                         << " threads=" << threads);
            RetryPolicy retry;
            retry.max_retries = p.max_retries;
            retry.fault_seed = seed;
            Executor exec(shared.store.get(), shared.net.get(),
                          FragmentOptions(batch, threads, retry));
            auto first = exec.Execute(*q);
            auto second = exec.Execute(*q);
            runs += 2;

            ASSERT_EQ(first.ok(), second.ok());
            if (first.ok()) {
              EXPECT_EQ(ExactRows(*first), expected);
              EXPECT_EQ(ExactRows(*second), expected);
              // Healthy-outcome accounting is seed-deterministic too.
              EXPECT_EQ(first->metrics.send_retries,
                        second->metrics.send_retries);
              EXPECT_EQ(first->metrics.dropped_batches,
                        second->metrics.dropped_batches);
              EXPECT_EQ(first->metrics.bytes_shipped,
                        second->metrics.bytes_shipped);
            } else {
              EXPECT_TRUE(first.status().IsUnavailable())
                  << first.status();
              EXPECT_TRUE(second.status().IsUnavailable())
                  << second.status();
              ++aborted;
            }
          }
        }
      }
      shared.net->ClearLinkFaults();
    }
  }
  EXPECT_EQ(runs, 192);
  // The harsh profile produced real aborts; the mild one never did (its
  // retry budget cannot be exhausted at p=0.15).
  EXPECT_GT(aborted, 0);
}

// With faults installed but retries sufficient, the engine-level surface
// (Run + footer metrics) reports recovery without changing the answer.
TEST_F(FaultInjectionTest, EngineLevelFaultsSurfaceInMetrics) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  Engine engine(*tpch::BuildCatalog(config), NetworkModel::DefaultGeo(5));
  ASSERT_TRUE(tpch::InstallPolicySet("CR", &engine.policies()).ok());
  ASSERT_TRUE(
      tpch::GenerateData(engine.catalog(), config, &engine.store()).ok());

  const std::string sql = *tpch::Query(3);
  auto clean = engine.Run(sql);
  ASSERT_TRUE(clean.ok()) << clean.status();

  RetryPolicy retry;
  retry.max_retries = 25;
  retry.fault_seed = 7;
  engine.set_retry_policy(retry);
  engine.set_exec_mode(ExecMode::kFragment);
  engine.mutable_net().ApplyLossyProfile(/*drop_probability=*/0.3,
                                         /*extra_latency_ms=*/5.0);
  auto faulted = engine.Run(sql);
  ASSERT_TRUE(faulted.ok()) << faulted.status();

  EXPECT_EQ(ExactRows(*faulted), ExactRows(*clean));
  EXPECT_GT(faulted->metrics.send_retries, 0);
  std::string footer =
      FormatExecMetrics(faulted->metrics, &engine.catalog().locations());
  EXPECT_NE(footer.find("recovery:"), std::string::npos);
  EXPECT_NE(footer.find("send retr"), std::string::npos);

  engine.mutable_net().ClearLinkFaults();
  auto healthy = engine.Run(sql);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(healthy->metrics.send_retries, 0);
}

}  // namespace
}  // namespace cgq
