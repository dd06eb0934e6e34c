// Socket-fault recovery of the distributed backend: connection refusal,
// crash-before-ack, partial frame writes, recv timeouts and mid-stream
// resets must be absorbed by the bounded per-fragment restart machinery
// — reproducing the fault-free rows byte for byte and surfacing every
// reattempt in the recovery counters — while hard-down links abort with
// the typed kUnavailable status. The servers are in-process loopback
// threads; the failpoint names keep coordinator-side ("net.client.*")
// and server-side ("sited.*") faults distinct because the registry is
// process-wide.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "exec/executor.h"
#include "net/cluster_client.h"
#include "net/network_model.h"
#include "net/server.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

// TPC-H data generated once, deployed once onto three loopback servers
// partitioning the five locations as {0,1} / {2,3} / {4}.
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

Result<OptimizedQuery> OptimizeTpch(const SharedCluster& shared, int qnum,
                                    const char* policy_set) {
  PolicyCatalog policies(shared.catalog.get());
  CGQ_RETURN_NOT_OK(tpch::InstallPolicySet(policy_set, &policies));
  QueryOptimizer optimizer(shared.catalog.get(), &policies,
                           shared.net.get(), OptimizerOptions());
  CGQ_ASSIGN_OR_RETURN(std::string sql, tpch::Query(qnum));
  return optimizer.Optimize(sql);
}

ExecutorOptions DistributedOptions(SharedCluster& shared,
                                   const RetryPolicy& retry) {
  ExecutorOptions o;
  o.mode = ExecMode::kDistributed;
  o.threads = 1;
  o.retry = retry;
  o.cluster = &shared.cluster;
  return o;
}

// Failpoints are process-global; leave no site armed behind.
class DistributedFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::DisarmAll();
    Shared().net->ClearLinkFaults();
  }
  void TearDown() override {
    Failpoints::DisarmAll();
    Shared().net->ClearLinkFaults();
  }

  // Optimizes Q3/CR and runs it fault-free over loopback, caching the
  // expected rows each recovery test must reproduce exactly.
  void PrepareCleanRun() {
    SharedCluster& shared = Shared();
    auto q = OptimizeTpch(shared, 3, "CR");
    ASSERT_TRUE(q.ok()) << q.status();
    query_ = std::make_unique<OptimizedQuery>(std::move(*q));
    Executor exec(shared.store.get(), shared.net.get(),
                  DistributedOptions(shared, RetryPolicy()));
    auto clean = exec.Execute(*query_);
    ASSERT_TRUE(clean.ok()) << clean.status();
    expected_ = ExactRows(*clean);
    clean_restarts_ = clean->metrics.fragment_restarts;
    EXPECT_EQ(clean_restarts_, 0);
  }

  // Arms `site` once, reruns the prepared query, and requires byte-exact
  // recovery with exactly one fragment restart on the counters.
  void ExpectOneRestartRecovery(const char* site) {
    SharedCluster& shared = Shared();
    Failpoints::ArmOnce(site);
    Executor exec(shared.store.get(), shared.net.get(),
                  DistributedOptions(shared, RetryPolicy()));
    auto r = exec.Execute(*query_);
    Failpoints::DisarmAll();
    ASSERT_TRUE(r.ok()) << site << ": " << r.status();
    EXPECT_EQ(ExactRows(*r), expected_) << site;
    EXPECT_EQ(r->metrics.fragment_restarts, 1) << site;
  }

  std::unique_ptr<OptimizedQuery> query_;
  std::vector<std::string> expected_;
  int64_t clean_restarts_ = 0;
};

// The coordinator's dial is refused once; the fresh-connection-per-
// attempt design maps that onto one fragment restart.
TEST_F(DistributedFaultTest, ConnectionRefusedOnceRecovers) {
  PrepareCleanRun();
  ExpectOneRestartRecovery("net.client.connect");
}

// The server "dies" after receiving StartFragment but before the ack:
// the coordinator sees the connection drop and restarts the attempt.
TEST_F(DistributedFaultTest, CrashBeforeAckRecovers) {
  PrepareCleanRun();
  ExpectOneRestartRecovery("sited.crash_before_ack");
}

// Half a frame reaches the wire before the connection breaks; the
// server never sees a complete frame and the attempt is replayed on a
// fresh connection.
TEST_F(DistributedFaultTest, PartialFrameWriteRecovers) {
  PrepareCleanRun();
  ExpectOneRestartRecovery("net.client.partial_write");
}

// A receive that times out is indistinguishable from a dead server:
// same typed kUnavailable, same restart, same bytes.
TEST_F(DistributedFaultTest, RecvTimeoutRecovers) {
  PrepareCleanRun();
  ExpectOneRestartRecovery("net.client.recv");
}

// The connection resets inside the output stream, after StartAck: the
// restart replays the fragment's output from scratch (BeginReplay /
// result truncation), still byte-identical.
TEST_F(DistributedFaultTest, MidStreamResetRecovers) {
  PrepareCleanRun();
  ExpectOneRestartRecovery("net.client.recv.stream");
}

// The server refuses the TCP accept once (the listener hiccups); the
// coordinator's handshake on that dial fails and the attempt restarts.
TEST_F(DistributedFaultTest, AcceptFailureRecovers) {
  PrepareCleanRun();
  ExpectOneRestartRecovery("sited.accept");
}

// The output stream of an interior fragment (one with input channels,
// so not restartable) resets while its relay threads still have input
// batches to send. The coordinator shuts the connection down, joins the
// relays and only then closes the socket, so no relay writes to a
// closed (or reused) descriptor: the query ends with the typed
// kUnavailable, without a hang.
TEST_F(DistributedFaultTest, InteriorMidStreamResetEndsTyped) {
  SharedCluster& shared = Shared();
  PolicyCatalog policies(shared.catalog.get());
  ASSERT_TRUE(tpch::InstallPolicySet("CR", &policies).ok());
  QueryOptimizer optimizer(shared.catalog.get(), &policies,
                           shared.net.get(), OptimizerOptions());
  // One result row: the top fragment receives one output batch and then
  // kOutputEnd, so its first stream evaluation is the next-to-last one
  // of the whole (sequential) run.
  auto q = optimizer.Optimize(
      "SELECT SUM(l.extendedprice) FROM orders o, lineitem l "
      "WHERE o.orderkey = l.orderkey");
  ASSERT_TRUE(q.ok()) << q.status();
  RetryPolicy retry;
  ExecutorOptions options = DistributedOptions(shared, retry);
  options.batch_size = 8;  // many input batches for the relays

  const char* site = "net.client.recv.stream";
  Failpoints::ArmEveryN(site, std::numeric_limits<int64_t>::max());
  Executor probe(shared.store.get(), shared.net.get(), options);
  ASSERT_TRUE(probe.Execute(*q).ok());
  const int64_t evaluations = Failpoints::Evaluations(site);
  ASSERT_GE(evaluations, 4);

  Failpoints::ArmEveryN(site, evaluations - 1);
  Executor exec(shared.store.get(), shared.net.get(), options);
  auto r = exec.Execute(*q);
  EXPECT_EQ(Failpoints::Fires(site), 1);
  Failpoints::DisarmAll();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status();
  EXPECT_NE(r.status().message().find("mid-stream"), std::string::npos)
      << r.status();
}

// A host that refuses every dial cannot be retried away: bounded
// restarts run out and the query aborts with the typed kUnavailable —
// no hang, no partial result.
TEST_F(DistributedFaultTest, HardDownHostAbortsTyped) {
  PrepareCleanRun();
  SharedCluster& shared = Shared();
  RetryPolicy retry;
  retry.max_retries = 2;
  Failpoints::ArmEveryN("net.client.connect", 1);  // every dial refused
  Executor exec(shared.store.get(), shared.net.get(),
                DistributedOptions(shared, retry));
  auto r = exec.Execute(*query_);
  Failpoints::DisarmAll();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status();
  EXPECT_NE(r.status().message().find("injected failure"),
            std::string::npos)
      << r.status();
}

// Modeled link faults live in the coordinator-side ShipChannels, which
// the distributed backend shares with the in-process runtimes: under
// the same lossy link and the same deterministic fault seed, recovery
// counters and (reattempt-inclusive) traffic accounting agree exactly
// with ExecMode::kFragment, and the rows stay byte-identical.
TEST_F(DistributedFaultTest, LossyLinkCountersMatchInProcessBackend) {
  PrepareCleanRun();
  SharedCluster& shared = Shared();

  // Fault the first cross-site edge of the clean plan.
  Executor probe(shared.store.get(), shared.net.get(),
                 DistributedOptions(shared, RetryPolicy()));
  auto clean = probe.Execute(*query_);
  ASSERT_TRUE(clean.ok()) << clean.status();
  LocationId from = 0, to = 0;
  bool found = false;
  for (const ChannelStats& e : clean->metrics.edges) {
    if (e.from != e.to) {
      from = e.from;
      to = e.to;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "Q3/CR has no cross-site edge";

  RetryPolicy retry;
  retry.max_retries = 25;
  retry.fault_seed = 20260807;
  LinkFault fault;
  fault.drop_probability = 0.3;
  shared.net->SetLinkFault(from, to, fault);

  // Both backends run the shared fragment scheduler, so the parity holds
  // under the sequential and the pipelined schedule alike.
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecutorOptions fopt;
    fopt.mode = ExecMode::kFragment;
    fopt.threads = threads;
    fopt.retry = retry;
    Executor frag(shared.store.get(), shared.net.get(), fopt);
    auto a = frag.Execute(*query_);
    ASSERT_TRUE(a.ok()) << a.status();

    ExecutorOptions dopt = DistributedOptions(shared, retry);
    dopt.threads = threads;
    Executor dist(shared.store.get(), shared.net.get(), dopt);
    auto b = dist.Execute(*query_);
    ASSERT_TRUE(b.ok()) << b.status();

    EXPECT_EQ(ExactRows(*a), expected_);
    EXPECT_EQ(ExactRows(*b), expected_);
    EXPECT_GT(a->metrics.send_retries, 0);
    EXPECT_EQ(b->metrics.send_retries, a->metrics.send_retries);
    EXPECT_EQ(b->metrics.dropped_batches, a->metrics.dropped_batches);
    EXPECT_EQ(b->metrics.rows_shipped, a->metrics.rows_shipped);
    EXPECT_EQ(b->metrics.bytes_shipped, a->metrics.bytes_shipped);
  }
  shared.net->ClearLinkFaults();
}

}  // namespace
}  // namespace cgq
