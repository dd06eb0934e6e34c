#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/query_service.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

std::vector<std::string> RenderedRows(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  return out;
}

// Busy for far longer than any admission window in this file (a ~36M-pair
// nested loop), yet stops at the next cancellation point when asked.
constexpr const char* kSlowSql =
    "SELECT COUNT(*) AS pairs FROM lineitem l, orders o "
    "WHERE l.orderkey < o.orderkey";

constexpr const char* kCheapSql =
    "SELECT count(*) AS n FROM nation WHERE regionkey = 1";

void PollUntilInflight(QueryService& service, int64_t n) {
  while (service.stats().inflight < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TenantServiceStats StatsFor(QueryService& service, const std::string& name) {
  for (const TenantServiceStats& t : service.tenant_stats()) {
    if (t.name == name) return t;
  }
  ADD_FAILURE() << "no tenant named " << name;
  return {};
}

class TenantIsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.scale_factor = 0.002;
    auto catalog = tpch::BuildCatalog(config_);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    engine_ = std::make_unique<Engine>(std::move(*catalog),
                                       NetworkModel::DefaultGeo(5));
    ASSERT_TRUE(
        tpch::InstallUnrestrictedPolicies(&engine_->policies()).ok());
    ASSERT_TRUE(
        tpch::GenerateData(engine_->catalog(), config_, &engine_->store())
            .ok());
  }

  tpch::TpchConfig config_;
  std::unique_ptr<Engine> engine_;
};

// Unknown tokens are refused with kPermissionDenied (not kNotFound: a
// caller must not learn whether its guess was close), known tokens open a
// session scoped to their tenant, and the empty token stays reserved.
TEST_F(TenantIsolationTest, TokenAuthenticationScopesSessions) {
  QueryService service(engine_.get());
  ASSERT_TRUE(service.tenants().Register("acme", "tok-acme").ok());

  auto bad = service.OpenSession("no-such-token");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsPermissionDenied()) << bad.status();

  auto good = service.OpenSession("tok-acme");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->tenant_name(), "acme");
  EXPECT_NE(good->tenant_id(), kDefaultTenantId);

  EXPECT_EQ(service.OpenSession().tenant_id(), kDefaultTenantId);
  auto dup = service.tenants().Register("other", "tok-acme");
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  auto empty = service.tenants().Register("other", "");
  EXPECT_TRUE(empty.status().IsInvalidArgument());
}

// A tenant that exhausts its queue quota is rejected with
// kResourceExhausted while other tenants' submissions keep being
// admitted and completed.
TEST_F(TenantIsolationTest, QuotaExhaustedTenantDoesNotBlockOthers) {
  ServiceOptions opts;
  opts.max_inflight = 2;
  opts.queue_capacity = 64;
  opts.queue_timeout_ms = 0;
  QueryService service(engine_.get(), opts);

  TenantQuotas capped;
  capped.max_queued = 2;
  ASSERT_TRUE(service.tenants().Register("capped", "tok-c", capped).ok());
  ASSERT_TRUE(service.tenants().Register("free", "tok-f").ok());
  auto capped_s = service.OpenSession("tok-c");
  auto free_s = service.OpenSession("tok-f");
  ASSERT_TRUE(capped_s.ok());
  ASSERT_TRUE(free_s.ok());

  // Occupy both workers so submissions stay queued.
  auto blocker = service.OpenSession();
  auto b1 = blocker.Submit(kSlowSql);
  auto b2 = blocker.Submit(kSlowSql);
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  PollUntilInflight(service, 2);

  auto q1 = capped_s->Submit(kCheapSql);
  auto q2 = capped_s->Submit(kCheapSql);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  auto q3 = capped_s->Submit(kCheapSql);  // over max_queued = 2
  ASSERT_FALSE(q3.ok());
  EXPECT_TRUE(q3.status().IsResourceExhausted()) << q3.status();
  EXPECT_NE(q3.status().message().find("capped"), std::string::npos)
      << "rejection must name the tenant quota, got: " << q3.status();

  // The other tenant is untouched by its neighbor's full queue.
  auto f1 = free_s->Submit(kCheapSql);
  ASSERT_TRUE(f1.ok()) << f1.status();

  // Unblock the workers; everything admitted completes.
  ASSERT_TRUE(blocker.Cancel(*b1).ok());
  ASSERT_TRUE(blocker.Cancel(*b2).ok());
  (void)blocker.Wait(*b1);
  (void)blocker.Wait(*b2);
  EXPECT_TRUE(capped_s->Wait(*q1).ok());
  EXPECT_TRUE(capped_s->Wait(*q2).ok());
  EXPECT_TRUE(free_s->Wait(*f1).ok());

  TenantServiceStats cs = StatsFor(service, "capped");
  EXPECT_EQ(cs.rejected, 1);
  EXPECT_EQ(cs.completed, 2);
  EXPECT_EQ(StatsFor(service, "free").rejected, 0);
  EXPECT_EQ(StatsFor(service, "free").completed, 1);
}

// An inflight-capped tenant never holds more than its cap of the workers,
// even when it is the only one with queued work — the remaining workers
// stay available to others.
TEST_F(TenantIsolationTest, InflightCapLimitsConcurrency) {
  ServiceOptions opts;
  opts.max_inflight = 3;
  opts.queue_timeout_ms = 0;
  QueryService service(engine_.get(), opts);
  TenantQuotas one;
  one.max_inflight = 1;
  ASSERT_TRUE(service.tenants().Register("narrow", "tok-n", one).ok());
  auto narrow = service.OpenSession("tok-n");
  ASSERT_TRUE(narrow.ok());

  std::vector<QueryService::TicketId> slow;
  for (int i = 0; i < 3; ++i) {
    auto t = narrow->Submit(kSlowSql);
    ASSERT_TRUE(t.ok());
    slow.push_back(*t);
  }
  PollUntilInflight(service, 1);
  // Give the scheduler every chance to (wrongly) dispatch more.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(service.stats().inflight, 1);
  EXPECT_EQ(StatsFor(service, "narrow").inflight, 1);

  // A free worker picks up another tenant's query immediately.
  auto other = service.OpenSession();
  auto t = other.Submit(kCheapSql);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(other.Wait(*t).ok());

  for (QueryService::TicketId id : slow) {
    ASSERT_TRUE(narrow->Cancel(id).ok());
    (void)narrow->Wait(id);
  }
}

// Weighted-fair scheduling is starvation-free under a 100:1 hot/cold
// load mix: a cold tenant's single query runs long before the hot
// tenant's backlog drains, instead of queueing behind all of it as the
// old global FIFO would.
TEST_F(TenantIsolationTest, ColdTenantIsNotStarvedByHotBacklog) {
  ServiceOptions opts;
  opts.max_inflight = 1;  // one worker makes dispatch order observable
  opts.queue_capacity = 256;
  opts.queue_timeout_ms = 0;
  QueryService service(engine_.get(), opts);
  ASSERT_TRUE(service.tenants().Register("hot", "tok-h").ok());
  ASSERT_TRUE(service.tenants().Register("cold", "tok-c").ok());
  auto hot = service.OpenSession("tok-h");
  auto cold = service.OpenSession("tok-c");
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(cold.ok());

  // Hold the worker so the backlog forms while nothing dispatches.
  auto blocker = service.OpenSession();
  auto b = blocker.Submit(kSlowSql);
  ASSERT_TRUE(b.ok());
  PollUntilInflight(service, 1);

  std::vector<QueryService::TicketId> hot_tickets;
  for (int i = 0; i < 100; ++i) {
    auto t = hot->Submit(kCheapSql);
    ASSERT_TRUE(t.ok()) << t.status();
    hot_tickets.push_back(*t);
  }
  auto cold_ticket = cold->Submit(kCheapSql);
  ASSERT_TRUE(cold_ticket.ok());
  // Right behind the cheap query, a cold blocker: stride order dispatches
  // it within a few hot queries of the cheap one, and while it holds the
  // single worker the hot tenant's counters are frozen, so the read below
  // cannot race with the rest of the hot backlog draining.
  auto cold_blocker = cold->Submit(kSlowSql);
  ASSERT_TRUE(cold_blocker.ok());

  ASSERT_TRUE(blocker.Cancel(*b).ok());
  (void)blocker.Wait(*b);

  ASSERT_TRUE(cold->Wait(*cold_ticket).ok());
  while (StatsFor(service, "cold").scheduled < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Equal weights: the scheduler interleaves the two tenants, so when
  // the cold query finished, the hot backlog was still nearly intact. A
  // FIFO would have completed all 100 hot queries first.
  TenantServiceStats hs = StatsFor(service, "hot");
  EXPECT_LT(hs.completed, 50)
      << "cold tenant waited behind the hot backlog";

  ASSERT_TRUE(cold->Cancel(*cold_blocker).ok());
  (void)cold->Wait(*cold_blocker);
  for (QueryService::TicketId id : hot_tickets) {
    EXPECT_TRUE(hot->Wait(id).ok());
  }
  EXPECT_EQ(StatsFor(service, "hot").completed, 100);
  EXPECT_EQ(StatsFor(service, "cold").completed, 1);
}

// Weights set the capacity ratio: with one worker and a 4:1 weight
// split, the heavy tenant gets ~4 dispatches per light dispatch while
// both have work queued.
TEST_F(TenantIsolationTest, WeightsShapeTheDispatchRatio) {
  ServiceOptions opts;
  opts.max_inflight = 1;
  opts.queue_capacity = 256;
  opts.queue_timeout_ms = 0;
  QueryService service(engine_.get(), opts);
  TenantQuotas heavy_q;
  heavy_q.weight = 4;
  ASSERT_TRUE(service.tenants().Register("heavy", "tok-h", heavy_q).ok());
  ASSERT_TRUE(service.tenants().Register("light", "tok-l").ok());
  auto heavy = service.OpenSession("tok-h");
  auto light = service.OpenSession("tok-l");
  ASSERT_TRUE(heavy.ok());
  ASSERT_TRUE(light.ok());

  auto blocker = service.OpenSession();
  auto b = blocker.Submit(kSlowSql);
  ASSERT_TRUE(b.ok());
  PollUntilInflight(service, 1);

  // Heavy's 40th query is the slow one: per-tenant FIFO means it is
  // dispatched exactly when heavy's backlog is otherwise drained, and
  // while it occupies the single worker the light tenant's counters are
  // frozen — the measurement below cannot race with further dispatches.
  std::vector<QueryService::TicketId> heavy_t, light_t;
  for (int i = 0; i < 39; ++i) {
    auto t = heavy->Submit(kCheapSql);
    ASSERT_TRUE(t.ok());
    heavy_t.push_back(*t);
  }
  auto heavy_slow = heavy->Submit(kSlowSql);
  ASSERT_TRUE(heavy_slow.ok());
  for (int i = 0; i < 40; ++i) {
    auto t = light->Submit(kCheapSql);
    ASSERT_TRUE(t.ok());
    light_t.push_back(*t);
  }
  ASSERT_TRUE(blocker.Cancel(*b).ok());
  (void)blocker.Wait(*b);

  // Wait until heavy's last (slow) query holds the worker, then read:
  // the light tenant should have seen about 10 of the ~50 dispatches so
  // far (40 / weight 4), certainly nowhere near its full 40.
  while (StatsFor(service, "heavy").scheduled < 40) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  TenantServiceStats ls = StatsFor(service, "light");
  EXPECT_GE(ls.scheduled, 5) << "light tenant was starved";
  EXPECT_LE(ls.scheduled, 25)
      << "weights had no effect (FIFO-like interleaving)";

  ASSERT_TRUE(heavy->Cancel(*heavy_slow).ok());
  (void)heavy->Wait(*heavy_slow);
  for (QueryService::TicketId id : heavy_t) {
    ASSERT_TRUE(heavy->Wait(id).ok());
  }
  for (QueryService::TicketId id : light_t) {
    EXPECT_TRUE(light->Wait(id).ok());
  }
}

// Per-tenant concurrent traffic returns exactly the rows a sequential
// run of the same queries produces, on both the row and the columnar
// fragment backend — admission control must never change results.
TEST_F(TenantIsolationTest, ConcurrentMatchesSequentialPerTenant) {
  const std::vector<std::string> sqls = {
      "SELECT count(*) AS n FROM nation WHERE regionkey = 1",
      "SELECT name FROM customer WHERE custkey < 20",
      "SELECT count(*) AS n, sum(totalprice) AS s FROM orders "
      "WHERE custkey < 100",
      "SELECT name FROM supplier WHERE nationkey IN (1, 7, 13)",
  };
  for (ExecMode mode : {ExecMode::kRow, ExecMode::kFragment}) {
    SCOPED_TRACE(ExecModeToString(mode));
    engine_->set_exec_mode(mode);
    std::vector<std::vector<std::string>> baseline;
    for (const std::string& sql : sqls) {
      auto r = engine_->Run(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status();
      baseline.push_back(RenderedRows(*r));
    }

    ServiceOptions opts;
    opts.max_inflight = 4;
    opts.queue_capacity = 256;
    QueryService service(engine_.get(), opts);
    ASSERT_TRUE(service.tenants().Register("a", "tok-a").ok());
    ASSERT_TRUE(service.tenants().Register("b", "tok-b").ok());

    constexpr int kRounds = 5;
    std::vector<std::thread> clients;
    std::vector<Status> failures(2, Status::OK());
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back([&, c] {
        auto session =
            service.OpenSession(c == 0 ? "tok-a" : "tok-b");
        if (!session.ok()) {
          failures[c] = session.status();
          return;
        }
        for (int round = 0; round < kRounds; ++round) {
          for (size_t i = 0; i < sqls.size(); ++i) {
            auto r = session->Run(sqls[i]);
            if (!r.ok()) {
              failures[c] = r.status();
              return;
            }
            if (RenderedRows(*r) != baseline[i]) {
              failures[c] = Status::Internal(
                  "result mismatch on " + sqls[i]);
              return;
            }
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (const Status& s : failures) EXPECT_TRUE(s.ok()) << s;

    const int per_tenant = kRounds * static_cast<int>(sqls.size());
    EXPECT_EQ(StatsFor(service, "a").completed, per_tenant);
    EXPECT_EQ(StatsFor(service, "b").completed, per_tenant);
  }
}

}  // namespace
}  // namespace cgq
