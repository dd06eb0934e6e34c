#include "common/trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "net/network_model.h"
#include "service/plan_cache.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

// Metrics are process-wide state: every test starts from zero (cells stay
// registered, so call-site caches remain valid across tests).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::ResetForTest(); }
  void TearDown() override { MetricsRegistry::ResetForTest(); }
};

std::map<std::string, int64_t> SnapshotMap() {
  std::map<std::string, int64_t> m;
  for (const auto& [name, value] : MetricsRegistry::Snapshot()) {
    m[name] = value;
  }
  return m;
}

// Nonzero entries of `after - before`.
std::map<std::string, int64_t> Delta(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after) {
  std::map<std::string, int64_t> d;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    int64_t prev = it == before.end() ? 0 : it->second;
    if (value != prev) d[name] = value - prev;
  }
  return d;
}

// --- MetricsRegistry --------------------------------------------------------

TEST_F(TraceTest, CountersAccumulateAndSnapshotSorts) {
  MetricsRegistry::Counter* c = MetricsRegistry::GetCounter("ztest.c");
  MetricsRegistry::GetCounter("atest.c")->Add(7);
  c->Add(3);
  c->Add(39);
  EXPECT_EQ(MetricsRegistry::Value("ztest.c"), 42);
  EXPECT_EQ(MetricsRegistry::Value("atest.c"), 7);
  EXPECT_EQ(MetricsRegistry::Value("never.registered"), 0);
  // Same name, same cell.
  EXPECT_EQ(MetricsRegistry::GetCounter("ztest.c"), c);

  auto snap = MetricsRegistry::Snapshot();
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first);
  }
}

TEST_F(TraceTest, GaugesHoldLastValue) {
  MetricsRegistry::Gauge* g = MetricsRegistry::GetGauge("test.gauge");
  g->Set(5);
  g->Set(2);
  EXPECT_EQ(MetricsRegistry::Value("test.gauge"), 2);
}

TEST_F(TraceTest, ResetZeroesButKeepsCellsRegistered) {
  MetricsRegistry::Counter* c = MetricsRegistry::GetCounter("test.reset");
  c->Add(9);
  MetricsRegistry::ResetForTest();
  EXPECT_EQ(c->Get(), 0);
  // The cached pointer stays usable — the failpoint-style contract that
  // lets call sites cache cells in function-local statics.
  c->Add(4);
  EXPECT_EQ(MetricsRegistry::Value("test.reset"), 4);
}

// --- TraceSession core ------------------------------------------------------

TEST_F(TraceTest, CanonicalSpansFormPreorderTree) {
  TraceSession s("q");
  int64_t root = s.BeginSpan("query", -1, -1, 0);
  int64_t opt = s.BeginSpan("optimize", root, -1, 0);
  s.AddSpanArg(opt, "memo_groups", static_cast<int64_t>(12));
  s.EndSpan(opt);
  int64_t exec = s.BeginSpan("execute", root, -1, 0);
  s.EndSpan(exec);
  s.EndSpan(root);

  std::vector<CanonicalSpan> spans = s.CanonicalSpans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].path, "query");
  EXPECT_EQ(spans[1].path, "query/optimize");
  EXPECT_EQ(spans[2].path, "query/execute");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].depth, 1);

  // Deterministic ticks: the root exactly covers its subtree, children
  // partition the interior.
  EXPECT_EQ(spans[0].ts, 0);
  EXPECT_EQ(spans[0].dur, 3);
  EXPECT_EQ(spans[1].ts, 1);
  EXPECT_EQ(spans[1].dur, 1);
  EXPECT_EQ(spans[2].ts, 2);
  EXPECT_EQ(spans[2].dur, 1);

  ASSERT_EQ(spans[1].args.size(), 1u);
  EXPECT_EQ(spans[1].args[0].first, "memo_groups");
  EXPECT_EQ(spans[1].args[0].second, "12");
}

TEST_F(TraceTest, SiblingsOrderByOrdinalNotCreationOrder) {
  TraceSession s("q");
  int64_t root = s.BeginSpan("root", -1, -1, 0);
  // Created in reverse of their ordinals, as racing workers might.
  s.EndSpan(s.BeginSpan("fragment", root, 2, 3));
  s.EndSpan(s.BeginSpan("fragment", root, 0, 1));
  s.EndSpan(s.BeginSpan("fragment", root, 1, 2));
  s.EndSpan(root);

  std::vector<CanonicalSpan> spans = s.CanonicalSpans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].ordinal, 0);
  EXPECT_EQ(spans[2].ordinal, 1);
  EXPECT_EQ(spans[3].ordinal, 2);
  EXPECT_EQ(spans[1].track, 1);
}

TEST_F(TraceTest, OpenSpansAreClosedAtDump) {
  TraceSession s("q");
  int64_t root = s.BeginSpan("root", -1, -1, 0);
  (void)s.BeginSpan("child", root, -1, 0);  // never ended
  std::vector<CanonicalSpan> spans = s.CanonicalSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_GE(spans[0].dur, 1);
  EXPECT_GE(spans[1].dur, 1);
}

TEST_F(TraceTest, ChromeJsonHasMetadataAndCompleteEvents) {
  TraceSession s("SELECT 1");
  int64_t root = s.BeginSpan("query", -1, -1, 0);
  s.AddSpanArg(root, "label", std::string("a\"b\\c\nd"));
  s.AddSpanArg(root, "bytes", 1547656.0);
  s.EndSpan(root);

  std::string json = s.ToChromeJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  // Strings are escaped; doubles rendered to full precision (%.17g) so
  // traced bytes reconcile bit-for-bit with ExecMetrics.
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":1547656"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

#ifdef CGQ_TRACING

// --- RAII spans and thread context (compiled-in tracing only) ---------------

TEST_F(TraceTest, SpanWithoutContextRecordsNothing) {
  ASSERT_EQ(TraceSession::Current(), nullptr);
  TraceSpan span("orphan");
  EXPECT_FALSE(span.active());
  span.AddArg("k", static_cast<int64_t>(1));
  span.End();
}

TEST_F(TraceTest, ScopedContextInstallsAndRestores) {
  TraceSession s("q");
  {
    ScopedTraceContext ctx(&s);
    EXPECT_EQ(TraceSession::Current(), &s);
    EXPECT_EQ(TraceSession::CurrentSpanId(), -1);
    {
      TraceSpan outer("outer");
      EXPECT_TRUE(outer.active());
      EXPECT_EQ(TraceSession::CurrentSpanId(), outer.id());
      TraceSpan inner("inner");
      EXPECT_EQ(TraceSession::CurrentSpanId(), inner.id());
    }
    EXPECT_EQ(TraceSession::CurrentSpanId(), -1);
  }
  EXPECT_EQ(TraceSession::Current(), nullptr);

  std::vector<CanonicalSpan> spans = s.CanonicalSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].path, "outer/inner");
}

// A parent span on the driver thread, children on pool workers: workers
// re-install the context with an explicit ordinal and track, so the
// canonical tree is identical at every pool width.
std::string TracedFanOut(size_t width) {
  TraceSession s("fanout");
  ThreadPool pool(4);
  {
    ScopedTraceContext ctx(&s);
    TraceSpan parent("parallel_region");
    TraceSession* trace = TraceSession::Current();
    int64_t parent_id = TraceSession::CurrentSpanId();
    pool.ParallelFor(8, width, [&](size_t i) {
      ScopedTraceContext worker_ctx(trace, parent_id,
                                    static_cast<int>(i) + 1);
      TraceSpan item("item", static_cast<int>(i));
      item.AddArg("index", static_cast<int64_t>(i));
    });
  }
  return s.ToChromeJson();
}

TEST_F(TraceTest, SpanNestingIsByteStableAcrossPoolWidths) {
  std::string sequential = TracedFanOut(1);
  std::string parallel_a = TracedFanOut(4);
  std::string parallel_b = TracedFanOut(4);
  EXPECT_EQ(parallel_a, parallel_b);
  EXPECT_EQ(sequential, parallel_a);
  EXPECT_NE(parallel_a.find("\"name\":\"item\""), std::string::npos);
}

TEST_F(TraceTest, CounterMacroIsLiveWhenCompiledIn) {
  CGQ_COUNTER_ADD("trace_test.on_witness", 5);
  CGQ_COUNTER_ADD("trace_test.on_witness", 2);
  EXPECT_EQ(MetricsRegistry::Value("trace_test.on_witness"), 7);
  CGQ_GAUGE_SET("trace_test.on_gauge", 9);
  EXPECT_EQ(MetricsRegistry::Value("trace_test.on_gauge"), 9);
}

#else  // !CGQ_TRACING

// --- Zero-overhead witness (CGQ_TRACING=OFF build) --------------------------

// With tracing compiled out the macros expand to nothing: the metric is
// never registered, let alone bumped, and the RAII types are empty shells.
TEST_F(TraceTest, MacrosCompileOutCompletely) {
  CGQ_COUNTER_ADD("trace_test.off_witness", 5);
  CGQ_GAUGE_SET("trace_test.off_gauge", 9);
  EXPECT_EQ(MetricsRegistry::Value("trace_test.off_witness"), 0);
  for (const auto& [name, value] : MetricsRegistry::Snapshot()) {
    EXPECT_NE(name, "trace_test.off_witness");
    EXPECT_NE(name, "trace_test.off_gauge");
  }

  TraceSession s("q");
  {
    ScopedTraceContext ctx(&s);
    TraceSpan span("never_recorded");
    span.AddArg("k", static_cast<int64_t>(1));
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(s.span_count(), 0u);
  EXPECT_EQ(TraceSession::Current(), nullptr);
}

#endif  // CGQ_TRACING

// --- Trace file export --------------------------------------------------------

// A dump small enough to sit in stdio's buffer first fails when close
// flushes it; on a full device that is a truncated trace, not OK.
TEST_F(TraceTest, DumpTraceToFileReportsAFailedClose) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  Engine engine(Catalog(), NetworkModel::DefaultGeo(1));
  Status full = engine.DumpTraceToFile("/dev/full");
  EXPECT_TRUE(full.IsInternal()) << full;

  const std::string path =
      (std::filesystem::temp_directory_path() / "cgq-trace-dump.json")
          .string();
  EXPECT_TRUE(engine.DumpTraceToFile(path).ok());
  std::filesystem::remove(path);
}

// --- Seeded determinism soak ------------------------------------------------

std::unique_ptr<Engine> MakeTpchEngine(bool lossy) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::BuildCatalog(config);
  CGQ_CHECK(catalog.ok());
  auto engine = std::make_unique<Engine>(std::move(*catalog),
                                         NetworkModel::DefaultGeo(5));
  CGQ_CHECK(tpch::InstallUnrestrictedPolicies(&engine->policies()).ok());
  CGQ_CHECK(
      tpch::GenerateData(engine->catalog(), config, &engine->store()).ok());
  if (lossy) {
    engine->mutable_net().ApplyLossyProfile(/*drop_probability=*/0.05,
                                            /*extra_latency_ms=*/2.0);
  }
  engine->set_tracing(true);
  return engine;
}

// 192 measured runs: {Q3, Q10} x {healthy, lossy} x batch {1, 7, 1024} x
// {1, 4} threads x 4 fault seeds, each config executed twice. Within a
// config the two runs must agree on every process-wide counter delta and
// produce byte-identical trace dumps. One unmeasured warm-up run per
// config first, so the process-wide implication cache reaches steady
// state before deltas are compared.
TEST_F(TraceTest, CounterDeltasAndTracesDeterministicUnderSoak) {
  const int kQueries[] = {3, 10};
  const int kBatchSizes[] = {1, 7, 1024};
  const int kThreads[] = {1, 4};
  const uint64_t kSeeds[] = {11, 12, 13, 14};

  int measured_runs = 0;
  for (bool lossy : {false, true}) {
    std::unique_ptr<Engine> engine = MakeTpchEngine(lossy);
    engine->set_exec_mode(ExecMode::kFragment);
    for (int q : kQueries) {
      const std::string sql = *tpch::Query(q);
      for (int batch : kBatchSizes) {
        for (int threads : kThreads) {
          for (uint64_t seed : kSeeds) {
            engine->default_exec_options().batch_size = batch;
            engine->default_exec_options().threads = threads;
            engine->set_threads(threads);
            if (lossy) {
              engine->default_exec_options().retry.max_retries = 8;
              engine->default_exec_options().retry.fault_seed = seed;
            }
            SCOPED_TRACE("q=" + std::to_string(q) +
                         " lossy=" + std::to_string(lossy) +
                         " batch=" + std::to_string(batch) +
                         " threads=" + std::to_string(threads) +
                         " seed=" + std::to_string(seed));

            ASSERT_TRUE(engine->Run(sql).ok());  // warm-up

            auto before1 = SnapshotMap();
            ASSERT_TRUE(engine->Run(sql).ok());
            auto delta1 = Delta(before1, SnapshotMap());
            std::string trace1 = engine->DumpTrace();

            auto before2 = SnapshotMap();
            ASSERT_TRUE(engine->Run(sql).ok());
            auto delta2 = Delta(before2, SnapshotMap());
            std::string trace2 = engine->DumpTrace();

            EXPECT_EQ(delta1, delta2);
            EXPECT_EQ(trace1, trace2);
            measured_runs += 2;
          }
        }
      }
    }
  }
  EXPECT_EQ(measured_runs, 192);
}

#ifdef CGQ_TRACING

// The last trace's spans named `name`, in canonical order.
std::vector<CanonicalSpan> SpansNamed(const Engine& engine,
                                      const std::string& name) {
  std::vector<CanonicalSpan> out;
  for (CanonicalSpan& s : engine.last_trace()->CanonicalSpans()) {
    if (s.name == name) out.push_back(std::move(s));
  }
  return out;
}

std::string ArgOf(const CanonicalSpan& span, const std::string& key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return "<missing>";
}

// A compliant miss records its plan under exactly one `plan_cache_insert`
// span beside the lookup, carrying the dependency and eviction counts; a
// hit and a rejected query insert nothing.
TEST_F(TraceTest, PlanCacheInsertSpanOnlyOnCompliantMiss) {
  std::unique_ptr<Engine> engine = MakeTpchEngine(/*lossy=*/false);
  PlanCacheOptions options;
  options.shards = 1;
  options.max_bytes = 1;  // every admitted insert evicts the previous entry
  PlanCache cache(options);
  engine->set_plan_cache(&cache);
  const std::string q3 = *tpch::Query(3);

  ASSERT_TRUE(engine->Run(q3).ok());
  std::vector<CanonicalSpan> inserts = SpansNamed(*engine, "plan_cache_insert");
  ASSERT_EQ(inserts.size(), 1u);
  EXPECT_EQ(inserts[0].path, "query/plan_cache_insert");
  // Q3 scans customer, orders and lineitem, one fragment each.
  EXPECT_EQ(ArgOf(inserts[0], "admitted"), "1");
  EXPECT_EQ(ArgOf(inserts[0], "dependencies"), "3");
  EXPECT_EQ(ArgOf(inserts[0], "evicted"), "0");

  // The shard is full: Q10's first miss is refused, nothing is evicted.
  ASSERT_TRUE(engine->Run(*tpch::Query(10)).ok());
  inserts = SpansNamed(*engine, "plan_cache_insert");
  ASSERT_EQ(inserts.size(), 1u);
  EXPECT_EQ(ArgOf(inserts[0], "admitted"), "0");
  EXPECT_EQ(ArgOf(inserts[0], "evicted"), "0");

  // Its second miss is admitted and evicts Q3.
  ASSERT_TRUE(engine->Run(*tpch::Query(10)).ok());
  inserts = SpansNamed(*engine, "plan_cache_insert");
  ASSERT_EQ(inserts.size(), 1u);
  EXPECT_EQ(ArgOf(inserts[0], "admitted"), "1");
  EXPECT_EQ(ArgOf(inserts[0], "evicted"), "1");

  ASSERT_TRUE(engine->Run(*tpch::Query(10)).ok());
  std::vector<CanonicalSpan> lookups = SpansNamed(*engine, "plan_cache_lookup");
  ASSERT_EQ(lookups.size(), 1u);
  EXPECT_EQ(ArgOf(lookups[0], "hit"), "1");
  EXPECT_TRUE(SpansNamed(*engine, "plan_cache_insert").empty());

  // No policy at all: Q3 must ship and is rejected, so nothing is cached.
  engine->policies().Clear();
  Result<QueryResult> rejected = engine->Run(q3);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsNonCompliant()) << rejected.status();
  EXPECT_EQ(SpansNamed(*engine, "plan_cache_lookup").size(), 1u);
  EXPECT_TRUE(SpansNamed(*engine, "plan_cache_insert").empty());
}

// A disk scan records one `block_read` span per block it reads, with
// the block's bytes and rows; a memory scan reads no block and records
// none.
TEST_F(TraceTest, BlockReadSpanPerDiskBlock) {
  std::unique_ptr<Engine> engine = MakeTpchEngine(/*lossy=*/false);
  engine->set_exec_mode(ExecMode::kFragment);
  const std::string q6 = *tpch::Query(6);
  Result<QueryResult> memory = engine->Run(q6);
  ASSERT_TRUE(memory.ok()) << memory.status();
  EXPECT_EQ(memory->metrics.storage_blocks_read, 0);
  EXPECT_TRUE(SpansNamed(*engine, "block_read").empty());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "cgq-trace-block-read")
          .string();
  std::filesystem::remove_all(dir);
  storage::StorageOptions options;
  options.block_target_bytes = 8 * 1024;  // several blocks per fragment
  ASSERT_TRUE(engine->EnableDiskStorage(dir, options).ok());
  Result<QueryResult> disk = engine->Run(q6);
  ASSERT_TRUE(disk.ok()) << disk.status();
  const int64_t blocks = disk->metrics.storage_blocks_read;
  ASSERT_GT(blocks, 1);
  std::vector<CanonicalSpan> reads = SpansNamed(*engine, "block_read");
  EXPECT_EQ(static_cast<int64_t>(reads.size()), blocks);
  // Q6's lineitem scans sit under Filter -> Project, which read 4 of
  // lineitem's 14 columns: only those are decoded.
  for (const CanonicalSpan& span : reads) {
    EXPECT_GT(std::stoll(ArgOf(span, "bytes")), 0) << span.path;
    EXPECT_GT(std::stoll(ArgOf(span, "rows")), 0) << span.path;
    EXPECT_EQ(ArgOf(span, "columns"), "4") << span.path;
  }
  ASSERT_TRUE(engine->DisableDiskStorage().ok());
  std::filesystem::remove_all(dir);
}

#endif  // CGQ_TRACING

}  // namespace
}  // namespace cgq
