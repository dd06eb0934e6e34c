#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/trace.h"
#include "core/engine.h"
#include "net/network_model.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

#ifndef CGQ_TRACING

TEST(GoldenTrace, SkippedWithoutTracing) {
  GTEST_SKIP() << "built with CGQ_TRACING=OFF";
}

#else  // CGQ_TRACING

// Golden span-tree tests: every TPC-H workload query, traced end to end
// under both backends, must produce the documented span tree, reconcile
// its ship spans exactly with ExecMetrics, and serialize byte-identically
// across same-seed runs.

Engine& SharedEngine() {
  static Engine* engine = [] {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    auto catalog = tpch::BuildCatalog(config);
    CGQ_CHECK(catalog.ok());
    auto* e = new Engine(std::move(*catalog), NetworkModel::DefaultGeo(5));
    CGQ_CHECK(tpch::InstallUnrestrictedPolicies(&e->policies()).ok());
    CGQ_CHECK(tpch::GenerateData(e->catalog(), config, &e->store()).ok());
    e->set_tracing(true);
    e->set_threads(4);
    e->default_exec_options().threads = 4;
    return e;
  }();
  return *engine;
}

const CanonicalSpan* FindPath(const std::vector<CanonicalSpan>& spans,
                              const std::string& path) {
  for (const CanonicalSpan& s : spans) {
    if (s.path == path) return &s;
  }
  return nullptr;
}

size_t CountName(const std::vector<CanonicalSpan>& spans,
                 const std::string& name) {
  size_t n = 0;
  for (const CanonicalSpan& s : spans) n += s.name == name;
  return n;
}

// Args are stored pre-rendered as JSON ("42", "1.5"); parse them back so
// reconciliation against ExecMetrics is exact (%.17g round-trips).
int64_t IntArg(const CanonicalSpan& span, const std::string& key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return std::strtoll(v.c_str(), nullptr, 10);
  }
  ADD_FAILURE() << "span " << span.path << " lacks int arg " << key;
  return -1;
}

double DoubleArg(const CanonicalSpan& span, const std::string& key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return std::strtod(v.c_str(), nullptr);
  }
  ADD_FAILURE() << "span " << span.path << " lacks double arg " << key;
  return -1;
}

// (query number, exec mode) sweep over the whole TPC-H workload.
class GoldenTrace
    : public ::testing::TestWithParam<std::tuple<int, ExecMode>> {
 protected:
  // Runs the query traced and returns the result. One warm-up run first
  // so the process-wide implication cache is in steady state and repeat
  // dumps can be compared byte for byte.
  QueryResult RunTraced(int q, ExecMode mode) {
    Engine& engine = SharedEngine();
    engine.set_exec_mode(mode);
    std::string sql = *tpch::Query(q);
    CGQ_CHECK(engine.Run(sql).ok());
    auto result = engine.Run(sql);
    CGQ_CHECK(result.ok());
    return *result;
  }
};

TEST_P(GoldenTrace, SpanTreeHasTheDocumentedShape) {
  const auto& [q, mode] = GetParam();
  (void)RunTraced(q, mode);
  const TraceSession* trace = SharedEngine().last_trace();
  ASSERT_NE(trace, nullptr);
  std::vector<CanonicalSpan> spans = trace->CanonicalSpans();

  for (const char* path :
       {"query", "query/parse", "query/optimize", "query/optimize/bind",
        "query/optimize/explore", "query/optimize/annotate",
        "query/optimize/annotate/rule.AR1",
        "query/optimize/annotate/rule.AR2",
        "query/optimize/annotate/rule.AR3",
        "query/optimize/annotate/rule.AR4",
        "query/optimize/site_select", "query/optimize/compliance_check",
        "query/execute"}) {
    EXPECT_NE(FindPath(spans, path), nullptr) << "missing span " << path;
  }

  // Policy evaluation happens only inside annotation (the AR rules) or
  // the independent Definition-1 compliance checker, never elsewhere.
  for (const CanonicalSpan& s : spans) {
    if (s.name == "policy_eval") {
      bool under_annotate =
          s.path.rfind("query/optimize/annotate/", 0) == 0;
      bool under_check =
          s.path.rfind("query/optimize/compliance_check/", 0) == 0;
      EXPECT_TRUE(under_annotate || under_check) << s.path;
    }
  }

  const CanonicalSpan* root = FindPath(spans, "query");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->ts, 0);
  EXPECT_GE(trace->span_count(), 20u);

  // >= 95% of the root's (virtual) time is attributed to its children:
  // under tick renumbering a parent covers exactly its subtree, so the
  // direct children account for all but the root's own tick.
  int64_t child_dur = 0;
  for (const CanonicalSpan& s : spans) {
    if (s.depth == 1) child_dur += s.dur;
  }
  EXPECT_GE(static_cast<double>(child_dur),
            0.95 * static_cast<double>(root->dur));
}

TEST_P(GoldenTrace, ShipSpansReconcileExactlyWithExecMetrics) {
  const auto& [q, mode] = GetParam();
  QueryResult result = RunTraced(q, mode);
  std::vector<CanonicalSpan> spans =
      SharedEngine().last_trace()->CanonicalSpans();

  // One "ship" span per SHIP edge, each reconciling field by field.
  using EdgeKey = std::tuple<int64_t, int64_t, int64_t, int64_t, double,
                             double, int64_t>;
  std::vector<EdgeKey> traced;
  int64_t traced_rows = 0;
  double traced_bytes = 0;
  for (const CanonicalSpan& s : spans) {
    if (s.name != "ship") continue;
    traced.push_back({IntArg(s, "from"), IntArg(s, "to"),
                      IntArg(s, "batches"), IntArg(s, "rows"),
                      DoubleArg(s, "bytes"), DoubleArg(s, "network_ms"),
                      IntArg(s, "send_retries")});
    traced_rows += IntArg(s, "rows");
    traced_bytes += DoubleArg(s, "bytes");
  }
  std::vector<EdgeKey> expected;
  for (const ChannelStats& e : result.metrics.edges) {
    expected.push_back({e.from, e.to, e.batches, e.rows, e.bytes,
                        e.network_ms, e.send_retries});
  }
  std::sort(traced.begin(), traced.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(traced, expected);
  EXPECT_EQ(static_cast<int64_t>(traced.size()), result.metrics.ships);
  EXPECT_EQ(traced_rows, result.metrics.rows_shipped);
  EXPECT_EQ(traced_bytes, result.metrics.bytes_shipped);  // bit-exact

  if (mode == ExecMode::kFragment) {
    // Fragment spans are ordinal-ordered: span i describes fragment i.
    std::vector<const CanonicalSpan*> frags;
    for (const CanonicalSpan& s : spans) {
      if (s.name == "fragment") frags.push_back(&s);
    }
    ASSERT_EQ(frags.size(), result.metrics.fragments.size());
    for (size_t i = 0; i < frags.size(); ++i) {
      const FragmentMetrics& fm = result.metrics.fragments[i];
      EXPECT_EQ(frags[i]->ordinal, fm.id);
      EXPECT_EQ(IntArg(*frags[i], "site"),
                static_cast<int64_t>(fm.site));
      EXPECT_EQ(IntArg(*frags[i], "rows_out"), fm.rows_out);
      EXPECT_EQ(IntArg(*frags[i], "rows_scanned"), fm.rows_scanned);
      EXPECT_EQ(IntArg(*frags[i], "restarts"), fm.restarts);
    }
  } else {
    EXPECT_EQ(CountName(spans, "fragment"), 0u);
  }
}

TEST_P(GoldenTrace, RepeatRunsSerializeByteIdentically) {
  const auto& [q, mode] = GetParam();
  (void)RunTraced(q, mode);
  std::string first = SharedEngine().DumpTrace();
  (void)RunTraced(q, mode);
  std::string second = SharedEngine().DumpTrace();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"name\":\"query\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Workload, GoldenTrace,
    ::testing::Combine(::testing::ValuesIn(tpch::QueryNumbers()),
                       ::testing::Values(ExecMode::kRow,
                                         ExecMode::kFragment)),
    [](const ::testing::TestParamInfo<GoldenTrace::ParamType>& info) {
      const std::string q = std::to_string(std::get<0>(info.param));
      return "Q" + q + "_" + ExecModeToString(std::get<1>(info.param));
    });

#endif  // CGQ_TRACING

}  // namespace
}  // namespace cgq
