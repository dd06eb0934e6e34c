// adhoc_compile: distinct generated queries under 10k fine-grained
// policies, through a 2-worker QueryService, 2 closed-loop clients.
//
// Nearly every query misses the plan cache, so parse, bind, explore,
// annotation (policy evaluation) and site selection do the work; the
// data is tiny, so exec, storage and net are nearly idle. Every eighth
// query requires its result at l1, which drives the rejection path.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/compliance_checker.h"
#include "core/engine.h"
#include "core/policy_evaluator.h"
#include "layers.h"
#include "loop.h"
#include "service/query_service.h"
#include "tpch/tpch.h"
#include "workload/policy_generator.h"
#include "workload/query_generator.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 0.0002;
constexpr size_t kPolicies = 10000;
constexpr size_t kLocationsPerExpr = 3;
constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kPinnedEvery = 8;
constexpr cgq::LocationId kPinnedSite = 0;  // l1
constexpr size_t kSamplePerClient = 24;
/// Per-client rate the checked sample is spread over: sample k sits near
/// query k * seconds * kSampleClientQps / kSamplePerClient of each stream,
/// so the checks cover the whole window. Set a little below the about
/// 450 queries/s per client a shared 4-core x86 virtual machine sustains
/// once the plan cache is full; on a slower machine the last samples go
/// unchecked.
constexpr double kSampleClientQps = 400;
constexpr int kWarmupQueries = 64;
/// Untimed queries per client before the window, so the window starts
/// with the plan cache full and evicting: about 7 000 plans fill its
/// 64 MiB budget, and queries are about a fifth cheaper before that.
/// A multiple of kPinnedEvery.
constexpr int64_t kWindowWarmup = 4096;
/// Bound on the untimed warm-up's duration.
constexpr double kWindowWarmupMaxSeconds = 60;
/// Queries of client 0 per interval of the window (about half a second).
constexpr int64_t kBlock = 256;
/// Upper bound on queries one client completes per second; sizes the
/// pre-generated stream so no query repeats within a run.
constexpr double kMaxClientQps = 2500;

cgq::PolicyGeneratorConfig PolicyConfig(uint64_t seed) {
  cgq::PolicyGeneratorConfig p;
  p.template_name = "F";
  p.count = kPolicies;
  p.seed = 11 + seed;
  p.locations_per_expr = kLocationsPerExpr;
  return p;
}

struct Fixture {
  cgq::WorkloadProperties props = cgq::TpchWorkloadProperties();
  std::unique_ptr<cgq::Engine> engine;
  std::unique_ptr<cgq::QueryService> service;
};

std::unique_ptr<Fixture> Setup(uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  cgq::tpch::TpchConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = seed;
  auto catalog = cgq::tpch::BuildCatalog(config);
  Require(catalog.status(), "BuildCatalog");
  f->engine = std::make_unique<cgq::Engine>(std::move(*catalog),
                                            cgq::NetworkModel::DefaultGeo(5));
  Require(f->engine->set_policy_index_mode(
              cgq::PolicyIndexMode::kHierarchical),
          "policy index mode");
  cgq::PolicyExpressionGenerator pgen(&f->engine->catalog(), &f->props,
                                      PolicyConfig(seed));
  Require(pgen.InstallInto(&f->engine->policies()), "install policies");
  Require(cgq::tpch::GenerateData(f->engine->catalog(), config,
                                  &f->engine->store()),
          "GenerateData");
  f->engine->default_exec_options().mode = cgq::ExecMode::kFragment;
  f->engine->default_exec_options().threads = 1;

  cgq::ServiceOptions so;
  so.max_inflight = kWorkers;
  so.queue_timeout_ms = 0;
  f->service = std::make_unique<cgq::QueryService>(f->engine.get(), so);

  cgq::QueryGeneratorConfig qc;
  qc.seed = seed * 7919 + 3;
  cgq::AdhocQueryGenerator warm(&f->engine->catalog(), &f->props, qc);
  cgq::QueryService::Session session = f->service->OpenSession();
  for (int i = 0; i < kWarmupQueries; ++i) {
    auto r = session.Run(warm.Next());
    if (!r.ok() && !r.status().IsNonCompliant()) {
      Require(r.status(), "warm-up query");
    }
  }
  return f;
}

bool SameCost(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

}  // namespace

Tally RunAdhocCompile(const RunConfig& cfg, MetricSink* out) {
  PrintParams("adhoc_compile",
              {{"scale_factor", Fmt(kScaleFactor)},
               {"policies", std::to_string(kPolicies)},
               {"policy_template", "F"},
               {"policy_index", "hierarchical"},
               {"locations_per_expr", std::to_string(kLocationsPerExpr)},
               {"clients", std::to_string(kClients)},
               {"service_workers", std::to_string(kWorkers)},
               {"loop", "closed"},
               {"pinned_result_every", std::to_string(kPinnedEvery)},
               {"pinned_result_site", "l1"},
               {"exec_mode", "fragment"},
               {"decision_sample", std::to_string(kClients * kSamplePerClient)},
               {"decision_sample_spread_qps", Fmt(kSampleClientQps)},
               {"window_warmup_per_client", std::to_string(kWindowWarmup)},
               {"interval_block", std::to_string(kBlock)},
               {"setup_repeats", "3..25, until 2 s"}});

  std::unique_ptr<Fixture> f;
  const double setup_s = MedianSetupSeconds(cfg.trace, [&](int) {
    f.reset();
    f = Setup(cfg.seed);
  });
  cgq::Engine& engine = *f->engine;

  // The fixed sample: kSamplePerClient positions spread over the window,
  // a multiple of kPinnedEvery apart and offset by k % kPinnedEvery, so
  // every kPinnedEvery-th sample is a pinned query.
  const size_t stride =
      kPinnedEvery *
      std::max<size_t>(1, static_cast<size_t>(cfg.seconds * kSampleClientQps /
                                              kSamplePerClient /
                                              kPinnedEvery));
  std::map<size_t, size_t> sample_at;  // stream position -> sample index
  for (size_t k = 0; k < kSamplePerClient; ++k) {
    sample_at[static_cast<size_t>(kWindowWarmup) + k * stride +
              k % kPinnedEvery] = k;
  }

  // Query streams: distinct generated queries, one generator per client;
  // the warm-up runs the first kWindowWarmup of each.
  const size_t per_client =
      std::max(static_cast<size_t>(kWindowWarmup +
                                   cfg.seconds * kMaxClientQps),
               sample_at.rbegin()->first + 1);
  std::vector<std::vector<std::string>> streams(kClients);
  for (int c = 0; c < kClients; ++c) {
    cgq::QueryGeneratorConfig qc;
    qc.seed = cfg.seed * 1000003 + static_cast<uint64_t>(c);
    cgq::AdhocQueryGenerator gen(&engine.catalog(), &f->props, qc);
    for (size_t i = 0; i < per_client; ++i) streams[c].push_back(gen.Next());
  }

  std::vector<cgq::QueryService::Session> normal, pinned;
  for (int c = 0; c < kClients; ++c) {
    normal.push_back(f->service->OpenSession());
    pinned.push_back(f->service->OpenSession());
    pinned.back().optimizer_options().required_result =
        cgq::LocationSet::Single(kPinnedSite);
  }
  auto is_pinned = [](int64_t i) { return i % kPinnedEvery == kPinnedEvery - 1; };

  // Reference for the sample: the decision of a flat-index,
  // implication-cache-off optimizer, the row backend's digest and ship
  // accounting, and a Definition-1 check of the plan the system's
  // optimizer emits.
  Tally gate;
  cgq::PolicyCatalog flat(&engine.catalog(), cgq::PolicyIndexMode::kFlat);
  {
    cgq::PolicyExpressionGenerator pgen(&engine.catalog(), &f->props,
                                        PolicyConfig(cfg.seed));
    Require(pgen.InstallInto(&flat), "install oracle policies");
  }
  std::vector<std::vector<Expected>> expected(
      kClients, std::vector<Expected>(kSamplePerClient));
  for (int c = 0; c < kClients; ++c) {
    for (const auto& [i, k] : sample_at) {
      const std::string& sql = streams[c][i];
      cgq::OptimizerOptions opts =
          (is_pinned(static_cast<int64_t>(i)) ? pinned : normal)[c]
              .optimizer_options();
      cgq::OptimizerOptions oracle_opts = opts;
      oracle_opts.implication_cache = false;
      oracle_opts.threads = 1;
      cgq::QueryOptimizer oracle(&engine.catalog(), &flat, &engine.net(),
                                 oracle_opts);
      auto want = oracle.Optimize(sql);
      auto got = engine.Optimize(sql, opts);
      ++gate.attempted;
      Expected e;
      e.accept = want.ok();
      if (want.ok() != got.ok() ||
          (!want.ok() && !want.status().IsNonCompliant())) {
        gate.Fail("decision differs from the flat oracle: " + sql);
      } else if (got.ok()) {
        if (got->result_location != want->result_location ||
            !SameCost(got->comm_cost_ms, want->comm_cost_ms)) {
          gate.Fail("site/cost differs from the flat oracle: " + sql);
        }
        cgq::PolicyEvaluator evaluator(&engine.catalog(), &engine.policies());
        if (!cgq::CheckCompliance(*got->plan, evaluator,
                                  engine.catalog().locations())
                 .compliant) {
          gate.Fail("accepted plan fails CheckCompliance: " + sql);
        }
        cgq::ExecutorOptions row;
        row.mode = cgq::ExecMode::kRow;
        auto ref =
            cgq::Executor(&engine.store(), &engine.net(), row).Execute(*got);
        Require(ref.status(), "row reference");
        e.digest = ResultDigest(*ref) ^ (cfg.corrupt_reference ? 1 : 0);
        e.ships = ShipAccountOf(ref->metrics);
      }
      expected[c][k] = e;
    }
  }

  LoopHooks stream_hooks;  // the i-th query of client c's stream
  stream_hooks.next = [&](int c, int64_t i) {
    Job job;
    const auto& stream = streams[c];
    job.sql = &stream[static_cast<size_t>(i) % stream.size()];
    job.session = &(is_pinned(i) ? pinned : normal)[c];
    auto sample = sample_at.find(static_cast<size_t>(i));
    if (sample != sample_at.end()) {
      job.expected = &expected[c][sample->second];
    }
    job.klass = QueryClass(*job.sql) + (is_pinned(i) ? "-pinned" : "");
    return job;
  };

  Tally tally;
  tally.Merge(gate);
  LoopHooks warmup = stream_hooks;
  warmup.limit = kWindowWarmup;
  tally.Merge(RunClosedLoop(kClients, kWindowWarmupMaxSeconds, warmup,
                            nullptr, nullptr, nullptr)
                  .tally);
  LoopHooks hooks = stream_hooks;
  hooks.block = kBlock;
  hooks.next = [&](int c, int64_t i) {
    return stream_hooks.next(c, i + kWindowWarmup);
  };
  if (!cfg.trace) {
    LoopStats s = RunClosedLoop(kClients, cfg.seconds, hooks, nullptr,
                                nullptr, nullptr);
    tally.Merge(s.tally);
    EmitLoopMetrics(s, out);
    out->Set("setup_s", setup_s, "s");
    out->Set("info.cache_evictions",
             static_cast<double>(f->service->plan_cache()->stats().evictions),
             "count");
    return tally;
  }

  // Traced run: an untraced window, then a traced one on fresh queries.
  const double untraced_s = cfg.seconds * 0.4;
  LoopStats base = RunClosedLoop(kClients, untraced_s, hooks, nullptr,
                                 nullptr, nullptr);
  tally.Merge(base.tally);
  const int64_t offset = base.iterations;  // continue each stream
  LoopHooks traced = hooks;
  traced.next = [&](int c, int64_t i) { return hooks.next(c, i + offset); };
  Tracer tracer;
  LayerProbe probe(&tracer);
  probe.StartWindow(f->service->plan_cache()->stats());
  LoopStats s = RunClosedLoop(kClients, cfg.seconds - untraced_s, traced,
                              &engine.catalog(), &tracer, &probe);
  probe.EndWindow(f->service->plan_cache()->stats());
  tally.Merge(s.tally);
  const double overhead =
      Mean(s.latencies_ms()) / std::max(1e-9, Mean(base.latencies_ms())) - 1;
  probe.Emit(overhead, s.iterations, out);
  tracer.WriteChromeJson(cfg.work_dir + "/trace-adhoc_compile.json");
  return tally;
}

}  // namespace perfbench
