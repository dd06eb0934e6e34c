// Micro benchmarks of the core components: the implication test, policy
// evaluation (Algorithm 1), end-to-end optimization of selected queries,
// and cross-backend execution of the multi-site TPC-H workload.
//
// The execution section runs every query under the selected backends
// (--exec-mode=row|fragment|distributed|both) and reports each backend's
// speedup over the row interpreter, plus the ship metrics and a result
// digest so CI can assert that all backends agree byte-for-byte. The
// per-backend geomean speedups land in one micro_exec_summary row per
// backend (the fragment one feeds the CI perf-regression gate, see
// BENCH_micro.json).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/trace.h"
#include "core/engine.h"
#include "net/cluster_client.h"
#include "net/server.h"
#include "core/optimizer.h"
#include "core/policy_evaluator.h"
#include "exec/executor.h"
#include "expr/implication.h"
#include "net/network_model.h"
#include "plan/binder.h"
#include "plan/builder.h"
#include "plan/summary.h"
#include "service/plan_cache.h"
#include "service/query_service.h"
#include "sql/parser.h"
#include "storage/storage_engine.h"
#include "tpch/tpch.h"

using namespace cgq;  // NOLINT

namespace {

ExecMode ModeFromName(const std::string& mode) {
  if (mode == "row") return ExecMode::kRow;
  if (mode == "distributed") return ExecMode::kDistributed;
  return ExecMode::kFragment;
}

// FNV-1a over the full-precision serialization of the result rows, order
// included: equal digests mean byte-identical results.
uint64_t ResultDigest(const QueryResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
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

void OptimizerMicro(const bench::BenchOptions& opts,
                    bench::JsonReport* report) {
  tpch::TpchConfig config;
  config.scale_factor = 10;  // stats only; no data generated
  auto catalog = tpch::BuildCatalog(config);
  CGQ_CHECK(catalog.ok());
  PolicyCatalog policies(&*catalog);
  CGQ_CHECK(tpch::InstallPolicySet("CRA", &policies).ok());
  NetworkModel net = NetworkModel::DefaultGeo(5);

  bench::PrintHeader("Optimizer micro benchmarks (mean over " +
                     std::to_string(opts.reps) + " reps)");

  auto record = [&](const std::string& name, const bench::TimingStats& t) {
    std::printf("%-28s %10.3f ms  (+/- %.3f)\n", name.c_str(), t.mean_ms,
                t.stderr_ms);
    bench::JsonRow row;
    row.Set("bench", "micro_optimizer")
        .Set("name", name)
        .Set("mean_ms", t.mean_ms)
        .Set("stderr_ms", t.stderr_ms);
    report->Add(row);
  };

  {
    auto q = ParseQuery(
        "SELECT a FROM t WHERE size > 41 AND mkt = 'BUILDING' AND "
        "price BETWEEN 10 AND 20");
    auto e = ParseQuery(
        "SELECT a FROM t WHERE size > 40 OR ctype LIKE '%COPPER%'");
    std::vector<ExprPtr> premise = SplitConjuncts(q->where);
    std::vector<ExprPtr> conclusion = SplitConjuncts(e->where);
    record("implication_test",
           bench::TimeRepeated(
               [&] {
                 for (int i = 0; i < 1000; ++i) {
                   (void)PredicateImplies(premise, conclusion);
                 }
               },
               opts.reps));
  }

  {
    auto ast = ParseQuery(
        "SELECT l.orderkey, SUM(l.extendedprice * (1 - l.discount)) "
        "FROM lineitem l WHERE l.shipdate > DATE '1995-06-01' "
        "GROUP BY l.orderkey");
    PlannerContext ctx(&*catalog);
    auto bound = BindQuery(*ast, &ctx);
    auto plan = BuildLogicalPlan(*bound, &ctx);
    QuerySummary summary = SummarizePlan(*(*plan).root);
    PolicyEvaluator evaluator(&*catalog, &policies);
    record("policy_evaluation",
           bench::TimeRepeated(
               [&] {
                 for (int i = 0; i < 100; ++i) {
                   (void)evaluator.Evaluate(summary, 3);
                 }
               },
               opts.reps));
  }

  for (int q : {2, 3, 5, 10}) {
    QueryOptimizer optimizer(&*catalog, &policies, &net, {});
    std::string sql = *tpch::Query(q);
    record("optimize_q" + std::to_string(q),
           bench::TimeRepeated([&] { (void)optimizer.Optimize(sql); },
                               opts.reps));
  }
}

int ExecutionBench(const bench::BenchOptions& opts,
                   bench::JsonReport* report) {
  tpch::TpchConfig config;
  config.scale_factor = opts.tiny ? 0.005 : 0.05;
  auto catalog = tpch::BuildCatalog(config);
  CGQ_CHECK(catalog.ok());
  NetworkModel net = NetworkModel::DefaultGeo(5);
  PolicyCatalog policies(&*catalog);
  CGQ_CHECK(tpch::InstallUnrestrictedPolicies(&policies).ok());
  TableStore store;
  CGQ_CHECK(tpch::GenerateData(*catalog, config, &store).ok());

  // --storage=disk: the same workload with every scan streaming
  // checksummed blocks from the per-location storage engine instead of
  // reading pinned RAM fragments (digest assertions unchanged).
  std::string storage_dir;
  if (opts.storage == "disk") {
    storage_dir = (std::filesystem::temp_directory_path() /
                   ("cgq-bench-store-" + std::to_string(::getpid())))
                      .string();
    std::error_code ec;
    std::filesystem::remove_all(storage_dir, ec);
    CGQ_CHECK(store.EnableDiskStorage(storage_dir).ok());
  }

  // --exec-mode=distributed: run against real location servers. With
  // --connect the servers are external (multi-process, e.g. the CI
  // loopback deployment); without it the bench stands up an in-process
  // loopback deployment on ephemeral ports.
  bool wants_distributed = false;
  for (const char* mode : opts.ExecModes()) {
    wants_distributed |= std::strcmp(mode, "distributed") == 0;
  }
  std::vector<std::unique_ptr<net::SiteServer>> loopback;
  net::ClusterClient cluster;
  if (wants_distributed) {
    std::map<LocationId, net::Endpoint> endpoints;
    if (!opts.connect_hosts.empty()) {
      auto parsed = net::ParseHostsFile(opts.connect_hosts);
      CGQ_CHECK(parsed.ok()) << parsed.status();
      endpoints = *parsed;
    } else {
      const std::vector<std::vector<LocationId>> hosting = {
          {0, 1}, {2, 3}, {4}};
      for (const std::vector<LocationId>& locations : hosting) {
        net::SiteServer::Options sopts;
        sopts.locations = locations;
        auto server = std::make_unique<net::SiteServer>(sopts);
        CGQ_CHECK(server->Start().ok());
        for (LocationId l : locations) {
          endpoints[l] = {"127.0.0.1", server->port()};
        }
        loopback.push_back(std::move(server));
      }
    }
    CGQ_CHECK(cluster.Connect(endpoints).ok());
    CGQ_CHECK(cluster.Deploy(store).ok());
  }

  // The lossy profile drops 5% of batches on every cross-site link; the
  // retry budget makes exhaustion (0.05^9) impossible in practice, so
  // both backends recover every run and their digests must still agree.
  const bool lossy =
      opts.fault_profile == bench::FaultProfileArg::kLossy;
  if (lossy) {
    net.ApplyLossyProfile(/*drop_probability=*/0.05,
                          /*extra_latency_ms=*/2.0);
  }

  bench::PrintHeader(
      "Execution: row vs fragment backends (sf " +
      std::to_string(config.scale_factor) + ", " +
      std::to_string(opts.threads) + " threads, batch " +
      std::to_string(opts.batch_size) + ", faults " +
      bench::FaultProfileArgToString(opts.fault_profile) + ")");
  std::printf("%-6s %-10s %12s %10s %8s %14s %10s\n", "Query", "mode",
              "mean [ms]", "rows", "ships", "bytes shipped", "speedup");

  int failures = 0;
  // Per-backend speedups over the row baseline, keyed by mode name.
  std::vector<std::pair<std::string, std::vector<double>>> speedups;
  auto speedups_of = [&speedups](const std::string& mode)
      -> std::vector<double>& {
    for (auto& [name, values] : speedups) {
      if (name == mode) return values;
    }
    speedups.emplace_back(mode, std::vector<double>());
    return speedups.back().second;
  };
  for (int q : tpch::QueryNumbers()) {
    QueryOptimizer optimizer(&*catalog, &policies, &net, {});
    auto opt = optimizer.Optimize(*tpch::Query(q));
    if (!opt.ok()) {
      std::printf("Q%-5d optimization failed: %s\n", q,
                  opt.status().ToString().c_str());
      ++failures;
      continue;
    }

    double row_mean = 0;
    uint64_t row_digest = 0;
    for (const char* mode : opts.ExecModes()) {
      ExecutorOptions eopts;
      eopts.mode = ModeFromName(mode);
      eopts.batch_size = opts.batch_size;
      eopts.threads = opts.threads;
      if (eopts.mode == ExecMode::kDistributed) eopts.cluster = &cluster;
      if (lossy) {
        eopts.retry.max_retries = 8;
        eopts.retry.fault_seed = opts.fault_seed;
      }
      Executor executor(&store, &net, eopts);

      auto result = executor.Execute(*opt);
      if (!result.ok()) {
        std::printf("Q%-5d %s execution failed: %s\n", q, mode,
                    result.status().ToString().c_str());
        ++failures;
        continue;
      }
      bench::TimingStats t = bench::TimeRepeated(
          [&] { (void)executor.Execute(*opt); }, opts.reps);

      uint64_t digest = ResultDigest(*result);
      double speedup = 0;
      if (eopts.mode == ExecMode::kRow) {
        row_mean = t.mean_ms;
        row_digest = digest;
      } else if (row_mean > 0) {
        speedup = row_mean / t.mean_ms;
        if (row_digest != 0 && digest != row_digest) {
          std::printf("Q%-5d BACKEND MISMATCH: %s result differs "
                      "from row result\n", q, mode);
          ++failures;
        }
      }

      char speedup_str[16] = "-";
      if (speedup > 0) {
        std::snprintf(speedup_str, sizeof(speedup_str), "%.2fx", speedup);
      }
      std::printf("Q%-5d %-10s %12.2f %10zu %8lld %14.0f %10s\n", q, mode,
                  t.mean_ms, result->rows.size(),
                  static_cast<long long>(result->metrics.ships),
                  result->metrics.bytes_shipped, speedup_str);

      bench::JsonRow jrow;
      jrow.Set("bench", "micro_exec")
          .Set("query", q)
          .Set("exec_mode", mode)
          .Set("storage", opts.storage)
          .Set("threads", opts.threads)
          .Set("batch_size", opts.batch_size)
          .Set("scale_factor", config.scale_factor)
          .Set("mean_ms", t.mean_ms)
          .Set("stderr_ms", t.stderr_ms)
          .Set("rows", result->rows.size())
          .Set("ships", result->metrics.ships)
          .Set("rows_shipped", result->metrics.rows_shipped)
          .Set("bytes_shipped", result->metrics.bytes_shipped)
          .Set("result_digest", std::to_string(digest))
          .Set("fault_profile",
               bench::FaultProfileArgToString(opts.fault_profile))
          .Set("send_retries", result->metrics.send_retries)
          .Set("dropped_batches", result->metrics.dropped_batches)
          .Set("timeouts", result->metrics.send_timeouts +
                               result->metrics.recv_timeouts)
          .Set("fragment_restarts", result->metrics.fragment_restarts);
      bench::SetPhaseTimings(jrow, result->opt_stats, result->metrics);
      if (speedup > 0) {
        jrow.Set("speedup", speedup);
        speedups_of(mode).push_back(speedup);
      }
      report->Add(jrow);
    }
  }

  for (const auto& [mode, values] : speedups) {
    if (values.empty()) continue;
    double log_sum = 0;
    for (double s : values) log_sum += std::log(s);
    double geomean = std::exp(log_sum / static_cast<double>(values.size()));
    std::printf("\ngeomean %s speedup over %zu queries: %.2fx\n",
                mode.c_str(), values.size(), geomean);
    bench::JsonRow summary;
    summary.Set("bench", "micro_exec_summary")
        .Set("exec_mode", mode)
        .Set("threads", opts.threads)
        .Set("batch_size", opts.batch_size)
        .Set("queries", values.size())
        .Set("geomean_speedup", geomean);
    report->Add(summary);
  }

  // One representative Chrome trace (Q3, fragment backend) for tooling
  // and the CI artifact check. With CGQ_TRACING=OFF the spans compile
  // out and the file still holds valid (empty) trace_event JSON.
  if (!opts.trace_out.empty()) {
    const std::string sql = *tpch::Query(3);
    TraceSession session(sql, TraceClock::kDeterministic);
    {
      ScopedTraceContext ctx(&session);
      TraceSpan root("query");
      QueryOptimizer optimizer(&*catalog, &policies, &net, {});
      auto opt = optimizer.Optimize(sql);
      if (!opt.ok()) {
        root.AddArg("status", opt.status().ToString());
      } else {
        ExecutorOptions eopts;
        eopts.mode = ExecMode::kFragment;
        eopts.batch_size = opts.batch_size;
        eopts.threads = opts.threads;
        Executor executor(&store, &net, eopts);
        auto result = executor.Execute(*opt);
        if (result.ok()) {
          root.AddArg("rows", static_cast<int64_t>(result->rows.size()));
        }
      }
    }
    std::string json = session.ToChromeJson();
    std::FILE* f = std::fopen(opts.trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
      ++failures;
    } else {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("\ntrace (%zu spans) written to %s\n",
                  session.span_count(), opts.trace_out.c_str());
    }
  }
  if (!storage_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(storage_dir, ec);
  }
  return failures;
}

// Storage bench: every query on the same data twice — pinned RAM
// fragments vs block-streaming disk scans — on the row and fragment
// backends. Digests must agree; the per-mode geomean of
// disk_ms / memory_ms lands in a micro_storage_summary row that the CI
// bench-smoke job gates (>15% regression against the checked-in
// baseline fails).
int StorageBench(const bench::BenchOptions& opts,
                 bench::JsonReport* report) {
  tpch::TpchConfig config;
  config.scale_factor = opts.tiny ? 0.005 : 0.05;
  auto catalog = tpch::BuildCatalog(config);
  CGQ_CHECK(catalog.ok());
  NetworkModel net = NetworkModel::DefaultGeo(5);
  PolicyCatalog policies(&*catalog);
  CGQ_CHECK(tpch::InstallUnrestrictedPolicies(&policies).ok());
  TableStore memory_store;
  CGQ_CHECK(tpch::GenerateData(*catalog, config, &memory_store).ok());

  TableStore disk_store(memory_store);
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("cgq-bench-storage-" + std::to_string(::getpid())))
                        .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  storage::StorageOptions soptions;
  soptions.block_target_bytes = 64 * 1024;  // several blocks per fragment
  CGQ_CHECK(disk_store.EnableDiskStorage(dir, soptions).ok());

  bench::PrintHeader("Storage: in-memory vs disk-backed scans (sf " +
                     std::to_string(config.scale_factor) + ")");
  std::printf("%-6s %-8s %-8s %12s %10s %8s\n", "Query", "mode", "storage",
              "mean [ms]", "blocks", "match");

  int failures = 0;
  std::vector<std::pair<std::string, std::vector<double>>> ratios;
  auto ratios_of = [&ratios](const std::string& mode)
      -> std::vector<double>& {
    for (auto& [name, values] : ratios) {
      if (name == mode) return values;
    }
    ratios.emplace_back(mode, std::vector<double>());
    return ratios.back().second;
  };
  for (int q : tpch::QueryNumbers()) {
    QueryOptimizer optimizer(&*catalog, &policies, &net, {});
    auto opt = optimizer.Optimize(*tpch::Query(q));
    if (!opt.ok()) {
      std::printf("Q%-5d optimization failed: %s\n", q,
                  opt.status().ToString().c_str());
      ++failures;
      continue;
    }
    for (const char* mode : {"row", "fragment"}) {
      double memory_mean = 0;
      uint64_t memory_digest = 0;
      for (const char* storage : {"memory", "disk"}) {
        const bool is_disk = std::strcmp(storage, "disk") == 0;
        ExecutorOptions eopts;
        eopts.mode = ModeFromName(mode);
        eopts.batch_size = opts.batch_size;
        Executor executor(is_disk ? &disk_store : &memory_store, &net,
                          eopts);
        auto result = executor.Execute(*opt);
        if (!result.ok()) {
          std::printf("Q%-5d %s/%s failed: %s\n", q, mode, storage,
                      result.status().ToString().c_str());
          ++failures;
          continue;
        }
        bench::TimingStats t = bench::TimeRepeated(
            [&] { (void)executor.Execute(*opt); }, opts.reps);
        uint64_t digest = ResultDigest(*result);
        bool match = true;
        if (!is_disk) {
          memory_mean = t.mean_ms;
          memory_digest = digest;
        } else {
          match = digest == memory_digest;
          if (!match) ++failures;
          if (result->metrics.storage_blocks_read <= 0) {
            std::printf("Q%-5d %s disk run read no blocks\n", q, mode);
            ++failures;
          }
          if (memory_mean > 0 && t.mean_ms > 0) {
            ratios_of(mode).push_back(t.mean_ms / memory_mean);
          }
        }
        std::printf("Q%-5d %-8s %-8s %12.2f %10lld %8s\n", q, mode,
                    storage, t.mean_ms,
                    static_cast<long long>(
                        result->metrics.storage_blocks_read),
                    match ? "OK" : "MISMATCH");
        bench::JsonRow jrow;
        jrow.Set("bench", "micro_storage")
            .Set("query", q)
            .Set("exec_mode", mode)
            .Set("storage", storage)
            .Set("scale_factor", config.scale_factor)
            .Set("mean_ms", t.mean_ms)
            .Set("stderr_ms", t.stderr_ms)
            .Set("rows", result->rows.size())
            .Set("storage_blocks_read",
                 result->metrics.storage_blocks_read)
            .Set("result_digest", std::to_string(digest))
            .Set("digest_match", match);
        report->Add(jrow);
      }
    }
  }

  for (const auto& [mode, values] : ratios) {
    if (values.empty()) continue;
    double log_sum = 0;
    for (double r : values) log_sum += std::log(r);
    double geomean = std::exp(log_sum / static_cast<double>(values.size()));
    std::printf("\ngeomean %s disk/memory slowdown over %zu queries: "
                "%.2fx\n",
                mode.c_str(), values.size(), geomean);
    bench::JsonRow summary;
    summary.Set("bench", "micro_storage_summary")
        .Set("exec_mode", mode)
        .Set("queries", values.size())
        .Set("disk_over_memory", geomean);
    report->Add(summary);
  }
  std::filesystem::remove_all(dir, ec);
  return failures;
}

// Spill sweep: join-heavy queries under memory_budget_bytes of infinity,
// 25% and 5% of the largest hash-join build side (measured on the
// unbounded row run). Finite budgets must actually spill
// (spill_partitions > 0) and every cell must reproduce the unbounded
// digest on every in-process backend.
int SpillSweepBench(const bench::BenchOptions& opts,
                    bench::JsonReport* report) {
  tpch::TpchConfig config;
  config.scale_factor = opts.tiny ? 0.005 : 0.05;
  auto catalog = tpch::BuildCatalog(config);
  CGQ_CHECK(catalog.ok());
  NetworkModel net = NetworkModel::DefaultGeo(5);
  PolicyCatalog policies(&*catalog);
  CGQ_CHECK(tpch::InstallUnrestrictedPolicies(&policies).ok());
  TableStore store;
  CGQ_CHECK(tpch::GenerateData(*catalog, config, &store).ok());

  bench::PrintHeader("Spill sweep: memory budget inf / 25% / 5% of the "
                     "build side (sf " +
                     std::to_string(config.scale_factor) + ")");
  std::printf("%-6s %-10s %-8s %12s %12s %12s %8s\n", "Query", "mode",
              "budget", "bytes", "mean [ms]", "partitions", "match");

  int failures = 0;
  for (int q : {3, 5, 10}) {
    QueryOptimizer optimizer(&*catalog, &policies, &net, {});
    auto opt = optimizer.Optimize(*tpch::Query(q));
    if (!opt.ok()) {
      std::printf("Q%-5d optimization failed: %s\n", q,
                  opt.status().ToString().c_str());
      ++failures;
      continue;
    }

    // Unbounded row run: reference digest + the build-side measurement
    // the finite budgets are derived from.
    ExecutorOptions ref_opts;
    ref_opts.mode = ExecMode::kRow;
    ref_opts.batch_size = opts.batch_size;
    Executor ref_exec(&store, &net, ref_opts);
    auto ref = ref_exec.Execute(*opt);
    if (!ref.ok() || ref->metrics.max_build_bytes <= 0) {
      std::printf("Q%-5d unbounded reference failed\n", q);
      ++failures;
      continue;
    }
    const uint64_t ref_digest = ResultDigest(*ref);
    const int64_t build = ref->metrics.max_build_bytes;

    const struct {
      const char* label;
      uint64_t bytes;
    } budgets[] = {{"inf", 0},
                   {"25pct", static_cast<uint64_t>(build / 4)},
                   {"5pct", static_cast<uint64_t>(build / 20)}};
    for (const char* mode : {"row", "fragment"}) {
      for (const auto& budget : budgets) {
        ExecutorOptions eopts;
        eopts.mode = ModeFromName(mode);
        eopts.batch_size = opts.batch_size;
        eopts.memory_budget_bytes = budget.bytes;
        Executor executor(&store, &net, eopts);
        auto result = executor.Execute(*opt);
        if (!result.ok()) {
          std::printf("Q%-5d %s/%s failed: %s\n", q, mode, budget.label,
                      result.status().ToString().c_str());
          ++failures;
          continue;
        }
        bench::TimingStats t = bench::TimeRepeated(
            [&] { (void)executor.Execute(*opt); }, opts.reps);
        uint64_t digest = ResultDigest(*result);
        bool match = digest == ref_digest;
        if (!match) ++failures;
        if (budget.bytes > 0 && result->metrics.spill_partitions <= 0) {
          std::printf("Q%-5d %s/%s did not spill under a finite budget\n",
                      q, mode, budget.label);
          ++failures;
        }
        std::printf("Q%-5d %-10s %-8s %12llu %12.2f %12lld %8s\n", q,
                    mode, budget.label,
                    static_cast<unsigned long long>(budget.bytes),
                    t.mean_ms,
                    static_cast<long long>(
                        result->metrics.spill_partitions),
                    match ? "OK" : "MISMATCH");
        bench::JsonRow jrow;
        jrow.Set("bench", "micro_spill")
            .Set("query", q)
            .Set("exec_mode", mode)
            .Set("budget", budget.label)
            .Set("budget_bytes",
                 static_cast<int64_t>(budget.bytes))
            .Set("build_bytes", build)
            .Set("scale_factor", config.scale_factor)
            .Set("mean_ms", t.mean_ms)
            .Set("stderr_ms", t.stderr_ms)
            .Set("rows", result->rows.size())
            .Set("spill_partitions", result->metrics.spill_partitions)
            .Set("spill_bytes", result->metrics.spill_bytes)
            .Set("result_digest", std::to_string(digest))
            .Set("digest_match", match);
        report->Add(jrow);
      }
    }
  }
  return failures;
}

// Plan-cache churn row (part of --plan-cache): distinct skeletons worth
// about twice the byte budget flow once each through a small cache, as
// ad-hoc queries do. Every key is first-seen, so once a shard is full
// admission must refuse the rest rather than evict for them (CI's
// backends gate checks both).
void PlanCacheChurnBench(Engine& engine,
                         const std::vector<std::string>& sqls,
                         bench::JsonReport* report) {
  std::vector<OptimizedQuery> plans;
  for (const std::string& sql : sqls) {
    auto q = engine.Optimize(sql);
    CGQ_CHECK(q.ok());
    plans.push_back(std::move(*q));
  }
  constexpr int kSkeletons = 480;
  size_t stream_bytes = 0;
  for (int i = 0; i < kSkeletons; ++i) {
    stream_bytes +=
        PlanCache::EstimatePlanBytes(*plans[i % plans.size()].plan);
  }
  PlanCacheOptions copts;
  copts.max_bytes = stream_bytes / 2;
  PlanCache cache(copts);

  int64_t admitted = 0;
  double admitted_us = 0;
  double refused_us = 0;
  for (int i = 0; i < kSkeletons; ++i) {
    const PlanCache::Key key = PlanCache::ComputeKey(
        sqls[i % sqls.size()] + " -- churn " + std::to_string(i),
        engine.default_options());
    auto start = std::chrono::steady_clock::now();
    PlanCache::InsertResult r =
        cache.Insert(key, plans[i % plans.size()], {}, engine.policies());
    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (r.admitted) {
      ++admitted;
      admitted_us += us;
    } else {
      refused_us += us;
    }
  }
  PlanCacheStats stats = cache.stats();
  const int64_t refused = stats.refused;
  auto mean = [](double total, int64_t n) { return n > 0 ? total / n : 0; };
  std::printf(
      "\nchurn: %d first-seen skeletons through a %.1f KB cache: %lld "
      "admitted (%.1f us), %lld refused (%.1f us), %lld evicted, mean "
      "insert %.1f us\n",
      kSkeletons, copts.max_bytes / 1024.0, static_cast<long long>(admitted),
      mean(admitted_us, admitted), static_cast<long long>(refused),
      mean(refused_us, refused), static_cast<long long>(stats.evictions),
      mean(admitted_us + refused_us, kSkeletons));
  bench::JsonRow row;
  row.Set("bench", "plan_cache_churn")
      .Set("skeletons", kSkeletons)
      .Set("max_bytes", copts.max_bytes)
      .Set("admitted", admitted)
      .Set("refused", refused)
      .Set("evicted", stats.evictions)
      .Set("cache_entries", stats.entries)
      .Set("mean_insert_us", mean(admitted_us + refused_us, kSkeletons))
      .Set("mean_admitted_us", mean(admitted_us, admitted))
      .Set("mean_refused_us", mean(refused_us, refused));
  report->Add(row);
}

// Plan-cache service bench (--plan-cache): N concurrent clients replay
// the workload through a QueryService. Reports the cache hit rate,
// client-observed p50/p99 latency, and the optimizer time a hit saves —
// with a cold-vs-cached decision check (digests and ship metrics must be
// identical) that CI's bench-smoke job asserts on.
int PlanCacheBench(const bench::BenchOptions& opts,
                   bench::JsonReport* report) {
  tpch::TpchConfig config;
  config.scale_factor = opts.tiny ? 0.005 : 0.05;
  auto catalog = tpch::BuildCatalog(config);
  CGQ_CHECK(catalog.ok());
  Engine engine(std::move(*catalog), NetworkModel::DefaultGeo(5));
  CGQ_CHECK(tpch::InstallUnrestrictedPolicies(&engine.policies()).ok());
  CGQ_CHECK(
      tpch::GenerateData(engine.catalog(), config, &engine.store()).ok());
  engine.set_exec_mode(opts.exec_mode == bench::ExecModeArg::kRow
                           ? ExecMode::kRow
                           : ExecMode::kFragment);
  engine.default_exec_options().batch_size = opts.batch_size;
  engine.default_exec_options().threads = opts.threads;

  bench::PrintHeader("Plan cache: " + std::to_string(opts.clients) +
                     " concurrent clients, sf " +
                     std::to_string(config.scale_factor));

  std::vector<std::string> sqls;
  for (int q : tpch::QueryNumbers()) sqls.push_back(*tpch::Query(q));

  // Cold baseline: no cache installed, per-query optimizer time and
  // result digest.
  struct Cold {
    double opt_ms = 0;
    uint64_t digest = 0;
    int64_t ships = 0;
    int64_t rows_shipped = 0;
  };
  std::vector<Cold> cold(sqls.size());
  int failures = 0;
  for (size_t i = 0; i < sqls.size(); ++i) {
    for (int rep = 0; rep < opts.reps; ++rep) {
      auto r = engine.Run(sqls[i]);
      if (!r.ok()) {
        std::printf("cold run failed: %s\n", r.status().ToString().c_str());
        return failures + 1;
      }
      cold[i].opt_ms += r->opt_stats.total_ms;
      cold[i].digest = ResultDigest(*r);
      cold[i].ships = r->metrics.ships;
      cold[i].rows_shipped = r->metrics.rows_shipped;
    }
    cold[i].opt_ms /= opts.reps;
  }

  ServiceOptions sopts;
  sopts.max_inflight = opts.clients;
  sopts.queue_capacity = opts.clients * static_cast<int>(sqls.size()) + 16;
  QueryService service(&engine, sopts);

  // Warming pass fills the cache; the serial measured pass compares the
  // cached decisions against the cold baseline.
  {
    QueryService::Session session = service.OpenSession();
    for (const std::string& sql : sqls) {
      auto r = session.Run(sql);
      CGQ_CHECK(r.ok());
    }
  }
  std::printf("%-6s %14s %14s %10s %8s\n", "Query", "cold opt [ms]",
              "hit opt [ms]", "speedup", "match");
  double saved_ms_per_round = 0;
  double log_speedup_sum = 0;
  size_t speedup_count = 0;
  for (size_t i = 0; i < sqls.size(); ++i) {
    double warm_ms = 0;
    uint64_t warm_digest = 0;
    bool hit = true;
    bool match = true;
    for (int rep = 0; rep < opts.reps; ++rep) {
      auto r = engine.Run(sqls[i]);  // cache is installed on the engine
      if (!r.ok()) {
        std::printf("warm run failed: %s\n", r.status().ToString().c_str());
        return failures + 1;
      }
      hit = hit && r->opt_stats.cache_hit;
      warm_ms += r->opt_stats.total_ms;
      warm_digest = ResultDigest(*r);
      match = match && warm_digest == cold[i].digest &&
              r->metrics.ships == cold[i].ships &&
              r->metrics.rows_shipped == cold[i].rows_shipped;
    }
    warm_ms /= opts.reps;
    if (!hit || !match) ++failures;
    saved_ms_per_round += cold[i].opt_ms - warm_ms;
    double speedup = warm_ms > 0 ? cold[i].opt_ms / warm_ms : 0;
    if (speedup > 0) {
      log_speedup_sum += std::log(speedup);
      ++speedup_count;
    }
    std::printf("Q%-5d %14.3f %14.3f %9.1fx %8s\n",
                tpch::QueryNumbers()[i], cold[i].opt_ms, warm_ms, speedup,
                !match ? "MISMATCH" : (hit ? "yes" : "MISS"));
    bench::JsonRow row;
    row.Set("bench", "plan_cache")
        .Set("query", tpch::QueryNumbers()[i])
        .Set("cold_opt_ms", cold[i].opt_ms)
        .Set("cached_opt_ms", warm_ms)
        .Set("opt_speedup", speedup)
        .Set("cache_hit", hit)
        .Set("decisions_match", match)
        .Set("cold_digest", std::to_string(cold[i].digest))
        .Set("cached_digest", std::to_string(warm_digest))
        .Set("ships", cold[i].ships)
        .Set("rows_shipped", cold[i].rows_shipped);
    report->Add(row);
  }

  // Concurrent phase: clients replay the (now cached) workload; every
  // client-observed latency lands in one pool for the percentiles.
  PlanCacheStats before = service.plan_cache()->stats();
  std::mutex lat_mu;
  std::vector<double> latencies;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(opts.clients));
  for (int c = 0; c < opts.clients; ++c) {
    clients.emplace_back([&] {
      QueryService::Session session = service.OpenSession();
      std::vector<double> local;
      for (int rep = 0; rep < opts.reps; ++rep) {
        for (const std::string& sql : sqls) {
          auto start = std::chrono::steady_clock::now();
          auto r = session.Run(sql);
          double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
          if (r.ok()) local.push_back(ms);
        }
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : clients) t.join();

  PlanCacheStats after = service.plan_cache()->stats();
  int64_t lookups = (after.hits - before.hits) +
                    (after.misses - before.misses) +
                    (after.invalidations - before.invalidations);
  double hit_rate =
      lookups > 0
          ? static_cast<double>(after.hits - before.hits) / lookups
          : 0;
  std::sort(latencies.begin(), latencies.end());
  auto percentile = [&](double p) {
    if (latencies.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * (latencies.size() - 1));
    return latencies[idx];
  };
  const size_t expected =
      sqls.size() * static_cast<size_t>(opts.reps) *
      static_cast<size_t>(opts.clients);
  if (latencies.size() != expected) ++failures;

  double geomean_speedup =
      speedup_count > 0
          ? std::exp(log_speedup_sum / static_cast<double>(speedup_count))
          : 0;
  std::printf(
      "\n%zu queries over %d clients: hit rate %.1f%%, p50 %.2f ms, "
      "p99 %.2f ms, optimizer time saved per workload round %.2f ms "
      "(geomean hit speedup %.1fx)\n",
      latencies.size(), opts.clients, 100 * hit_rate, percentile(0.5),
      percentile(0.99), saved_ms_per_round, geomean_speedup);
  bench::JsonRow summary;
  summary.Set("bench", "plan_cache_summary")
      .Set("clients", opts.clients)
      .Set("queries", latencies.size())
      .Set("hit_rate", hit_rate)
      .Set("p50_ms", percentile(0.5))
      .Set("p99_ms", percentile(0.99))
      .Set("optimizer_time_saved_ms", saved_ms_per_round)
      .Set("geomean_opt_speedup", geomean_speedup)
      .Set("cache_entries", after.entries)
      .Set("cache_bytes", after.bytes)
      .Set("revalidations", after.revalidations);
  report->Add(summary);
  PlanCacheChurnBench(engine, sqls, report);
  return failures;
}

}  // namespace

// --listen=L[,L...]: act as a location server instead of benchmarking.
// Binds an ephemeral port, prints it, serves until stdin closes. Lets a
// multi-process deployment be assembled from this binary alone (the CI
// loopback job uses the dedicated cgq_sited binary instead).
int ListenMode(const bench::BenchOptions& opts) {
  net::SiteServer::Options sopts;
  std::stringstream locs(opts.listen_locations);
  std::string token;
  while (std::getline(locs, token, ',')) {
    sopts.locations.push_back(
        static_cast<LocationId>(std::strtoul(token.c_str(), nullptr, 10)));
  }
  if (sopts.locations.empty()) {
    std::fprintf(stderr, "--listen needs at least one location id\n");
    return 2;
  }
  net::SiteServer server(sopts);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u locations=%s\n", server.port(),
              opts.listen_locations.c_str());
  std::fflush(stdout);
  // Serve until the parent closes our stdin (the loopback harness
  // contract; also makes Ctrl-D work interactively).
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  server.Stop();
  return 0;
}

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::BenchOptions::Parse(argc, argv);
  if (!opts.listen_locations.empty()) return ListenMode(opts);
  bench::JsonReport report(opts.json_path);

  OptimizerMicro(opts, &report);
  int failures = ExecutionBench(opts, &report);
  failures += StorageBench(opts, &report);
  failures += SpillSweepBench(opts, &report);
  if (opts.plan_cache) failures += PlanCacheBench(opts, &report);

  if (!report.Flush()) return 1;
  return failures == 0 ? 0 : 1;
}
