// analytics_disk and analytics_wire: the twelve TPC-H queries (the paper's
// six plus the extended six), one closed-loop client through a QueryService
// whose plan cache is warm.
//
// analytics_disk runs ExecMode::kFragment (fragment pool of 2) over a
// disk-backed store while one open-loop writer issues durable AppendRows
// batches to a fragment no query reads; after the window the store is
// reopened, timed, and checked. analytics_wire runs ExecMode::kDistributed
// against three in-process loopback SiteServers hosting {l1,l2}, {l3,l4}
// and {l5}, each with an in-memory store.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/trace.h"
#include "core/compliance_checker.h"
#include "core/engine.h"
#include "core/policy_evaluator.h"
#include "layers.h"
#include "loop.h"
#include "net/server.h"
#include "plan/param_binding.h"
#include "service/query_service.h"
#include "sql/param_normalizer.h"
#include "tpch/tpch.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 0.02;
constexpr int kFragmentThreads = 2;
// Writer of analytics_disk: open loop, fixed rate and batch shape.
constexpr double kAppendsPerSecond = 100;
constexpr size_t kBatchRows = 256;
constexpr size_t kPayloadChars = 64;
constexpr cgq::LocationId kIngestSite = 0;
const char* const kIngestTable = "ingest_events";

enum class Target { kDisk, kWire };

double LogicalBytes(const std::vector<cgq::Row>& rows) {
  double bytes = 0;
  for (const cgq::Row& row : rows) {
    for (const cgq::Value& v : row) {
      bytes += v.is_string() ? static_cast<double>(v.str().size()) : 8.0;
    }
  }
  return bytes;
}

/// The benchmark's view of the query mix and its row references.
struct Mix {
  std::vector<int> numbers;
  std::vector<std::string> sql;
  std::vector<std::string> klass;  ///< "Q<number>", the geomean_ms class
  std::vector<Expected> expected;
  std::vector<cgq::OptimizedQuery> plans;  ///< for wire-overhead probes
  std::map<std::string, uint64_t> table_digests;  ///< "loc/table" -> rows
  double logical_bytes = 0;
  Tally gate;
};

/// The twelve queries, without references.
Mix QueryMix() {
  Mix mix;
  for (int q : cgq::tpch::QueryNumbers()) mix.numbers.push_back(q);
  for (int q : cgq::tpch::ExtendedQueryNumbers()) mix.numbers.push_back(q);
  for (int q : mix.numbers) {
    mix.sql.push_back(*cgq::tpch::Query(q));
    std::string klass = "Q";
    klass += std::to_string(q);
    mix.klass.push_back(std::move(klass));
  }
  return mix;
}

struct Fixture {
  // Declared first so they are destroyed last, after the engine.
  std::vector<std::unique_ptr<cgq::net::SiteServer>> servers;
  std::unique_ptr<cgq::Engine> engine;
  std::unique_ptr<cgq::QueryService> service;
  std::string dir;
  double load_s = 0;
  double connect_ms = 0;
  double deploy_s = 0;

  ~Fixture() {
    service.reset();
    engine.reset();
    for (auto& s : servers) s->Stop();
  }
};

/// Row-backend references over the in-memory store: digest and ship
/// accounting per query, a Definition-1 check of every accepted plan, and
/// a digest of every stored fragment.
void ComputeReferences(cgq::Engine& engine, bool corrupt, Mix* mix) {
  for (size_t i = 0; i < mix->sql.size(); ++i) {
    ++mix->gate.attempted;
    auto q = engine.Optimize(mix->sql[i]);
    Require(q.status(), "optimize Q" + std::to_string(mix->numbers[i]));
    cgq::PolicyEvaluator evaluator(&engine.catalog(), &engine.policies());
    if (!cgq::CheckCompliance(*q->plan, evaluator,
                              engine.catalog().locations())
             .compliant) {
      mix->gate.Fail("accepted plan fails CheckCompliance: Q" +
                     std::to_string(mix->numbers[i]));
    }
    cgq::ExecutorOptions row;
    row.mode = cgq::ExecMode::kRow;
    auto ref = cgq::Executor(&engine.store(), &engine.net(), row).Execute(*q);
    Require(ref.status(), "row reference");
    Expected e;
    e.digest = ResultDigest(*ref) ^ (corrupt ? 1 : 0);
    e.ships = ShipAccountOf(ref->metrics);
    mix->expected.push_back(e);
    mix->plans.push_back(std::move(*q));
  }
  for (const auto& frag : engine.store().ListFragments()) {
    auto rows = engine.store().Get(frag.location, frag.table);
    Require(rows.status(), "read fragment");
    mix->table_digests[std::to_string(frag.location) + "/" + frag.table] =
        RowsDigest(**rows);
    mix->logical_bytes += LogicalBytes(**rows);
  }
}

/// Builds one fixture; returns its set-up seconds without the reference
/// computation, which runs only when `mix` is non-null.
double Setup(const RunConfig& cfg, Target target, int index, Mix* mix,
             std::unique_ptr<Fixture>* out) {
  const auto t0 = Clock::now();
  double excluded_ms = 0;
  auto f = std::make_unique<Fixture>();
  cgq::tpch::TpchConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = cfg.seed;
  auto catalog = cgq::tpch::BuildCatalog(config);
  Require(catalog.status(), "BuildCatalog");
  f->engine = std::make_unique<cgq::Engine>(std::move(*catalog),
                                            cgq::NetworkModel::DefaultGeo(5));
  cgq::Engine& engine = *f->engine;
  Require(cgq::tpch::InstallUnrestrictedPolicies(&engine.policies()),
          "install policies");
  Require(cgq::tpch::GenerateData(engine.catalog(), config, &engine.store()),
          "GenerateData");
  if (mix != nullptr) {
    const auto r0 = Clock::now();
    ComputeReferences(engine, cfg.corrupt_reference, mix);
    excluded_ms += MsSince(r0);
  }

  cgq::ExecutorOptions& exec = engine.default_exec_options();
  if (target == Target::kDisk) {
    f->dir = cfg.work_dir + "/store-" + std::to_string(index);
    std::error_code ec;
    std::filesystem::remove_all(f->dir, ec);
    const auto l0 = Clock::now();
    Require(engine.EnableDiskStorage(f->dir), "EnableDiskStorage");
    f->load_s = MsSince(l0) / 1000.0;
    exec.mode = cgq::ExecMode::kFragment;
  } else {
    std::map<cgq::LocationId, cgq::net::Endpoint> endpoints;
    const std::vector<std::vector<cgq::LocationId>> hosting = {
        {0, 1}, {2, 3}, {4}};
    for (const auto& locations : hosting) {
      cgq::net::SiteServer::Options so;
      so.locations = locations;
      auto server = std::make_unique<cgq::net::SiteServer>(so);
      Require(server->Start(), "SiteServer::Start");
      for (cgq::LocationId l : locations) {
        endpoints[l] = {"127.0.0.1", server->port()};
      }
      f->servers.push_back(std::move(server));
    }
    const auto c0 = Clock::now();
    Require(engine.ConnectCluster(endpoints), "ClusterClient::Connect");
    f->connect_ms = MsSince(c0);
    const auto d0 = Clock::now();
    Require(engine.DeployStore(), "ClusterClient::Deploy");
    f->deploy_s = MsSince(d0) / 1000.0;
    exec.mode = cgq::ExecMode::kDistributed;
  }
  exec.threads = kFragmentThreads;

  cgq::ServiceOptions so;
  so.max_inflight = 1;
  so.queue_timeout_ms = 0;
  f->service = std::make_unique<cgq::QueryService>(f->engine.get(), so);
  cgq::QueryService::Session warm = f->service->OpenSession();
  for (const std::string& sql : QueryMix().sql) {
    Require(warm.Run(sql).status(), "warm-up");
  }
  *out = std::move(f);
  return (MsSince(t0) - excluded_ms) / 1000.0;
}

/// The open-loop durable writer of analytics_disk.
struct Writer {
  std::vector<double> ack_ms;  ///< from due time to acknowledgement
  std::vector<double> lag_ms;  ///< from due time to the AppendRows call
  std::vector<cgq::Row> acked;
  double user_bytes = 0;
  Tally tally;

  void Run(cgq::TableStore* store, double seconds, uint64_t seed) {
    const auto start = Clock::now();
    const auto interval = std::chrono::duration<double>(1.0 / kAppendsPerSecond);
    const int64_t batches = static_cast<int64_t>(seconds * kAppendsPerSecond);
    std::string payload(kPayloadChars, 'x');
    for (int64_t b = 0; b < batches; ++b) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(interval * b);
      std::this_thread::sleep_until(due);
      std::vector<cgq::Row> rows;
      for (size_t r = 0; r < kBatchRows; ++r) {
        const int64_t id = b * static_cast<int64_t>(kBatchRows) +
                           static_cast<int64_t>(r);
        payload[static_cast<size_t>(id) % kPayloadChars] =
            static_cast<char>('a' + (id + static_cast<int64_t>(seed)) % 26);
        rows.push_back({cgq::Value::Int64(id),
                        cgq::Value::Int64(static_cast<int64_t>(seed)),
                        cgq::Value::String(payload),
                        cgq::Value::Double(static_cast<double>(id) * 0.5)});
      }
      const std::vector<cgq::Row> copy = rows;
      ++tally.attempted;
      lag_ms.push_back(MsSince(due));
      cgq::Status s = store->AppendRows(kIngestSite, kIngestTable,
                                        std::move(rows));
      const double ms = MsSince(due);
      if (!s.ok()) {
        tally.Fail("AppendRows: " + s.ToString());
        continue;
      }
      ack_ms.push_back(ms);
      user_bytes += LogicalBytes(copy);
      acked.insert(acked.end(), copy.begin(), copy.end());
    }
  }
};

cgq::Result<std::vector<cgq::Row>> ScanAll(const cgq::TableStore& store,
                                      cgq::LocationId loc,
                                      const std::string& table) {
  auto cursor = store.Scan(loc, table);
  if (!cursor.ok()) return cursor.status();
  std::vector<cgq::Row> all, chunk;
  for (;;) {
    auto more = cursor->Next(&chunk);
    if (!more.ok()) return more.status();
    if (!*more) break;
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

/// Reopens the store directory in a fresh TableStore (timed) and checks
/// that the ingest fragment holds exactly the acknowledged rows and every
/// query table is unchanged.
double ReopenAndVerify(const std::string& dir, const Mix& mix,
                       const Writer& writer, Tally* tally,
                       int64_t* replays) {
  const int64_t replays0 = RegistryValue("storage.recovery_replays");
  cgq::TableStore store;
  const auto t0 = Clock::now();
  Require(store.EnableDiskStorage(dir), "reopen store");
  const double recovery_s = MsSince(t0) / 1000.0;
  *replays = RegistryValue("storage.recovery_replays") - replays0;

  ++tally->attempted;
  auto ingest = ScanAll(store, kIngestSite, kIngestTable);
  if (writer.acked.empty() && !ingest.ok()) {
    // Nothing acknowledged, nothing stored.
  } else if (!ingest.ok() || ingest->size() != writer.acked.size() ||
             RowsDigest(*ingest) != RowsDigest(writer.acked)) {
    tally->Fail("ingest fragment after reopen differs from the acked rows");
  }
  for (const auto& [key, digest] : mix.table_digests) {
    ++tally->attempted;
    const size_t slash = key.find('/');
    const auto loc = static_cast<cgq::LocationId>(std::stoi(key.substr(0, slash)));
    auto rows = ScanAll(store, loc, key.substr(slash + 1));
    if (!rows.ok() || RowsDigest(*rows) != digest) {
      tally->Fail("fragment " + key + " changed across the run");
    }
  }
  return recovery_s;
}

Tally RunAnalytics(const RunConfig& cfg, Target target, MetricSink* out) {
  const bool disk = target == Target::kDisk;
  std::vector<std::pair<std::string, std::string>> params = {
      {"scale_factor", Fmt(kScaleFactor)},
      {"queries", "tpch 2,3,5,8,9,10 + 1,4,6,12,14,19"},
      {"policies", "unrestricted"},
      {"clients", "1"},
      {"service_workers", "1"},
      {"loop", "closed"},
      {"exec_mode", disk ? "fragment" : "distributed"},
      {"fragment_threads", std::to_string(kFragmentThreads)},
      {"plan_cache", "warm"},
      {"interval_block", "one round of the 12 queries"},
      {"setup_repeats", "3..25, until 2 s"}};
  if (disk) {
    params.push_back({"storage", "disk, default StorageOptions"});
    params.push_back({"writer", "1 open-loop AppendRows writer"});
    params.push_back({"appends_per_second", Fmt(kAppendsPerSecond)});
    params.push_back({"batch_rows", std::to_string(kBatchRows)});
    params.push_back({"payload_chars", std::to_string(kPayloadChars)});
  } else {
    params.push_back({"site_servers", "3 loopback: {l1,l2} {l3,l4} {l5}"});
    params.push_back({"storage", "memory"});
  }
  PrintParams(disk ? "analytics_disk" : "analytics_wire", params);

  Mix mix = QueryMix();

  // References come from the first set-up's in-memory data (every set-up
  // of a seed generates the same rows); the last set-up is kept.
  std::unique_ptr<Fixture> f;
  const double setup_s = MedianSetupSeconds(cfg.trace, [&](int i) {
    if (f != nullptr) {
      const std::string old_dir = f->dir;
      f.reset();
      std::error_code ec;
      std::filesystem::remove_all(old_dir, ec);
    }
    return Setup(cfg, target, i, i == 0 ? &mix : nullptr, &f);
  });
  cgq::Engine& engine = *f->engine;
  Tally tally;
  tally.Merge(mix.gate);

  cgq::QueryService::Session session = f->service->OpenSession();
  LoopHooks hooks;
  hooks.block = static_cast<int64_t>(mix.sql.size());
  hooks.next = [&](int, int64_t i) {
    const size_t k = static_cast<size_t>(i) % mix.sql.size();
    Job job;
    job.sql = &mix.sql[k];
    job.session = &session;
    job.expected = &mix.expected[k];
    job.klass = mix.klass[k];
    return job;
  };

  auto run_window = [&](double seconds, const LoopHooks& h, Tracer* tracer,
                        LayerProbe* probe, Writer* writer) {
    std::thread writer_thread;
    if (writer != nullptr) {
      writer_thread = std::thread(
          [&] { writer->Run(&engine.store(), seconds, cfg.seed); });
    }
    LoopStats s =
        RunClosedLoop(1, seconds, h, &engine.catalog(), tracer, probe);
    if (writer_thread.joinable()) writer_thread.join();
    return s;
  };

  Writer writer;
  const int64_t io0 = ProcWriteBytes();
  if (!cfg.trace) {
    LoopStats s = run_window(cfg.seconds, hooks, nullptr, nullptr,
                             disk ? &writer : nullptr);
    tally.Merge(s.tally);
    EmitLoopMetrics(s, out);
    out->Set("setup_s", setup_s, "s");
    if (disk) {
      tally.Merge(writer.tally);
      double p = 0;
      out->Set("info.ack_p50_ms", Median(writer.ack_ms), "ms");
      out->Set("info.ack_p99_ms", SupportedTail(writer.ack_ms, &p), "ms");
      out->Set("info.ack_tail_percentile", 100 * p, "%");
      const std::string dir = f->dir;
      f.reset();
      int64_t replays = 0;
      out->Set("info.recovery_s",
               ReopenAndVerify(dir, mix, writer, &tally, &replays), "s");
    } else {
      out->Set("info.net_connect_ms", f->connect_ms, "ms");
      out->Set("info.net_deploy_s", f->deploy_s, "s");
    }
    return tally;
  }

  // Traced run: an untraced window, then a traced one; the writer runs in
  // both, so the overhead compares like with like.
  const double untraced_s = cfg.seconds * 0.4;
  LoopStats base = run_window(untraced_s, hooks, nullptr, nullptr,
                              disk ? &writer : nullptr);
  tally.Merge(base.tally);
  Tracer tracer;
  LayerProbe probe(&tracer);
  probe.Set("net.connect_ms", f->connect_ms);
  probe.Set("net.deploy_s", f->deploy_s);
  probe.Set("storage.load_s", f->load_s);
  probe.StartWindow(f->service->plan_cache()->stats());

  // Storage probe: stream every fragment once; its per-row cost estimates
  // the storage share of each query's exec time.
  double storage_ms_per_row = 0;
  if (disk) {
    double rows = 0, ms_total = 0;
    for (const auto& frag : engine.store().ListFragments()) {
      const auto t0 = Clock::now();
      ScopedSpan span(&tracer, "probe.storage.scan", -1);
      auto all = ScanAll(engine.store(), frag.location, frag.table);
      span.End();
      Require(all.status(), "probe scan");
      const double ms = MsSince(t0);
      probe.Sample("storage.scan_ms", ms);
      probe.Add("storage.scan_ms_total", ms);
      probe.Add("storage.scan_bytes", LogicalBytes(*all));
      rows += static_cast<double>(all->size());
      ms_total += ms;
    }
    storage_ms_per_row = rows > 0 ? ms_total / rows : 0;
  }
  LoopHooks traced = hooks;
  cgq::PolicyEvaluator evaluator(&engine.catalog(), &engine.policies());
  traced.after = [&](const Job& job, const cgq::QueryResult& r,
                      ProbeShares* shares) {
    const size_t k = static_cast<size_t>(job.sql - mix.sql.data());
    // The rest of the plan-cache hit path the service just ran, replayed
    // by the benchmark: rebind a clone of the cached plan to the text's
    // constants, and re-prove Definition 1.
    const cgq::ParameterizedSql p = cgq::ParameterizeSql(*job.sql);
    auto t0 = Clock::now();
    cgq::PlanNodePtr plan = [&] {
      ScopedSpan span(&tracer, "probe.plan.rebind", -1);
      cgq::PlanNodePtr clone = cgq::ClonePlan(*mix.plans[k].plan);
      cgq::BindPlanParams(clone.get(), p.params);
      return clone;
    }();
    shares->rebind_ms = MsSince(t0);
    probe.Sample("plan.rebind_ms", shares->rebind_ms);
    t0 = Clock::now();
    {
      ScopedSpan span(&tracer, "probe.core.compliance_check", -1);
      (void)cgq::CheckCompliance(*plan, evaluator,
                                 engine.catalog().locations());
    }
    shares->check_ms = MsSince(t0);
    probe.Sample("core.compliance_check_ms", shares->check_ms);
    shares->storage_ms =
        storage_ms_per_row * static_cast<double>(r.metrics.rows_scanned);
    if (!disk) {
      cgq::ExecutorOptions local;
      local.mode = cgq::ExecMode::kFragment;
      local.threads = kFragmentThreads;
      ScopedSpan span(&tracer, "probe.exec.fragment", -1);
      auto in_process = cgq::Executor(&engine.store(), &engine.net(), local)
                            .Execute(mix.plans[k]);
      span.End();
      if (in_process.ok()) {
        const double overhead =
            r.metrics.exec_wall_ms - in_process->metrics.exec_wall_ms;
        probe.Sample("net.wire_overhead_ms", overhead);
        shares->net_ms = std::max(0.0, overhead);
      }
    }
  };
  LoopStats s = run_window(cfg.seconds - untraced_s, traced, &tracer, &probe,
                           disk ? &writer : nullptr);
  probe.EndWindow(f->service->plan_cache()->stats());
  tally.Merge(s.tally);
  if (disk) {
    tally.Merge(writer.tally);
    for (double ms : writer.ack_ms) probe.Sample("storage.append_ms", ms);
    for (double ms : writer.lag_ms) probe.Sample("loadgen.lag_ms", ms);
    const double written = static_cast<double>(ProcWriteBytes() - io0);
    probe.Set("storage.write_amp",
              writer.user_bytes > 0 ? written / writer.user_bytes : 0);
    probe.Set("storage.space_amp",
              static_cast<double>(DirectoryBytes(f->dir)) /
                  (mix.logical_bytes + writer.user_bytes));
    const std::string dir = f->dir;
    f.reset();
    int64_t replays = 0;
    ReopenAndVerify(dir, mix, writer, &tally, &replays);
    probe.Set("storage.recovery_replays", static_cast<double>(replays));
  }
  const double overhead =
      Mean(s.latencies_ms()) / std::max(1e-9, Mean(base.latencies_ms())) - 1;
  probe.Emit(overhead, s.iterations, out);
  tracer.WriteChromeJson(cfg.work_dir + "/trace-" +
                         (disk ? "analytics_disk" : "analytics_wire") +
                         ".json");
  return tally;
}

}  // namespace

Tally RunAnalyticsDisk(const RunConfig& cfg, MetricSink* out) {
  return RunAnalytics(cfg, Target::kDisk, out);
}

Tally RunAnalyticsWire(const RunConfig& cfg, MetricSink* out) {
  return RunAnalytics(cfg, Target::kWire, out);
}

}  // namespace perfbench
