// cgq_shell: an interactive console for the compliant query processor.
//
// Starts with the geo-distributed TPC-H instance (5 sites, Table-2
// placement, small generated data set, policy set CR) and reads commands
// from stdin — run `help;` for the full list: querying (SELECT / explain /
// why / dot / baseline), policy management (policy / policies / set /
// lint / dump), and deployments (source <file> / load <table> <loc> <csv>
// / analyze / tables).
//
// Pipe a script in, or run interactively. EOF exits.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "catalog/deployment.h"
#include "common/str_util.h"
#include "core/engine.h"
#include "core/explain.h"
#include "core/policy_lint.h"
#include "exec/analyze.h"
#include "exec/csv.h"
#include "plan/plan_dot.h"
#include "service/plan_cache.h"
#include "service/query_service.h"
#include "tpch/tpch.h"

using namespace cgq;  // NOLINT

namespace {

void PrintResult(const QueryResult& result,
                 const LocationCatalog* locations) {
  for (const std::string& name : result.column_names) {
    std::printf("%-20s", name.c_str());
  }
  std::printf("\n");
  size_t shown = 0;
  for (const Row& row : result.rows) {
    if (shown++ == 20) {
      std::printf("... (%zu rows total)\n", result.rows.size());
      break;
    }
    for (const Value& v : row) std::printf("%-20s", v.ToString().c_str());
    std::printf("\n");
  }
  std::printf("-- %zu row(s)\n", result.rows.size());
  std::printf("%s", FormatExecMetrics(result.metrics, locations).c_str());
  std::printf("%s", FormatPhaseTimings(result.opt_stats,
                                       result.metrics).c_str());
}

void Help() {
  std::printf(
      "commands:\n"
      "  SELECT ...;                  run a query (compliant or rejected)\n"
      "  explain SELECT ...;          show the compliant plan\n"
      "  why SELECT ...;              compliance provenance per SHIP\n"
      "  dot SELECT ...;              Graphviz export of the compliant plan\n"
      "  baseline SELECT ...;         traditional optimizer + verdict\n"
      "  analyze;                     recompute statistics from the data\n"
      "  dump;                        print the deployment (round-trippable)\n"
      "  source <file>;               load a deployment file (see docs)\n"
      "  load <table> <loc> <csv>;    load CSV data into a fragment\n"
      "  lint;                        static analysis of the policy catalog\n"
      "  policy <location>: ship ...; add a policy expression\n"
      "  policy drop <id>;            drop a policy (ids: 'policies;')\n"
      "  policies;                    list installed policies with ids\n"
      "  set <T|C|CR|CRA|open>;       switch policy set\n"
      "  cache <on|off|stats>;        compliant plan cache in front of the\n"
      "                               optimizer; stats break down exact vs\n"
      "                               parameterized hits + tenant counters\n"
      "  tenant <name> <token> [weight [max-inflight [max-queued]]];\n"
      "                               register a tenant (0 = uncapped)\n"
      "  tenants;                     list tenants, quotas, admission stats\n"
      "  quota <name> <weight> <max-inflight> <max-queued>;  update quotas\n"
      "  auth <token|off>;            switch the session's tenant\n"
      "  exec <row|fragment|distributed>;  switch backend\n"
      "  storage <dir|off>;           disk-backed store under <dir> (durable\n"
      "                               + out-of-core scans; 'off' reads all\n"
      "                               fragments back into RAM)\n"
      "  budget <bytes|off>;          per-query memory budget; hash joins\n"
      "                               over it spill to disk (grace join)\n"
      "  deploy <hosts-file>;         connect + push data to location\n"
      "                               servers (host:port loc[,loc] lines)\n"
      "  faults <p|off>;              lossy links: drop probability p\n"
      "  trace <file|off>;            write Chrome trace JSON per query\n"
      "  tables;                      list tables\n"
      "  help; quit;\n");
}

void PrintTenantCounters(QueryService& service) {
  std::printf("  %-10s %6s %9s %9s %9s %8s %8s %9s\n", "tenant", "weight",
              "submitted", "completed", "rejected", "failed", "queued",
              "scheduled");
  for (const TenantServiceStats& t : service.tenant_stats()) {
    std::printf("  %-10s %6d %9lld %9lld %9lld %8lld %8lld %9lld\n",
                t.name.c_str(), t.weight, static_cast<long long>(t.submitted),
                static_cast<long long>(t.completed),
                static_cast<long long>(t.rejected),
                static_cast<long long>(t.failed),
                static_cast<long long>(t.queued),
                static_cast<long long>(t.scheduled));
  }
}

}  // namespace

namespace {

// Builds a fresh engine from a deployment file (see catalog/deployment.h).
Result<std::unique_ptr<Engine>> EngineFromFile(const std::string& path,
                                               PolicyIndexMode index_mode) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  CGQ_ASSIGN_OR_RETURN(Deployment d, ParseDeployment(buffer.str()));
  size_t locations = d.catalog.locations().num_locations();
  auto engine = std::make_unique<Engine>(
      std::move(d.catalog), NetworkModel::DefaultGeo(locations));
  CGQ_RETURN_NOT_OK(engine->set_policy_index_mode(index_mode));
  CGQ_RETURN_NOT_OK(InstallDeploymentPolicies(
      Deployment{Catalog(engine->catalog()), d.policies},
      &engine->policies()));
  return engine;
}

}  // namespace

int main(int argc, char** argv) {
  PolicyIndexMode index_mode = PolicyIndexMode::kFlat;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--policy-index=flat") {
      index_mode = PolicyIndexMode::kFlat;
    } else if (arg == "--policy-index=hier") {
      index_mode = PolicyIndexMode::kHierarchical;
    } else {
      std::printf("usage: %s [--policy-index=flat|hier]\n", argv[0]);
      return 1;
    }
  }

  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::BuildCatalog(config);
  if (!catalog.ok()) return 1;

  auto engine_ptr = std::make_unique<Engine>(std::move(*catalog),
                                             NetworkModel::DefaultGeo(5));
  if (!engine_ptr->set_policy_index_mode(index_mode).ok()) return 1;
  if (!tpch::InstallPolicySet("CR", &engine_ptr->policies()).ok()) return 1;
  if (!tpch::GenerateData(engine_ptr->catalog(), config,
                          &engine_ptr->store())
           .ok()) {
    return 1;
  }

  std::printf("cgq shell — geo-distributed TPC-H (SF %.3f, policy set CR, "
              "%s policy index)\n"
              "type 'help;' for commands.\n",
              config.scale_factor,
              index_mode == PolicyIndexMode::kHierarchical ? "hier" : "flat");

  // The shell fronts the engine with a single-worker QueryService so
  // tenant registration / auth / quotas behave exactly as they do in a
  // real deployment; the plan cache stays engine-owned ('cache on;').
  ServiceOptions svc_opts;
  svc_opts.max_inflight = 1;
  svc_opts.queue_capacity = 256;
  svc_opts.queue_timeout_ms = 0;  // interactive queries never time out
  svc_opts.enable_plan_cache = false;
  auto service =
      std::make_unique<QueryService>(engine_ptr.get(), svc_opts);
  auto session = std::make_unique<QueryService::Session>(
      service->OpenSession());

  std::string buffer, line;
  std::string trace_path;
  std::unique_ptr<PlanCache> plan_cache;
  while (true) {
    std::printf(buffer.empty() ? "cgq> " : "...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    buffer += line + "\n";
    if (Trim(buffer).empty()) buffer.clear();
    size_t semi = buffer.find(';');
    while (semi != std::string::npos) {
      std::string command(Trim(buffer.substr(0, semi)));
      buffer.erase(0, semi + 1);
      if (Trim(buffer).empty()) buffer.clear();
      semi = buffer.find(';');
      if (command.empty()) continue;
      std::string lower = ToLower(command);
      Engine& engine = *engine_ptr;

      if (lower == "quit" || lower == "exit") return 0;
      if (lower.rfind("source ", 0) == 0) {
        std::string path(Trim(command.substr(7)));
        auto fresh = EngineFromFile(path, index_mode);
        if (!fresh.ok()) {
          std::printf("%s\n", fresh.status().ToString().c_str());
          continue;
        }
        session.reset();
        service.reset();  // the service must not outlive its engine
        engine_ptr = std::move(*fresh);
        if (plan_cache != nullptr) {
          plan_cache->Clear();  // keyed plans belong to the old deployment
          engine_ptr->set_plan_cache(plan_cache.get());
        }
        service = std::make_unique<QueryService>(engine_ptr.get(), svc_opts);
        session = std::make_unique<QueryService::Session>(
            service->OpenSession());
        std::printf("loaded deployment '%s' (%zu locations, %zu tables); "
                    "use 'load <table> <location> <csv>;' for data\n",
                    path.c_str(),
                    engine_ptr->catalog().locations().num_locations(),
                    engine_ptr->catalog().TableNames().size());
        continue;
      }
      if (lower.rfind("load ", 0) == 0) {
        std::istringstream args(command.substr(5));
        std::string table, location, path;
        args >> table >> location >> path;
        if (path.empty()) {
          std::printf("usage: load <table> <location> <csv-file>;\n");
          continue;
        }
        auto loc = engine.catalog().locations().GetId(location);
        if (!loc.ok()) {
          std::printf("%s\n", loc.status().ToString().c_str());
          continue;
        }
        std::ifstream in(path);
        if (!in) {
          std::printf("cannot open '%s'\n", path.c_str());
          continue;
        }
        std::stringstream csv;
        csv << in.rdbuf();
        auto n = LoadCsv(engine.catalog(), table, *loc, csv.str(),
                         &engine.store());
        std::printf("%s\n", n.ok()
                                ? (std::to_string(*n) + " rows loaded").c_str()
                                : n.status().ToString().c_str());
        continue;
      }
      if (lower == "help") {
        Help();
        continue;
      }
      if (lower == "tables") {
        for (const std::string& t : engine.catalog().TableNames()) {
          auto def = engine.catalog().GetTable(t);
          std::printf("  %-10s @ %s (%0.f rows at SF)\n", t.c_str(),
                      engine.catalog()
                          .locations()
                          .SetToString((*def)->LocationsOf())
                          .c_str(),
                      (*def)->stats.row_count);
        }
        continue;
      }
      if (lower == "policies") {
        const LocationCatalog& locs = engine.catalog().locations();
        for (LocationId l = 0; l < locs.num_locations(); ++l) {
          for (const PolicyExpression& e : engine.policies().For(l)) {
            std::printf("  #%-3lld [%s] %s\n",
                        static_cast<long long>(e.id), locs.GetName(l).c_str(),
                        e.ToString(locs).c_str());
          }
        }
        const PolicyCatalog::IndexStats istats = engine.policies().Stats();
        std::printf("  (policy epoch %llu | index %s: %zu policies, "
                    "%zu buckets, largest %zu)\n",
                    static_cast<unsigned long long>(
                        engine.policies().epoch()),
                    engine.policies().index_mode() ==
                            PolicyIndexMode::kHierarchical
                        ? "hier"
                        : "flat",
                    istats.active, istats.buckets, istats.max_bucket);
        continue;
      }
      if (lower.rfind("set ", 0) == 0) {
        std::string name = ToUpper(std::string(Trim(command.substr(4))));
        Status s = (name == "OPEN")
                       ? tpch::InstallUnrestrictedPolicies(&engine.policies())
                       : tpch::InstallPolicySet(name, &engine.policies());
        std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
        continue;
      }
      if (lower.rfind("policy drop ", 0) == 0) {
        std::string arg(Trim(command.substr(12)));
        char* end = nullptr;
        long long id = std::strtoll(arg.c_str(), &end, 10);
        if (arg.empty() || end == nullptr || *end != '\0') {
          std::printf("usage: policy drop <id>; (ids: 'policies;')\n");
          continue;
        }
        Status s = engine.policies().RemovePolicy(id);
        std::printf("%s\n", s.ok() ? "ok (cached plans depending on it are "
                                     "invalid from this epoch)"
                                   : s.ToString().c_str());
        continue;
      }
      if (lower.rfind("policy ", 0) == 0) {
        size_t colon = command.find(':');
        if (colon == std::string::npos) {
          std::printf("usage: policy <location>: ship ...;\n");
          continue;
        }
        std::string loc(Trim(command.substr(7, colon - 7)));
        std::string text(Trim(command.substr(colon + 1)));
        Status s = engine.AddPolicy(loc, text);
        std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
        continue;
      }
      if (lower == "lint") {
        auto findings = LintPolicies(engine.catalog(), engine.policies());
        if (findings.empty()) std::printf("no findings\n");
        for (const PolicyLintFinding& f : findings) {
          std::printf("  %s\n", f.ToString().c_str());
        }
        continue;
      }
      if (lower == "dump") {
        std::printf("%s",
                    WriteDeployment(engine.catalog(), engine.policies())
                        .c_str());
        continue;
      }
      if (lower == "analyze") {
        Status s = AnalyzeAll(engine.store(), &engine.catalog());
        std::printf("%s\n", s.ok() ? "statistics refreshed"
                                   : s.ToString().c_str());
        continue;
      }
      if (lower.rfind("dot ", 0) == 0) {
        auto r = engine.Optimize(command.substr(4));
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
          continue;
        }
        std::printf("%s",
                    PlanToDot(*r->plan, &engine.catalog().locations())
                        .c_str());
        continue;
      }
      if (lower.rfind("why ", 0) == 0) {
        auto r = engine.Optimize(command.substr(4));
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
          continue;
        }
        PolicyEvaluator evaluator(&engine.catalog(), &engine.policies());
        std::printf("%s",
                    ExplainCompliance(*r->plan, evaluator,
                                      engine.catalog().locations())
                        .c_str());
        continue;
      }
      if (lower.rfind("explain ", 0) == 0 ||
          lower.rfind("baseline ", 0) == 0) {
        bool baseline = lower[0] == 'b';
        std::string sql = command.substr(baseline ? 9 : 8);
        OptimizerOptions opts;
        opts.compliant = !baseline;
        auto r = engine.Optimize(sql, opts);
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
          continue;
        }
        std::printf("%s plan (%s), est. communication %.1f ms:\n%s",
                    baseline ? "traditional" : "compliant",
                    r->compliant ? "compliant" : "NON-COMPLIANT",
                    r->comm_cost_ms,
                    PlanToString(*r->plan, &engine.catalog().locations())
                        .c_str());
        for (const std::string& v : r->violations) {
          std::printf("  violation: %s\n", v.c_str());
        }
        std::printf("%s", FormatPhaseTimings(r->stats, ExecMetrics()).c_str());
        continue;
      }
      if (lower.rfind("select", 0) == 0) {
        auto r = session->Run(command);
        if (engine.tracing() && !trace_path.empty()) {
          Status ts = engine.DumpTraceToFile(trace_path);
          std::printf("%s\n",
                      ts.ok() ? ("trace written to " + trace_path).c_str()
                              : ts.ToString().c_str());
        }
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
          continue;
        }
        PrintResult(*r, &engine.catalog().locations());
        continue;
      }
      if (lower.rfind("exec ", 0) == 0) {
        std::string mode(Trim(command.substr(5)));
        if (mode == "row") {
          engine.set_exec_mode(ExecMode::kRow);
        } else if (mode == "fragment") {
          engine.set_exec_mode(ExecMode::kFragment);
        } else if (mode == "distributed") {
          if (!engine.cluster().connected()) {
            std::printf(
                "no cluster connected; run 'deploy <hosts-file>;' first\n");
            continue;
          }
          engine.set_exec_mode(ExecMode::kDistributed);
        } else {
          std::printf(
              "unknown backend '%s' (row|fragment|distributed)\n",
              mode.c_str());
          continue;
        }
        // Sessions snapshot executor options at open time; follow the
        // engine-level switch so subsequent queries use the new backend.
        session->executor_options() = engine.default_exec_options();
        std::printf("execution backend: %s\n",
                    ExecModeToString(engine.default_exec_options().mode));
        continue;
      }
      if (lower.rfind("storage", 0) == 0) {
        std::string arg(Trim(command.substr(7)));
        if (arg.empty()) {
          std::printf("storage: %s\n",
                      engine.store().storage_mode() == StorageMode::kDisk
                          ? ("disk (" + engine.store().data_dir() + ")")
                                .c_str()
                          : "memory");
        } else if (arg == "off") {
          Status s = engine.DisableDiskStorage();
          std::printf("%s\n", s.ok() ? "storage: memory (disk state left "
                                       "intact on disk)"
                                     : s.ToString().c_str());
        } else {
          Status s = engine.EnableDiskStorage(arg);
          std::printf("%s\n",
                      s.ok() ? ("storage: disk (" + arg +
                                "); loads are durable, scans stream "
                                "blocks — see the 'storage:' result "
                                "footer line")
                                   .c_str()
                             : s.ToString().c_str());
        }
        continue;
      }
      if (lower.rfind("budget", 0) == 0) {
        std::string arg(Trim(command.substr(6)));
        if (arg.empty() || arg == "off") {
          engine.default_exec_options().memory_budget_bytes = 0;
          std::printf("memory budget: unlimited\n");
        } else {
          char* end = nullptr;
          unsigned long long bytes = std::strtoull(arg.c_str(), &end, 10);
          if (end == nullptr || *end != '\0' || bytes == 0) {
            std::printf("usage: budget <bytes|off>;\n");
            continue;
          }
          engine.default_exec_options().memory_budget_bytes = bytes;
          std::printf("memory budget: %llu bytes per query (hash joins "
                      "over it grace-spill; see the 'storage:' footer)\n",
                      bytes);
        }
        session->executor_options() = engine.default_exec_options();
        continue;
      }
      if (lower.rfind("deploy ", 0) == 0) {
        std::string path(Trim(command.substr(7)));
        auto endpoints = net::ParseHostsFile(path);
        if (!endpoints.ok()) {
          std::printf("%s\n", endpoints.status().ToString().c_str());
          continue;
        }
        Status s = engine.ConnectCluster(*endpoints);
        if (s.ok()) s = engine.DeployStore();
        if (!s.ok()) {
          std::printf("%s\n", s.ToString().c_str());
          continue;
        }
        std::printf(
            "deployed %zu location(s) across %zu server(s); "
            "'exec distributed;' to use them\n",
            endpoints->size(),
            [&] {
              std::set<net::Endpoint> servers;
              for (const auto& [loc, ep] : *endpoints) servers.insert(ep);
              return servers.size();
            }());
        continue;
      }
      if (lower.rfind("cache", 0) == 0) {
        std::string arg(Trim(command.substr(5)));
        if (arg == "on") {
          if (plan_cache == nullptr) {
            plan_cache = std::make_unique<PlanCache>();
          }
          engine.set_plan_cache(plan_cache.get());
          std::printf("plan cache on (%zu MB budget); repeated queries skip "
                      "the optimizer until a relevant policy changes\n",
                      plan_cache->options().max_bytes >> 20);
        } else if (arg == "off") {
          engine.set_plan_cache(nullptr);
          std::printf("plan cache off\n");
        } else if (arg == "stats") {
          if (plan_cache == nullptr) {
            std::printf("plan cache was never enabled\n");
          } else {
            PlanCacheStats cs = plan_cache->stats();
            std::printf(
                "plan cache: %lld hit(s) (%lld exact, %lld parameterized), "
                "%lld miss(es), %lld invalidation(s), %lld revalidation(s), "
                "%lld eviction(s), %lld refused insert(s); %zu entr%s / "
                "%.1f KB resident; policy epoch %llu\n",
                static_cast<long long>(cs.hits),
                static_cast<long long>(cs.exact_hits),
                static_cast<long long>(cs.param_hits),
                static_cast<long long>(cs.misses),
                static_cast<long long>(cs.invalidations),
                static_cast<long long>(cs.revalidations),
                static_cast<long long>(cs.evictions),
                static_cast<long long>(cs.refused), cs.entries,
                cs.entries == 1 ? "y" : "ies", cs.bytes / 1024.0,
                static_cast<unsigned long long>(engine.policies().epoch()));
            PrintTenantCounters(*service);
          }
        } else {
          std::printf("usage: cache <on|off|stats>;\n");
        }
        continue;
      }
      if (lower == "tenants") {
        PrintTenantCounters(*service);
        continue;
      }
      if (lower.rfind("tenant ", 0) == 0) {
        std::istringstream args(command.substr(7));
        std::string name, token;
        TenantQuotas q;
        args >> name >> token >> q.weight >> q.max_inflight >> q.max_queued;
        if (name.empty() || token.empty()) {
          std::printf("usage: tenant <name> <token> "
                      "[weight [max-inflight [max-queued]]];\n");
          continue;
        }
        auto id = service->tenants().Register(name, token, q);
        if (!id.ok()) {
          std::printf("%s\n", id.status().ToString().c_str());
          continue;
        }
        std::printf("tenant '%s' registered (id %lld); "
                    "'auth %s;' to run as it\n",
                    name.c_str(), static_cast<long long>(*id),
                    token.c_str());
        continue;
      }
      if (lower.rfind("quota ", 0) == 0) {
        std::istringstream args(command.substr(6));
        std::string name;
        TenantQuotas q;
        args >> name >> q.weight >> q.max_inflight >> q.max_queued;
        if (name.empty() || args.fail()) {
          std::printf(
              "usage: quota <name> <weight> <max-inflight> <max-queued>;\n");
          continue;
        }
        Status s = Status::NotFound("unknown tenant '" + name + "'");
        for (const TenantInfo& t : service->tenants().List()) {
          if (t.name == name) {
            s = service->tenants().SetQuotas(t.id, q);
            break;
          }
        }
        std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
        continue;
      }
      if (lower.rfind("auth", 0) == 0) {
        std::string token(Trim(command.substr(4)));
        if (token.empty() || token == "off") {
          session = std::make_unique<QueryService::Session>(
              service->OpenSession());
          std::printf("session tenant: default\n");
          continue;
        }
        auto opened = service->OpenSession(token);
        if (!opened.ok()) {
          std::printf("%s\n", opened.status().ToString().c_str());
          continue;
        }
        session = std::make_unique<QueryService::Session>(std::move(*opened));
        session->executor_options() = engine.default_exec_options();
        std::printf("session tenant: %s\n", session->tenant_name().c_str());
        continue;
      }
      if (lower.rfind("trace", 0) == 0) {
        std::string arg(Trim(command.substr(5)));
        if (arg.empty() || arg == "off") {
          engine.set_tracing(false);
          trace_path.clear();
          std::printf("tracing off\n");
        } else {
          trace_path = arg;
          engine.set_tracing(true);
          std::printf("tracing on: every query writes Chrome trace JSON "
                      "to '%s' (open in chrome://tracing or "
                      "ui.perfetto.dev)\n", trace_path.c_str());
        }
        continue;
      }
      if (lower.rfind("faults", 0) == 0) {
        std::string arg(Trim(command.substr(6)));
        if (arg.empty() || arg == "off") {
          engine.mutable_net().ClearLinkFaults();
          std::printf("link faults cleared\n");
        } else {
          double p = std::atof(arg.c_str());
          if (p < 0 || p >= 1) {
            std::printf("faults: drop probability must be in [0, 1), "
                        "got '%s'\n", arg.c_str());
            continue;
          }
          engine.mutable_net().ApplyLossyProfile(p, /*extra_latency_ms=*/5);
          std::printf(
              "lossy profile: every cross-site link drops %.0f%% of "
              "batches (retries show in the result footer)\n", p * 100);
        }
        continue;
      }
      std::printf("unknown command (try 'help;')\n");
    }
  }
  std::printf("\n");
  return 0;
}
