// Figure 6(g,h): plan quality — execution (communication) cost of the
// compliant plan scaled to the traditional plan's, under policy sets C and
// CR. Both plans are *executed* on generated TPC-H data; shipping is
// charged with the message cost model alpha_ij + beta_ij * bytes, with
// alpha/beta derived from inter-region RTT and throughput (§7.4).
//
// Annotations per query: whether each plan is compliant (C/NC) and whether
// the two plans are identical (=) or different (/=). Expected shape: equal
// cost whenever the traditional plan is already compliant; overhead (up to
// ~20x for Q2, which must ship the big Supplier side) otherwise.
//
// Every cell runs under the backends selected by --exec-mode; when both
// run, the bench exits non-zero unless the fragmented runtime reproduced
// the row interpreter's rows and ship metrics exactly.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/optimizer.h"
#include "exec/executor.h"
#include "net/network_model.h"
#include "tpch/tpch.h"

using namespace cgq;  // NOLINT

namespace {

struct Measured {
  double network_ms = 0;
  int64_t rows = 0;
  int64_t ships = 0;
  int64_t rows_shipped = 0;
  double bytes_shipped = 0;
  bool ok = false;
};

Measured Measure(const Executor& executor, const OptimizedQuery& q) {
  Measured m;
  auto r = executor.Execute(q);
  if (!r.ok()) return m;
  m.network_ms = r->metrics.network_ms;
  m.rows = static_cast<int64_t>(r->rows.size());
  m.ships = r->metrics.ships;
  m.rows_shipped = r->metrics.rows_shipped;
  m.bytes_shipped = r->metrics.bytes_shipped;
  m.ok = true;
  return m;
}

bool Agree(const Measured& a, const Measured& b) {
  return a.ok && b.ok && a.rows == b.rows && a.ships == b.ships &&
         a.rows_shipped == b.rows_shipped &&
         a.bytes_shipped == b.bytes_shipped;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::BenchOptions::Parse(argc, argv);
  bench::JsonReport report(opts.json_path);

  tpch::TpchConfig config;
  config.scale_factor = 0.01;  // executed for real: keep it small
  auto catalog = tpch::BuildCatalog(config);
  if (!catalog.ok()) return 1;
  NetworkModel net = NetworkModel::DefaultGeo(5);
  PolicyCatalog policies(&*catalog);

  TableStore store;
  if (!tpch::GenerateData(*catalog, config, &store).ok()) return 1;

  int mismatches = 0;
  for (const char* set : {"C", "CR"}) {
    if (!tpch::InstallPolicySet(set, &policies).ok()) return 1;

    for (const char* mode : opts.ExecModes()) {
      ExecutorOptions eopts;
      eopts.mode = std::string(mode) == "row" ? ExecMode::kRow
                                              : ExecMode::kFragment;
      eopts.batch_size = opts.batch_size;
      eopts.threads = opts.threads;
      Executor executor(&store, &net, eopts);
      // The reference row interpreter, for the cross-backend check.
      Executor row_executor(&store, &net);

      bench::PrintHeader(
          std::string("Fig 6(") + (set[1] == 'R' ? 'h' : 'g') +
          "): scaled execution cost under set " + set + ", backend '" +
          mode + "' (network ms, traditional = 1x)");
      std::printf("%-6s %-14s %-14s %-12s %-10s %-6s\n", "Query",
                  "trad [net ms]", "compl [net ms]", "scaled cost",
                  "verdicts", "plans");

      for (int q : tpch::QueryNumbers()) {
        std::string sql = *tpch::Query(q);
        OptimizerOptions trad_opts;
        trad_opts.compliant = false;
        QueryOptimizer traditional(&*catalog, &policies, &net, trad_opts);
        QueryOptimizer compliant(&*catalog, &policies, &net, {});

        auto t = traditional.Optimize(sql);
        auto c = compliant.Optimize(sql);
        if (!t.ok() || !c.ok()) {
          std::printf("Q%-5d optimization failed\n", q);
          continue;
        }
        Measured mt = Measure(executor, *t);
        Measured mc = Measure(executor, *c);
        if (!mt.ok || !mc.ok) {
          std::printf("Q%-5d execution failed\n", q);
          ++mismatches;
          continue;
        }
        // The fragment runtime must agree with the row interpreter on
        // rows and ship metrics for both plans.
        if (eopts.mode != ExecMode::kRow) {
          if (!Agree(mt, Measure(row_executor, *t)) ||
              !Agree(mc, Measure(row_executor, *c))) {
            std::printf("Q%-5d BACKEND MISMATCH under set %s\n", q, set);
            ++mismatches;
          }
        }
        bool same_plan = PlanToString(*t->plan, nullptr) ==
                         PlanToString(*c->plan, nullptr);
        double scaled =
            mt.network_ms > 0 ? mc.network_ms / mt.network_ms : 1.0;
        std::printf("Q%-5d %-14.1f %-14.1f %-12.2f %s->%s     %s\n", q,
                    mt.network_ms, mc.network_ms, scaled,
                    t->compliant ? "C" : "NC", c->compliant ? "C" : "NC",
                    same_plan ? "=" : "/=");

        bench::JsonRow jrow;
        jrow.Set("bench", "fig6gh")
            .Set("policy_set", set)
            .Set("exec_mode", mode)
            .Set("query", q)
            .Set("trad_network_ms", mt.network_ms)
            .Set("compliant_network_ms", mc.network_ms)
            .Set("scaled_cost", scaled)
            .Set("rows", mc.rows)
            .Set("ships", mc.ships)
            .Set("rows_shipped", mc.rows_shipped)
            .Set("bytes_shipped", mc.bytes_shipped)
            .Set("trad_compliant", t->compliant)
            .Set("same_plan", same_plan);
        report.Add(jrow);
      }
    }
  }
  std::printf("\n(scaled cost 1.00 with '=' reproduces the paper's "
              "observation: identical plans whenever the traditional plan "
              "is compliant)\n");
  if (!report.Flush()) return 1;
  return mismatches == 0 ? 0 : 1;
}
