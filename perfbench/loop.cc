#include "loop.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "plan/binder.h"
#include "plan/builder.h"
#include "sql/param_normalizer.h"
#include "sql/parser.h"

namespace perfbench {

void CheckOutcome(const Job& job, const cgq::Result<cgq::QueryResult>& r,
                  Tally* tally) {
  const Expected* e = job.expected;
  if (!r.ok()) {
    if (!r.status().IsNonCompliant()) {
      tally->Fail("query failed: " + r.status().ToString());
    } else if (e != nullptr && e->accept) {
      tally->Fail("rejected, reference accepts: " + *job.sql);
    }
    return;
  }
  if (e == nullptr) return;
  if (!e->accept) {
    tally->Fail("accepted, reference rejects: " + *job.sql);
  } else if (ResultDigest(*r) != e->digest) {
    tally->Fail("result digest differs from the row reference: " + *job.sql);
  } else if (!(ShipAccountOf(r->metrics) == e->ships)) {
    tally->Fail("ship accounting differs from the row reference: " +
                *job.sql);
  }
}

void ProbeText(const cgq::Catalog& catalog, const std::string& sql,
               Tracer* tracer, LayerProbe* probe, ProbeShares* p) {
  auto t0 = Clock::now();
  cgq::Result<cgq::QueryAst> ast = [&] {
    ScopedSpan span(tracer, "probe.sql.parse", -1);
    return cgq::ParseQuery(sql);
  }();
  p->parse_ms = MsSince(t0);
  probe->Sample("sql.parse_ms", p->parse_ms);
  if (ast.ok()) {
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "probe.plan.bind", -1);
      cgq::PlannerContext ctx(&catalog);
      auto bound = cgq::BindQuery(*ast, &ctx);
      if (bound.ok()) (void)cgq::BuildLogicalPlan(*bound, &ctx);
    }
    p->bind_ms = MsSince(t0);
    probe->Sample("plan.bind_ms", p->bind_ms);
  }
  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "probe.sql.normalize", -1);
    (void)cgq::ParameterizeSql(sql);
  }
  p->normalize_ms = MsSince(t0);
  probe->Sample("sql.normalize_ms", p->normalize_ms);
}

std::vector<double> LoopStats::latencies_ms() const {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) v.push_back(s.ms);
  return v;
}

LoopStats RunClosedLoop(int clients, double seconds, const LoopHooks& hooks,
                        const cgq::Catalog* catalog, Tracer* tracer,
                        LayerProbe* probe) {
  std::vector<LoopStats> per(static_cast<size_t>(clients));
  std::vector<Checkpoint> checkpoints;  // written by client 0 only
  std::atomic<int64_t> answered{0};
  std::atomic<int> interval{0};
  const double cpu0 = ProcessCpuMs();
  const CpuTicks ticks0 = ProcStatTicks();
  const auto start = Clock::now();
  checkpoints.push_back({0, cpu0, 0});
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& s = per[static_cast<size_t>(c)];
      for (int64_t i = 0;
           Clock::now() < deadline && (hooks.limit == 0 || i < hooks.limit);
           ++i) {
        const Job job = hooks.next(c, i);
        ProbeShares shares;
        if (tracer != nullptr) {
          ProbeText(*catalog, *job.sql, tracer, probe, &shares);
        }
        ScopedSpan root(tracer, "client.query", -1, c);
        ScopedSpan session(tracer, kSessionSpan, root.id(), c);
        const bool cpu_probe = tracer != nullptr && clients == 1;
        const double cpu0 = cpu_probe ? ProcessCpuMs() : 0;
        const auto t0 = Clock::now();
        cgq::Result<cgq::QueryResult> r = job.session->Run(*job.sql);
        const double ms = MsSince(t0);
        const double cpu_ms = cpu_probe ? ProcessCpuMs() - cpu0 : 0;
        session.End();
        ++s.iterations;
        ++s.tally.attempted;
        if (job.expected != nullptr) ++s.checked;
        CheckOutcome(job, r, &s.tally);
        root.End();
        const bool answer = r.ok() || r.status().IsNonCompliant();
        if (answer) answered.fetch_add(1);
        const Sample sample{interval.load(), ms};
        if (c == 0 && (i + 1) % hooks.block == 0) {
          checkpoints.push_back(
              {MsSince(start), ProcessCpuMs(), answered.load()});
          interval.fetch_add(1);
        }
        if (r.ok()) {
          ++s.ok;
          s.class_network_ms[job.klass].push_back(r->metrics.network_ms);
          if (tracer != nullptr) {
            if (cpu_probe) {
              probe->Sample("exec.cpu_ms",
                            std::max(0.0, cpu_ms - r->opt_stats.total_ms));
            }
            if (hooks.after) hooks.after(job, *r, &shares);
            probe->Observe(*r, ms, session.id(), shares);
          }
        } else if (answer) {
          ++s.rejected;
        }
        if (!answer) continue;  // failures carry no latency sample
        s.samples.push_back(sample);
        s.class_samples[job.klass].push_back(sample);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoopStats all;
  all.elapsed_ms = MsSince(start);
  all.cpu_ms = ProcessCpuMs() - cpu0;
  all.steal_share = StealShare(ticks0, ProcStatTicks());
  all.checkpoints = std::move(checkpoints);
  for (LoopStats& s : per) {
    all.ok += s.ok;
    all.rejected += s.rejected;
    all.iterations += s.iterations;
    all.checked += s.checked;
    all.samples.insert(all.samples.end(), s.samples.begin(), s.samples.end());
    for (auto& [k, v] : s.class_samples) {
      auto& dst = all.class_samples[k];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    for (auto& [k, v] : s.class_network_ms) {
      auto& dst = all.class_network_ms[k];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    all.tally.Merge(s.tally);
  }
  return all;
}

namespace {

/// Median over the complete intervals of each interval's median sample.
/// A window too short for one interval is one interval.
double IntervalMedian(const std::vector<Sample>& samples, int intervals) {
  std::map<int, std::vector<double>> by_interval;
  for (const Sample& s : samples) {
    if (intervals == 0 || s.interval < intervals) {
      by_interval[s.interval].push_back(s.ms);
    }
  }
  std::vector<double> medians;
  for (auto& [i, v] : by_interval) medians.push_back(Median(std::move(v)));
  return Median(std::move(medians));
}

}  // namespace

void EmitLoopMetrics(const LoopStats& s, MetricSink* out) {
  const int intervals = static_cast<int>(s.checkpoints.size()) - 1;
  // Rates per complete interval; a window too short for one interval is
  // measured whole.
  std::vector<double> qps, cpu_per_query;
  for (int k = 1; k <= intervals; ++k) {
    const Checkpoint& a = s.checkpoints[static_cast<size_t>(k - 1)];
    const Checkpoint& b = s.checkpoints[static_cast<size_t>(k)];
    const double n = static_cast<double>(b.answered - a.answered);
    if (n <= 0 || b.ms <= a.ms) continue;
    qps.push_back(n * 1000.0 / (b.ms - a.ms));
    cpu_per_query.push_back((b.cpu_ms - a.cpu_ms) / n);
  }
  const double answered = static_cast<double>(s.answered());
  const double window_qps =
      s.elapsed_ms > 0 ? answered * 1000.0 / s.elapsed_ms : 0;
  if (qps.empty()) {
    qps.push_back(window_qps);
    cpu_per_query.push_back(answered > 0 ? s.cpu_ms / answered : 0);
  }
  std::vector<double> class_medians, class_network;
  for (const auto& [k, v] : s.class_samples) {
    class_medians.push_back(IntervalMedian(v, intervals));
  }
  // Mean over the query classes, so the figure does not depend on where in
  // the mix the window happened to end.
  for (const auto& [k, v] : s.class_network_ms) {
    class_network.push_back(Mean(v));
  }
  out->Set("qps", Median(qps), "1/s");
  out->Set("p50_ms", IntervalMedian(s.samples, intervals), "ms");
  out->Set("geomean_ms", GeoMean(class_medians), "ms");
  out->Set("cpu_ms_per_query", Median(cpu_per_query), "ms");
  out->Set("modeled_wan_ms", Mean(class_network), "ms");
  out->Set("info.peak_rss_mb", PeakRssMb(), "MB");
  const std::vector<double> latencies = s.latencies_ms();
  double p = 0;
  const double tail = SupportedTail(latencies, &p);
  out->Set("info.tail_ms", tail, "ms");
  out->Set("info.tail_percentile", 100 * p, "%");
  out->Set("info.samples", static_cast<double>(latencies.size()), "count");
  out->Set("info.intervals", static_cast<double>(intervals), "count");
  out->Set("info.window_qps", window_qps, "1/s");
  out->Set("info.window_cpu_ms_per_query",
           answered > 0 ? s.cpu_ms / answered : 0, "ms");
  out->Set("info.rejected", static_cast<double>(s.rejected), "count");
  out->Set("info.checked", static_cast<double>(s.checked), "count");
  out->Set("info.cpu_steal_share", s.steal_share, "ratio");
}

}  // namespace perfbench
