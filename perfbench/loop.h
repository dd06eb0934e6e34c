// Closed-loop load generation through QueryService sessions, shared by
// the adhoc_compile and analytics_* workloads, plus the per-query probe
// calls a traced run makes into the sql and plan layers.

#ifndef CGQ_PERFBENCH_LOOP_H_
#define CGQ_PERFBENCH_LOOP_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "catalog/catalog.h"
#include "layers.h"
#include "service/query_service.h"

namespace perfbench {

/// What a query must produce; checked as soon as it completes.
struct Expected {
  bool accept = true;  ///< false: the query must be rejected kNonCompliant
  uint64_t digest = 0;
  ShipAccount ships;
};

/// One query a client submits.
struct Job {
  const std::string* sql = nullptr;
  cgq::QueryService::Session* session = nullptr;
  const Expected* expected = nullptr;  ///< nullptr: outcome not checked
  std::string klass;                   ///< geomean_ms class
};

struct LoopHooks {
  /// The i-th query of `client`.
  std::function<Job(int client, int64_t i)> next;
  /// Queries of client 0 between two checkpoints of the window. The
  /// end-to-end metrics are medians over the intervals between
  /// checkpoints, so a stretch of the window on a contended host moves
  /// them only when it covers about half the window. On the analytics
  /// workloads a block is one round of the twelve queries, so every
  /// interval holds the same mix.
  int64_t block = 1;
  /// Queries per client after which the window ends early; 0: none.
  int64_t limit = 0;
  /// Traced runs: extra probe calls after a query succeeded; fills the
  /// rebind, check, net and storage shares of `p`.
  std::function<void(const Job&, const cgq::QueryResult&, ProbeShares* p)>
      after;
};

/// A query latency and the interval of the window it completed in.
struct Sample {
  int interval = 0;
  double ms = 0;
};

/// Process state at a checkpoint of the window (the end of a block of
/// client 0).
struct Checkpoint {
  double ms = 0;      ///< since the window started
  double cpu_ms = 0;  ///< process user + sys
  int64_t answered = 0;  ///< by all clients
};

/// Everything a window measured.
struct LoopStats {
  double steal_share = 0;  ///< of machine CPU time during the window
  double elapsed_ms = 0;
  double cpu_ms = 0;
  int64_t ok = 0;
  int64_t rejected = 0;  ///< expected kNonCompliant outcomes
  /// The window's start, then one per completed block of client 0; the
  /// intervals between them are complete, samples after the last one are
  /// not.
  std::vector<Checkpoint> checkpoints;
  std::vector<Sample> samples;
  std::map<std::string, std::vector<Sample>> class_samples;
  /// Modeled network time of successful queries, per class.
  std::map<std::string, std::vector<double>> class_network_ms;
  Tally tally;
  int64_t iterations = 0;
  int64_t checked = 0;  ///< queries compared against an expectation

  int64_t answered() const { return ok + rejected; }
  std::vector<double> latencies_ms() const;
};

/// Compares a completed query against its expectation; a mismatch is a
/// failure in `tally`.
void CheckOutcome(const Job& job, const cgq::Result<cgq::QueryResult>& r,
                  Tally* tally);

/// Runs `clients` closed-loop clients for `seconds`. With a tracer, each
/// query is probed (parse, bind and normalize of its text, `hooks.after`)
/// and recorded as a client span holding the service session span.
LoopStats RunClosedLoop(int clients, double seconds, const LoopHooks& hooks,
                        const cgq::Catalog* catalog, Tracer* tracer,
                        LayerProbe* probe);

/// Probe calls into the sql and plan layers on `sql`: ParseQuery, then
/// BindQuery + BuildLogicalPlan, then ParameterizeSql. Fills the three
/// timings of `p`.
void ProbeText(const cgq::Catalog& catalog, const std::string& sql,
               Tracer* tracer, LayerProbe* probe, ProbeShares* p);

/// Fills the end-to-end metrics a closed-loop window determines.
void EmitLoopMetrics(const LoopStats& s, MetricSink* out);

}  // namespace perfbench

#endif  // CGQ_PERFBENCH_LOOP_H_
