#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_map>

#include "common/logging.h"
#include "common/trace.h"
#include "exec/batch_ops.h"
#include "exec/distributed_executor.h"
#include "exec/exec_internal.h"
#include "exec/fragment_executor.h"
#include "exec/spill_join.h"
#include "expr/eval.h"

namespace cgq {

using exec_internal::CheckCancelled;
using exec_internal::HashAggregator;
using exec_internal::JoinHashTable;
using exec_internal::JoinSpec;
using exec_internal::LayoutOf;
using exec_internal::PositionsOf;

const char* ExecModeToString(ExecMode mode) {
  switch (mode) {
    case ExecMode::kRow:
      return "row";
    case ExecMode::kFragment:
      return "fragment";
    case ExecMode::kDistributed:
      return "distributed";
  }
  return "?";
}

void ExecMetrics::AddShipEdge(const ChannelStats& edge) {
  ships += 1;
  rows_shipped += edge.rows;
  bytes_shipped += edge.bytes;
  network_ms += edge.network_ms;
  send_retries += edge.send_retries;
  dropped_batches += edge.dropped_batches;
  send_timeouts += edge.send_timeouts;
  recv_timeouts += edge.recv_timeouts;
  backoff_ms += edge.backoff_ms;
  edges.push_back(edge);
}

namespace {

class PlanInterpreter {
 public:
  PlanInterpreter(const TableStore* store, const NetworkModel* net,
                  const ExecutorOptions* options, ExecMetrics* metrics)
      : store_(store), net_(net), options_(options), metrics_(metrics) {}

  Result<RowBatch> Exec(const PlanNode& node) {
    CGQ_RETURN_NOT_OK(CheckCancelled(options_->cancel.get()));
    switch (node.kind()) {
      case PlanKind::kScan:
        return ExecScan(node);
      case PlanKind::kFilter:
        return ExecFilter(node);
      case PlanKind::kProject:
        return ExecProject(node);
      case PlanKind::kJoin:
        return ExecJoin(node);
      case PlanKind::kAggregate:
        return ExecAggregate(node);
      case PlanKind::kUnion:
        return ExecUnion(node);
      case PlanKind::kShip:
        return ExecShip(node);
    }
    return Status::Internal("unhandled plan kind");
  }

 private:
  Result<RowBatch> ExecScan(const PlanNode& node) {
    RowBatch out;
    out.layout = LayoutOf(node);
    if (store_->storage_mode() == StorageMode::kDisk) {
      // Disk mode: stream checksummed blocks instead of pinning the
      // fragment in RAM.
      CGQ_ASSIGN_OR_RETURN(TableStore::Cursor cursor,
                           store_->Scan(node.scan_location, node.table));
      out.rows.reserve(cursor.total_rows());
      std::vector<Row> chunk;
      while (true) {
        CGQ_ASSIGN_OR_RETURN(bool more, cursor.Next(&chunk));
        if (!more) break;
        CGQ_RETURN_NOT_OK(CheckCancelled(options_->cancel.get()));
        for (Row& r : chunk) out.rows.push_back(std::move(r));
      }
      metrics_->storage_blocks_read += cursor.blocks_read();
    } else {
      CGQ_ASSIGN_OR_RETURN(const std::vector<Row>* rows,
                           store_->Get(node.scan_location, node.table));
      out.rows = *rows;
    }
    metrics_->rows_scanned += static_cast<int64_t>(out.rows.size());
    for (const Row& r : out.rows) {
      if (r.size() != out.layout.size()) {
        return Status::Internal("stored row width mismatch for table '" +
                                node.table + "'");
      }
    }
    return out;
  }

  Result<RowBatch> ExecFilter(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(RowBatch in, Exec(*node.child(0)));
    RowBatch out;
    out.layout = in.layout;
    for (Row& row : in.rows) {
      CGQ_ASSIGN_OR_RETURN(
          bool keep, exec_internal::KeepRow(node.conjuncts, row, in.layout));
      if (keep) out.rows.push_back(std::move(row));
    }
    return out;
  }

  Result<RowBatch> ExecProject(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(RowBatch in, Exec(*node.child(0)));
    RowBatch out;
    out.layout = LayoutOf(node);
    CGQ_ASSIGN_OR_RETURN(
        std::vector<size_t> positions,
        PositionsOf(node.project_ids, in.layout, "projection input"));
    out.rows.reserve(in.rows.size());
    for (const Row& row : in.rows) {
      Row projected;
      projected.reserve(positions.size());
      for (size_t p : positions) projected.push_back(row[p]);
      out.rows.push_back(std::move(projected));
    }
    return out;
  }

  Result<RowBatch> ExecJoin(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(RowBatch left, Exec(*node.child(0)));
    CGQ_ASSIGN_OR_RETURN(RowBatch right, Exec(*node.child(1)));
    CGQ_ASSIGN_OR_RETURN(JoinSpec spec,
                         JoinSpec::Make(node, left.layout, right.layout));

    RowBatch out;
    out.layout = LayoutOf(node);

    if (spec.RequiresNestedLoop()) {
      for (const Row& l : left.rows) {
        CGQ_RETURN_NOT_OK(CheckCancelled(options_->cancel.get()));
        for (const Row& r : right.rows) {
          CGQ_RETURN_NOT_OK(spec.EmitIfMatch(l, r, &out.rows).status());
        }
      }
    } else {
      const double build_bytes = left.ByteSize();
      metrics_->max_build_bytes = std::max(
          metrics_->max_build_bytes, static_cast<int64_t>(build_bytes));
      if (options_->memory_budget_bytes > 0 &&
          build_bytes > static_cast<double>(options_->memory_budget_bytes)) {
        // Build side over budget: grace/partitioned spill join. Output
        // is byte-identical to the in-memory hash path below.
        CGQ_RETURN_NOT_OK(SpillJoin(spec, left, right,
                                    static_cast<uint64_t>(build_bytes),
                                    &out.rows));
      } else {
        JoinHashTable table;
        table.Build(left.rows, spec);
        size_t probed = 0;
        for (const Row& r : right.rows) {
          if ((probed++ & 0x3ff) == 0) {
            CGQ_RETURN_NOT_OK(CheckCancelled(options_->cancel.get()));
          }
          CGQ_RETURN_NOT_OK(table.Probe(r, spec, [&](const Row& l) {
            return spec.EmitIfMatch(l, r, &out.rows).status();
          }));
        }
      }
    }
    return out;
  }

  Status SpillJoin(const JoinSpec& spec, const RowBatch& build,
                   const RowBatch& probe, uint64_t build_bytes,
                   std::vector<Row>* out) {
    exec_internal::SpillHashJoin join(
        &spec,
        exec_internal::SpillHashJoin::MakeSpillDir(options_->spill_dir),
        exec_internal::SpillHashJoin::PickPartitions(
            build_bytes, options_->memory_budget_bytes),
        options_->cancel.get());
    CGQ_RETURN_NOT_OK(join.Init());
    CGQ_ASSIGN_OR_RETURN(vec::ColumnBatch build_cols,
                         vec::FromRowBatch(build));
    CGQ_RETURN_NOT_OK(join.AddBuild(build_cols));
    CGQ_ASSIGN_OR_RETURN(vec::ColumnBatch probe_cols,
                         vec::FromRowBatch(probe));
    CGQ_RETURN_NOT_OK(join.AddProbe(probe_cols));
    CGQ_RETURN_NOT_OK(join.Finish([&](vec::ColumnBatch batch) {
      for (Row& row : vec::ToRowBatch(batch).rows) {
        out->push_back(std::move(row));
      }
      return Status::OK();
    }));
    metrics_->spill_partitions += join.partitions();
    metrics_->spill_bytes += join.spill_bytes();
    return Status::OK();
  }

  Result<RowBatch> ExecAggregate(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(RowBatch in, Exec(*node.child(0)));
    RowBatch out;
    out.layout = LayoutOf(node);
    HashAggregator agg(&node);
    CGQ_RETURN_NOT_OK(agg.Init(in.layout));
    for (const Row& row : in.rows) {
      CGQ_RETURN_NOT_OK(agg.Add(row));
    }
    out.rows = agg.Finish();
    return out;
  }

  Result<RowBatch> ExecUnion(const PlanNode& node) {
    RowBatch out;
    out.layout = LayoutOf(node);
    for (const PlanNodePtr& child : node.children()) {
      CGQ_ASSIGN_OR_RETURN(RowBatch b, Exec(*child));
      // Remap to the union's canonical attribute order.
      CGQ_ASSIGN_OR_RETURN(
          std::vector<size_t> positions,
          PositionsOf(out.layout.attrs(), b.layout, "union branch"));
      for (const Row& row : b.rows) {
        Row mapped;
        mapped.reserve(positions.size());
        for (size_t p : positions) mapped.push_back(row[p]);
        out.rows.push_back(std::move(mapped));
      }
    }
    return out;
  }

  Result<RowBatch> ExecShip(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(RowBatch in, Exec(*node.child(0)));
    // Route the one-message transfer through a ShipChannel so both
    // backends share the fault simulation, retry and accounting
    // semantics; the intermediate crosses it in column form, like every
    // fragment runtime SHIP. A failed transfer — link down, retries
    // exhausted — aborts the query with the channel's structured status,
    // never a partial result.
    CGQ_ASSIGN_OR_RETURN(vec::ColumnBatch columns, vec::FromRowBatch(in));
    ShipChannel channel(node.ship_from, node.ship_to, /*capacity=*/0,
                        net_, options_->retry);
    CGQ_RETURN_NOT_OK(channel.Send(std::move(columns)));
    channel.CloseProducer();
    RowBatch out{std::move(in.layout), {}};
    vec::ColumnBatch delivered;
    if (channel.Pop(&delivered)) out = vec::ToRowBatch(delivered);

    metrics_->AddShipEdge(channel.stats());
    return out;
  }

  const TableStore* store_;
  const NetworkModel* net_;
  const ExecutorOptions* options_;
  ExecMetrics* metrics_;
};

}  // namespace

std::string FormatPhaseTimings(const OptimizationStats& opt,
                               const ExecMetrics& metrics) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "timing: optimize " << opt.total_ms << " ms (parse+bind "
     << opt.prepare_ms << ", explore " << opt.explore_ms << ", annotate "
     << opt.annotate_ms << ", site " << opt.site_ms << ")";
  if (metrics.exec_wall_ms > 0) {
    os << ", execute " << metrics.exec_wall_ms << " ms (simulated WAN "
       << metrics.network_ms << " ms)";
  }
  os << "\n";
  if (opt.cache_consulted) {
    os << "plan cache: "
       << (opt.cache_hit ? (opt.cache_param_hit ? "hit (parameterized)"
                                                : "hit (exact)")
                         : "miss")
       << ", epoch "
       << opt.policy_epoch << ", " << opt.cache_entries << " entr"
       << (opt.cache_entries == 1 ? "y" : "ies") << " / "
       << opt.cache_bytes / 1024.0 << " KB resident\n";
  }
  return os.str();
}

std::string FormatExecMetrics(const ExecMetrics& metrics,
                              const LocationCatalog* locations) {
  auto site_name = [&](LocationId l) {
    if (locations != nullptr) return locations->GetName(l);
    const std::string id = std::to_string(l);
    return "l" + id;
  };
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << "execution: " << metrics.rows_scanned << " rows scanned, "
     << metrics.ships << " ship edge(s), " << metrics.rows_shipped
     << " rows / " << metrics.bytes_shipped / 1024.0
     << " KB shipped, simulated WAN time " << metrics.network_ms << " ms\n";
  if (metrics.send_retries != 0 || metrics.dropped_batches != 0 ||
      metrics.send_timeouts != 0 || metrics.recv_timeouts != 0 ||
      metrics.fragment_restarts != 0) {
    os << "recovery: " << metrics.send_retries << " send retr"
       << (metrics.send_retries == 1 ? "y" : "ies") << ", "
       << metrics.dropped_batches << " dropped batch(es), "
       << metrics.send_timeouts + metrics.recv_timeouts << " timeout(s), "
       << metrics.fragment_restarts << " fragment restart(s), "
       << metrics.backoff_ms << " ms backoff (shipped volume includes "
       << "reattempts)\n";
  }
  if (metrics.storage_blocks_read != 0 || metrics.spill_partitions != 0 ||
      metrics.spill_bytes != 0) {
    os << "storage: " << metrics.storage_blocks_read
       << " block(s) read, " << metrics.spill_partitions
       << " spill partition(s), " << metrics.spill_bytes / 1024.0
       << " KB spilled\n";
  }
  for (const ChannelStats& e : metrics.edges) {
    os << "  ship " << site_name(e.from) << " -> " << site_name(e.to)
       << ": " << e.rows << " rows / " << e.bytes / 1024.0 << " KB in "
       << e.batches << " batch(es), peak " << e.peak_in_flight
       << " in flight, " << e.network_ms << " net ms";
    if (e.send_retries != 0 || e.dropped_batches != 0) {
      os << ", " << e.send_retries << " retr"
         << (e.send_retries == 1 ? "y" : "ies") << " / "
         << e.dropped_batches << " dropped";
    }
    os << "\n";
  }
  for (const FragmentMetrics& f : metrics.fragments) {
    os << "  fragment #" << f.id << " @ " << site_name(f.site) << ": "
       << f.wall_ms << " ms wall, " << f.rows_scanned << " rows scanned, "
       << f.rows_out << " rows out";
    if (f.restarts != 0) os << ", " << f.restarts << " restart(s)";
    os << "\n";
  }
  return os.str();
}

Result<QueryResult> Executor::ExecutePlan(const PlanNode& plan) const {
  if (options_.mode == ExecMode::kFragment) {
    return ExecuteFragmentedPlan(plan, store_, net_, options_);
  }
  if (options_.mode == ExecMode::kDistributed) {
    return ExecuteDistributedPlan(plan, store_, net_, options_);
  }
  QueryResult result;
  PlanInterpreter interp(store_, net_, &options_, &result.metrics);
  CGQ_ASSIGN_OR_RETURN(RowBatch batch, interp.Exec(plan));
  for (const OutputCol& c : plan.outputs) result.column_names.push_back(c.name);
  result.rows = std::move(batch.rows);
  return result;
}

Result<QueryResult> Executor::Execute(const OptimizedQuery& query) const {
  auto start = std::chrono::steady_clock::now();
  TraceSpan span("execute");
  span.AddArg("mode", std::string(ExecModeToString(options_.mode)));
  CGQ_ASSIGN_OR_RETURN(QueryResult result, ExecutePlan(*query.plan));
  if (!query.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> keys;  // (column index, desc)
    for (const OrderItemAst& item : query.order_by) {
      bool found = false;
      for (size_t i = 0; i < result.column_names.size(); ++i) {
        if (result.column_names[i] == item.name) {
          keys.emplace_back(i, item.descending);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::Internal("ORDER BY column '" + item.name +
                                "' missing from result");
      }
    }
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (auto [idx, desc] : keys) {
                         const Value& va = a[idx];
                         const Value& vb = b[idx];
                         if (va.is_null() || vb.is_null()) {
                           if (va.is_null() != vb.is_null()) {
                             return desc ? !va.is_null() : va.is_null();
                           }
                           continue;
                         }
                         int c = va.Compare(vb);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  if (query.limit && result.rows.size() > static_cast<size_t>(*query.limit)) {
    result.rows.resize(static_cast<size_t>(*query.limit));
  }
  result.opt_stats = query.stats;
  result.metrics.exec_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Span arguments stay deterministic: only simulated / counted values,
  // never real wall time.
  span.AddArg("ships", result.metrics.ships);
  span.AddArg("rows_shipped", result.metrics.rows_shipped);
  span.AddArg("bytes_shipped", result.metrics.bytes_shipped);
  span.AddArg("rows_scanned", result.metrics.rows_scanned);
  span.AddArg("send_retries", result.metrics.send_retries);
  span.AddArg("network_ms", result.metrics.network_ms);
  CGQ_COUNTER_ADD("exec.queries", 1);
  CGQ_COUNTER_ADD("exec.ships", result.metrics.ships);
  CGQ_COUNTER_ADD("exec.rows_shipped", result.metrics.rows_shipped);
  CGQ_COUNTER_ADD("exec.bytes_shipped",
                  static_cast<int64_t>(result.metrics.bytes_shipped));
  CGQ_COUNTER_ADD("exec.rows_scanned", result.metrics.rows_scanned);
  CGQ_COUNTER_ADD("exec.send_retries", result.metrics.send_retries);
  CGQ_COUNTER_ADD("exec.dropped_batches", result.metrics.dropped_batches);
  CGQ_COUNTER_ADD("exec.timeouts", result.metrics.send_timeouts +
                                       result.metrics.recv_timeouts);
  CGQ_COUNTER_ADD("exec.fragment_restarts",
                  result.metrics.fragment_restarts);
  // storage.blocks_read / storage.spill_* registry counters are bumped at
  // the cursor / spill-file write sites; here only the span is annotated.
  span.AddArg("storage_blocks_read", result.metrics.storage_blocks_read);
  span.AddArg("spill_partitions", result.metrics.spill_partitions);
  return result;
}

}  // namespace cgq
