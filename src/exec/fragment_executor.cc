#include "exec/fragment_executor.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/batch_ops.h"
#include "exec/exec_internal.h"

namespace cgq {

namespace exec_internal {

namespace {

/// Batches in flight per ship channel before the producer blocks
/// (backpressure) under the pipelined schedule.
constexpr size_t kChannelCapacity = 4;

/// Source of a SHIP leaf: the in-process channel of its edge.
class ChannelSourceOp : public BatchOp {
 public:
  ChannelSourceOp(const PlanNode* ship, ShipChannel* channel,
                  const std::atomic<bool>* failed)
      : channel_(channel),
        failed_(failed),
        layout_(LayoutOf(*ship->child(0))) {}

  Result<OptBatch> Next() override {
    vec::ColumnBatch batch;
    CGQ_ASSIGN_OR_RETURN(bool got, channel_->Recv(&batch));
    if (!got) {
      if (failed_->load(std::memory_order_acquire)) {
        Status abort = channel_->abort_status();
        return abort.ok() ? Status::Internal("fragment execution aborted")
                          : abort;
      }
      return OptBatch();
    }
    return OptBatch(std::move(batch));
  }

  const RowLayout& layout() const override { return layout_; }

 private:
  ShipChannel* channel_;
  const std::atomic<bool>* failed_;
  RowLayout layout_;
};

/// In-process fragment attempt: builds the operator tree against `store`,
/// with SHIP leaves reading their channels, and drains it.
Status RunLocalFragment(const PlanFragment& fragment,
                        const TableStore* store, RunState* st) {
  const ExecutorOptions& options = *st->options;
  FragmentMetrics& fm = st->fragments[fragment.id];
  StorageCounters& sc = st->storage[fragment.id];
  BatchOpEnv env;
  env.store = store;
  env.batch_size = static_cast<size_t>(std::max(1, options.batch_size));
  env.cancel = options.cancel.get();
  env.rows_scanned = &fm.rows_scanned;
  env.storage_blocks_read = &sc.blocks_read;
  env.spill_partitions = &sc.spill_partitions;
  env.spill_bytes = &sc.spill_bytes;
  env.memory_budget_bytes = options.memory_budget_bytes;
  env.spill_dir = options.spill_dir;
  env.ship_source = [st](const PlanNode& ship) -> Result<BatchOpPtr> {
    int channel = st->fp->channel_of_ship.at(&ship);
    return BatchOpPtr(new ChannelSourceOp(
        &ship, st->channels[channel].get(), &st->failed));
  };
  CGQ_ASSIGN_OR_RETURN(BatchOpPtr op, BuildBatchOp(*fragment.root, env));
  return DrainBatchOp(op.get(), env.cancel, &fm.rows_out,
                      [&](vec::ColumnBatch batch) {
                        return st->Emit(fragment, std::move(batch));
                      });
}

}  // namespace

Status RunState::Emit(const PlanFragment& fragment, vec::ColumnBatch batch) {
  if (fragment.output_channel >= 0) {
    return channels[fragment.output_channel]->Send(std::move(batch));
  }
  // The result boundary: SHIP edges carry columns, the result rows.
  RowBatch rows = vec::ToRowBatch(batch);
  result_rows.insert(result_rows.end(),
                     std::make_move_iterator(rows.rows.begin()),
                     std::make_move_iterator(rows.rows.end()));
  return Status::OK();
}

void RunState::Fail(const Status& status) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (first_error_.ok()) first_error_ = status;
  }
  failed.store(true, std::memory_order_release);
  for (auto& ch : channels) ch->Abort(status);
}

Status RunState::FirstError() {
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

Result<QueryResult> RunFragments(const PlanNode& plan,
                                 const NetworkModel* net,
                                 const ExecutorOptions& options,
                                 const FragmentAttemptFn& attempt) {
  FragmentedPlan fp = FragmentPlan(plan);
  const size_t n = fp.fragments.size();

  // One worker per fragment keeps bounded channels deadlock-free: every
  // blocking producer/consumer owns a thread. With threads == 1 (or when
  // called from inside a pool worker, where fanning out again could
  // starve), fragments instead run bottom-up on the calling thread and
  // channels buffer whole intermediates.
  const bool sequential =
      options.threads == 1 || n == 1 || ThreadPool::InWorkerThread();

  RunState st;
  st.options = &options;
  st.fp = &fp;
  st.fragments.resize(n);
  st.storage.resize(n);
  // Channels are created below on this thread, before any worker starts,
  // so their "ship" spans attach to the current span in deterministic
  // (plan post-order) creation order. Workers re-install the context
  // themselves (thread locals do not cross into the pool).
  TraceSession* trace = TraceSession::Current();
  int64_t trace_parent = TraceSession::CurrentSpanId();
  CGQ_GAUGE_SET("exec.fragments", static_cast<int64_t>(n));
  const size_t capacity = sequential ? 0 : kChannelCapacity;
  st.channels.reserve(fp.num_channels());
  for (const PlanNode* ship : fp.ship_of_channel) {
    st.channels.push_back(std::make_unique<ShipChannel>(
        ship->ship_from, ship->ship_to, capacity, net, options.retry));
  }

  auto run = [&](size_t i) {
    auto start = std::chrono::steady_clock::now();
    const PlanFragment& fragment = fp.fragments[i];
    FragmentMetrics& fm = st.fragments[i];
    fm.id = fragment.id;
    fm.site = fragment.site;
    ScopedTraceContext trace_ctx(trace, trace_parent,
                                 /*track=*/static_cast<int>(i) + 1);
    TraceSpan fragment_span("fragment", /*ordinal=*/static_cast<int>(i));
    fragment_span.AddArg("id", fragment.id);
    fragment_span.AddArg("site", static_cast<int64_t>(fragment.site));
    // Recovery: a *source* fragment (no input channels; its inputs are
    // idempotent scans of stable storage) may restart after a transient
    // (kUnavailable) failure. Its output channel replays: partial
    // undelivered batches are drained and the already-delivered row
    // prefix of the deterministic re-execution is suppressed, so the
    // consumer sees each row exactly once. Interior fragments rely on
    // send-level retries; when those are exhausted, the query aborts
    // with the structured status — never a partial result. Every attempt
    // re-runs at the site the located plan assigned, re-checked against
    // the execution/shipping traits.
    const bool restartable = fragment.input_channels.empty();
    ShipChannel* output = fragment.output_channel >= 0
                              ? st.channels[fragment.output_channel].get()
                              : nullptr;
    Status s;
    for (int attempt_no = 0;; ++attempt_no) {
      s = CheckFragmentPlacement(fragment);
      if (s.ok() && CGQ_FAILPOINT("fragment.start")) {
        s = Status::Unavailable("injected failure: fragment #" +
                                std::to_string(fragment.id) +
                                " died at start");
      }
      if (s.ok()) s = attempt(fragment, &st);
      if (s.ok() || !s.IsUnavailable() || !restartable ||
          attempt_no >= options.retry.max_retries ||
          st.failed.load(std::memory_order_acquire)) {
        break;
      }
      fm.restarts += 1;
      if (output != nullptr) {
        output->BeginReplay();
      } else {
        // Top fragment (the result's only writer): discard the partial
        // result of the failed attempt.
        st.result_rows.clear();
      }
    }
    if (s.ok() && output != nullptr) output->CloseProducer();
    fm.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    // Only deterministic values (no wall time) so traces stay
    // byte-stable per seed.
    fragment_span.AddArg("rows_out", fm.rows_out);
    fragment_span.AddArg("rows_scanned", fm.rows_scanned);
    fragment_span.AddArg("restarts", fm.restarts);
    if (!s.ok()) st.Fail(s);
  };

  if (sequential) {
    for (size_t i = 0; i < n; ++i) {
      run(i);
      if (st.failed.load()) break;
    }
  } else {
    ThreadPool pool(n - 1);
    pool.ParallelFor(n, n, run);
  }

  if (st.failed.load(std::memory_order_acquire)) {
    return st.FirstError();
  }

  QueryResult result;
  for (const OutputCol& c : plan.outputs) {
    result.column_names.push_back(c.name);
  }
  result.rows = std::move(st.result_rows);

  ExecMetrics& m = result.metrics;
  for (const auto& channel : st.channels) m.AddShipEdge(channel->stats());
  for (const FragmentMetrics& fm : st.fragments) {
    m.rows_scanned += fm.rows_scanned;
    m.fragment_restarts += fm.restarts;
  }
  for (const StorageCounters& sc : st.storage) {
    m.storage_blocks_read += sc.blocks_read;
    m.spill_partitions += sc.spill_partitions;
    m.spill_bytes += sc.spill_bytes;
  }
  m.fragments = std::move(st.fragments);
  return result;
}

}  // namespace exec_internal

Result<QueryResult> ExecuteFragmentedPlan(const PlanNode& plan,
                                          const TableStore* store,
                                          const NetworkModel* net,
                                          const ExecutorOptions& options) {
  return exec_internal::RunFragments(
      plan, net, options,
      [store](const PlanFragment& fragment, exec_internal::RunState* st) {
        return exec_internal::RunLocalFragment(fragment, store, st);
      });
}

}  // namespace cgq
