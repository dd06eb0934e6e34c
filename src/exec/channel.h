#ifndef CGQ_EXEC_CHANNEL_H_
#define CGQ_EXEC_CHANNEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "catalog/location.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/trace.h"
#include "exec/vector/column_batch.h"
#include "net/network_model.h"

namespace cgq {

/// Retry / timeout policy of one execution's ship transfers (shared by all
/// channels of a fragmented run, and by the row interpreter's SHIPs).
struct RetryPolicy {
  /// Reattempts after the first failed transmission of a batch. Once they
  /// are exhausted the send fails with StatusCode::kUnavailable and the
  /// query aborts (never a partial result).
  int max_retries = 3;
  /// Wall-clock bound on one backpressured send attempt; < 0 blocks
  /// forever. A timed-out attempt counts against max_retries.
  double send_timeout_ms = -1;
  /// Wall-clock bound on one receive wait; < 0 blocks forever.
  double recv_timeout_ms = -1;
  /// Seed of the per-channel deterministic stream used for drop sampling
  /// and backoff jitter. Same seed + same fault model = same schedule of
  /// drops and retries.
  uint64_t fault_seed = 0;
};

/// Accumulated traffic of one ship channel (== one SHIP edge of the
/// located plan). `network_ms` charges the message cost model once per
/// edge for the start-up latency (alpha) plus the per-byte cost (beta) of
/// every batch, so the total equals the row interpreter's single-message
/// charge for the same volume. Every *transmission attempt* is counted:
/// a batch dropped by an injected link fault and retransmitted appears
/// twice in `batches`/`rows`/`bytes` (and the reattempt re-pays alpha).
struct ChannelStats {
  LocationId from = 0;
  LocationId to = 0;
  int64_t batches = 0;
  int64_t rows = 0;
  double bytes = 0;
  /// Largest number of batches ever queued (bounded by the capacity; a
  /// measure of how far the producer ran ahead of the consumer).
  int64_t peak_in_flight = 0;
  double network_ms = 0;

  // Recovery counters (all zero on a healthy run).
  int64_t send_retries = 0;     ///< Reattempts after drops/timeouts.
  int64_t dropped_batches = 0;  ///< Attempts lost to link faults/failpoints.
  int64_t send_timeouts = 0;    ///< Backpressured sends that timed out.
  int64_t recv_timeouts = 0;    ///< Receive waits that timed out.
  int64_t replays = 0;          ///< Producer restarts (fragment recovery).
  double backoff_ms = 0;        ///< Simulated backoff wait between retries.
};

/// Bounded single-producer single-consumer queue of column batches
/// modelling one inter-site transfer. Send blocks when `capacity` batches
/// are in flight (backpressure); Recv blocks until a batch arrives or the
/// producer closes. Abort() releases both sides, for error propagation
/// across fragments.
///
/// Fault handling: Send consults the network model's LinkFault for its
/// edge and the "channel.send" failpoint; a lost attempt is retried per
/// the RetryPolicy (re-paying the start-up latency alpha), and exhausted
/// retries surface as StatusCode::kUnavailable. BeginReplay() supports
/// idempotent producer restart: undelivered batches are drained and the
/// already-delivered row prefix of the (deterministic) replay stream is
/// suppressed, so the consumer sees every row exactly once. A batch is
/// charged ColumnBatch::ByteSize, the volume of its selected rows.
class ShipChannel {
 public:
  /// `capacity` = 0 means unbounded (used by the sequential fragment
  /// schedule, where the producer completes before the consumer starts).
  /// `net` must outlive the channel.
  ShipChannel(LocationId from, LocationId to, size_t capacity,
              const NetworkModel* net, RetryPolicy retry = RetryPolicy());
  ~ShipChannel();

  ShipChannel(const ShipChannel&) = delete;
  ShipChannel& operator=(const ShipChannel&) = delete;

  /// Transfers one batch with fault simulation and bounded retries. Fails
  /// with kUnavailable when retries are exhausted (link down, repeated
  /// drops or send timeouts) and with the abort status when the channel
  /// was aborted or closed underneath the sender.
  Status Send(vec::ColumnBatch batch);

  /// Producer is done; Recv drains the queue and then reports
  /// end-of-stream. An edge that never carried a batch still pays the
  /// start-up latency (the row interpreter ships one — possibly empty —
  /// message per edge). Threadsafe against a concurrently blocked Send,
  /// which wakes and fails with the abort status.
  void CloseProducer();

  /// Receives the next batch: ok(true) with `*out` filled, ok(false) at
  /// end-of-stream, kUnavailable after recv_timeout_ms expired
  /// max_retries+1 times (or the "channel.recv" failpoint fired as a
  /// simulated timeout), or the abort status.
  Result<bool> Recv(vec::ColumnBatch* out);

  /// Receive without timeouts or the "channel.recv" failpoint, for the
  /// row interpreter's one-message ships: blocks until a batch arrives,
  /// returns false at end-of-stream or abort.
  bool Pop(vec::ColumnBatch* out);

  /// Wakes and fails both sides with `status` (first abort wins; the
  /// default tags a generic aborted-execution error). Used when a sibling
  /// fragment errored.
  void Abort(Status status);
  void Abort() { Abort(Status::Internal("fragment execution aborted")); }

  /// Status carried by Abort(); OK when the channel was never aborted.
  Status abort_status() const;

  /// Prepares the channel for an idempotent producer restart: drains
  /// queued-but-undelivered batches, re-opens the producer side, and arms
  /// suppression of the first `delivered rows` rows the replay sends
  /// (re-execution is deterministic, so that prefix is byte-identical to
  /// what the consumer already got). Transmission stats of the replayed
  /// prefix still accrue — a retransmission is a real transfer.
  void BeginReplay();

  /// Snapshot of the traffic counters. Only stable once the producer has
  /// closed (callers read it after joining the fragment tasks).
  ChannelStats stats() const;

 private:
  /// Charges one transmission attempt to the stats. `recharge_alpha` is
  /// true for the first attempt on the edge and for every reattempt (a
  /// re-established connection pays the start-up latency again).
  void ChargeAttemptLocked(int64_t rows, double bytes, bool recharge_alpha,
                           const LinkFault* fault);
  /// Simulated exponential-backoff-with-jitter wait before reattempt
  /// `attempt` (1-based).
  void AccountBackoffLocked(int attempt);

  const LocationId from_;
  const LocationId to_;
  const size_t capacity_;
  const NetworkModel* net_;
  const RetryPolicy retry_;

  mutable std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<vec::ColumnBatch> queue_;
  bool closed_ = false;
  bool aborted_ = false;
  Status abort_status_;
  /// Rows handed to the consumer; the suppression baseline for replays.
  int64_t delivered_rows_ = 0;
  /// Rows of the current replay still to suppress before enqueueing.
  int64_t skip_rows_ = 0;
  Rng rng_;
  ChannelStats stats_;
#ifdef CGQ_TRACING
  /// One "ship" span per edge, begun at construction against the creating
  /// thread's trace context (channels are created sequentially before any
  /// workers start, so span order is deterministic) and ended at
  /// destruction with the final traffic counters as arguments.
  TraceSession* trace_ = nullptr;
  int64_t trace_span_ = -1;
#endif
};

}  // namespace cgq

#endif  // CGQ_EXEC_CHANNEL_H_
