#include "exec/channel.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"

namespace cgq {

namespace {

/// Per-edge deterministic stream: the same fault seed yields the same
/// drop/jitter schedule for a given edge in both backends.
uint64_t MixSeed(uint64_t seed, LocationId from, LocationId to) {
  uint64_t edge = (static_cast<uint64_t>(from) << 32) | to;
  return (seed + 0x9E3779B97F4A7C15ULL) * 0xBF58476D1CE4E5B9ULL ^ edge;
}

/// Exponential backoff between reattempts: reattempt k waits
/// min(kBackoffMaxMs, kBackoffBaseMs * 2^(k-1)), scaled by a jitter
/// factor in [0.5, 1) drawn from the deterministic fault stream. The wait
/// is simulated (accounted, not slept), like the network cost model.
constexpr double kBackoffBaseMs = 1.0;
constexpr double kBackoffMaxMs = 64.0;

std::chrono::duration<double, std::milli> Millis(double ms) {
  return std::chrono::duration<double, std::milli>(ms);
}

}  // namespace

ShipChannel::ShipChannel(LocationId from, LocationId to, size_t capacity,
                         const NetworkModel* net, RetryPolicy retry)
    : from_(from),
      to_(to),
      capacity_(capacity),
      net_(net),
      retry_(retry),
      rng_(MixSeed(retry.fault_seed, from, to)) {
  stats_.from = from;
  stats_.to = to;
#ifdef CGQ_TRACING
  trace_ = TraceSession::Current();
  if (trace_ != nullptr) {
    trace_span_ =
        trace_->BeginSpan("ship", TraceSession::CurrentSpanId(),
                          /*ordinal=*/-1, TraceSession::CurrentTrack());
    trace_->AddSpanArg(trace_span_, "from", static_cast<int64_t>(from_));
    trace_->AddSpanArg(trace_span_, "to", static_cast<int64_t>(to_));
  }
#endif
}

ShipChannel::~ShipChannel() {
#ifdef CGQ_TRACING
  if (trace_ != nullptr) {
    // The producer has closed and the fragments joined by the time the
    // channel dies, so this snapshot is final and reconciles exactly
    // with the ChannelStats entry recorded in ExecMetrics::edges.
    ChannelStats s = stats();
    trace_->AddSpanArg(trace_span_, "batches", s.batches);
    trace_->AddSpanArg(trace_span_, "rows", s.rows);
    trace_->AddSpanArg(trace_span_, "bytes", s.bytes);
    trace_->AddSpanArg(trace_span_, "network_ms", s.network_ms);
    trace_->AddSpanArg(trace_span_, "send_retries", s.send_retries);
    trace_->AddSpanArg(trace_span_, "dropped_batches", s.dropped_batches);
    trace_->AddSpanArg(trace_span_, "send_timeouts", s.send_timeouts);
    trace_->AddSpanArg(trace_span_, "recv_timeouts", s.recv_timeouts);
    trace_->AddSpanArg(trace_span_, "replays", s.replays);
    trace_->AddSpanArg(trace_span_, "backoff_ms", s.backoff_ms);
    trace_->EndSpan(trace_span_);
  }
#endif
}

void ShipChannel::ChargeAttemptLocked(int64_t rows, double bytes,
                                      bool recharge_alpha,
                                      const LinkFault* fault) {
  // First attempt on the edge pays the start-up latency alpha; later
  // batches pay the per-byte cost only — unless they are reattempts,
  // which re-establish the transfer and pay alpha again. On a healthy
  // run the edge total therefore matches a single message of the same
  // volume: alpha + beta * sum(bytes).
  double cost = (stats_.batches == 0 || recharge_alpha)
                    ? net_->Cost(from_, to_, bytes)
                    : net_->MarginalCost(from_, to_, bytes);
  if (fault != nullptr && from_ != to_) cost += fault->extra_latency_ms;
  stats_.network_ms += cost;
  stats_.batches += 1;
  stats_.rows += rows;
  stats_.bytes += bytes;
}

void ShipChannel::AccountBackoffLocked(int attempt) {
  double delay = kBackoffBaseMs;
  for (int i = 1; i < attempt && delay < kBackoffMaxMs; ++i) delay *= 2;
  delay = std::min(delay, kBackoffMaxMs);
  // Jitter in [0.5, 1) from the deterministic stream, decorrelating
  // concurrent retries without losing reproducibility.
  delay *= 0.5 + 0.5 * rng_.NextDouble();
  stats_.backoff_ms += delay;
}

Status ShipChannel::Send(vec::ColumnBatch batch) {
  const int64_t rows = static_cast<int64_t>(batch.NumRows());
  const double bytes = batch.ByteSize();

  std::unique_lock<std::mutex> lock(mu_);
  const LinkFault* fault = net_->link_fault(from_, to_);
  int reattempts = 0;
  while (true) {
    // Wait for queue space (backpressure), bounded by the send timeout.
    auto writable = [this] {
      return aborted_ || closed_ || capacity_ == 0 ||
             queue_.size() < capacity_;
    };
    bool ready = true;
    if (retry_.send_timeout_ms < 0) {
      can_push_.wait(lock, writable);
    } else {
      ready = can_push_.wait_for(lock, Millis(retry_.send_timeout_ms),
                                 writable);
    }
    if (aborted_) return abort_status_;
    if (closed_) {
      // Close() raced with a blocked send: fail the channel so both sides
      // observe the same structured abort instead of hanging.
      aborted_ = true;
      abort_status_ =
          Status::Internal("ship channel closed during a blocked send");
      queue_.clear();
      can_pop_.notify_all();
      return abort_status_;
    }
    if (!ready) {
      // Timed out waiting for the consumer; nothing was transmitted.
      stats_.send_timeouts += 1;
      if (reattempts >= retry_.max_retries) {
        return Status::Unavailable(
            "ship edge l" + std::to_string(from_) + "->l" +
            std::to_string(to_) + ": send timed out after " +
            std::to_string(reattempts) + " retries");
      }
      reattempts += 1;
      stats_.send_retries += 1;
      AccountBackoffLocked(reattempts);
      continue;
    }

    // Simulated transmission. A hard link failure transmits nothing; a
    // sampled drop (or the channel.send failpoint) loses the bytes on the
    // wire, so the wasted attempt is still charged and counted.
    if (fault != nullptr && fault->down) {
      stats_.dropped_batches += 1;
      return Status::Unavailable("ship edge l" + std::to_string(from_) +
                                 "->l" + std::to_string(to_) +
                                 ": link is down");
    }
    bool lost = CGQ_FAILPOINT("channel.send");
    if (!lost && fault != nullptr && fault->drop_probability > 0) {
      lost = rng_.Bernoulli(fault->drop_probability);
    }
    ChargeAttemptLocked(rows, bytes, reattempts > 0, fault);
    if (lost) {
      stats_.dropped_batches += 1;
      if (reattempts >= retry_.max_retries) {
        return Status::Unavailable(
            "ship edge l" + std::to_string(from_) + "->l" +
            std::to_string(to_) + ": batch lost " +
            std::to_string(reattempts + 1) + " times, retries exhausted");
      }
      reattempts += 1;
      stats_.send_retries += 1;
      AccountBackoffLocked(reattempts);
      continue;
    }

    // Delivered. During a replay, suppress the row prefix the consumer
    // already received from the previous incarnation (the deterministic
    // re-execution resends a byte-identical stream).
    if (skip_rows_ > 0) {
      if (rows <= skip_rows_) {
        skip_rows_ -= rows;
        return Status::OK();
      }
      batch = batch.Slice(static_cast<size_t>(skip_rows_), batch.NumRows());
      skip_rows_ = 0;
    }
    if (batch.NumRows() != 0) {
      queue_.push_back(std::move(batch));
      stats_.peak_in_flight = std::max(
          stats_.peak_in_flight, static_cast<int64_t>(queue_.size()));
      can_pop_.notify_one();
    }
    return Status::OK();
  }
}

void ShipChannel::CloseProducer() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;
  if (stats_.batches == 0 && !aborted_) {
    stats_.network_ms += net_->Cost(from_, to_, 0);
  }
  can_pop_.notify_all();
  // Wake a sender blocked on backpressure (the close/abort race): it
  // must observe closed_ and fail instead of waiting forever.
  can_push_.notify_all();
}

Result<bool> ShipChannel::Recv(vec::ColumnBatch* out) {
  std::unique_lock<std::mutex> lock(mu_);
  int timeouts = 0;
  while (true) {
    // The channel.recv failpoint simulates one timed-out receive without
    // the wall-clock wait.
    bool injected = CGQ_FAILPOINT("channel.recv");
    auto readable = [this] {
      return aborted_ || closed_ || !queue_.empty();
    };
    bool ready = !injected;
    if (!injected) {
      if (retry_.recv_timeout_ms < 0) {
        can_pop_.wait(lock, readable);
      } else {
        ready = can_pop_.wait_for(lock, Millis(retry_.recv_timeout_ms),
                                  readable);
      }
    }
    if (!ready) {
      stats_.recv_timeouts += 1;
      if (timeouts >= retry_.max_retries) {
        return Status::Unavailable(
            "ship edge l" + std::to_string(from_) + "->l" +
            std::to_string(to_) + ": recv timed out after " +
            std::to_string(timeouts) + " retries");
      }
      timeouts += 1;
      AccountBackoffLocked(timeouts);
      continue;
    }
    if (aborted_) return abort_status_;
    if (!queue_.empty()) {
      *out = std::move(queue_.front());
      queue_.pop_front();
      delivered_rows_ += static_cast<int64_t>(out->NumRows());
      can_push_.notify_one();
      return true;
    }
    return false;  // closed and drained: end-of-stream
  }
}

bool ShipChannel::Pop(vec::ColumnBatch* out) {
  std::unique_lock<std::mutex> lock(mu_);
  can_pop_.wait(lock,
                [this] { return aborted_ || closed_ || !queue_.empty(); });
  if (aborted_ || queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  delivered_rows_ += static_cast<int64_t>(out->NumRows());
  can_push_.notify_one();
  return true;
}

void ShipChannel::Abort(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!aborted_) {
    aborted_ = true;
    abort_status_ = status.ok()
                        ? Status::Internal("fragment execution aborted")
                        : std::move(status);
  }
  queue_.clear();
  can_push_.notify_all();
  can_pop_.notify_all();
}

Status ShipChannel::abort_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return abort_status_;
}

void ShipChannel::BeginReplay() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.replays += 1;
  // Drain partial (undelivered) batches, then suppress the delivered
  // prefix of the replayed stream: together the consumer sees each row
  // exactly once.
  queue_.clear();
  skip_rows_ = delivered_rows_;
  closed_ = false;
  can_push_.notify_all();
}

ChannelStats ShipChannel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cgq
