#include "exec/channel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "exec/vector/column_batch.h"
#include "net/network_model.h"

namespace cgq {
namespace {

using vec::ColumnBatch;

ColumnBatch MakeBatch(int64_t first, int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back({Value::Int64(first + i)});
  return vec::FromRows(RowLayout({AttrId{1}}), rows).ValueOrDie();
}

/// Value of column 0 at the batch's k-th row.
int64_t At(const ColumnBatch& b, size_t k) {
  return b.columns[0]->GetValue(b.sel[k]).int64();
}

TEST(ShipChannelTest, FifoOrderAndStats) {
  NetworkModel net(2, /*alpha_ms=*/10.0, /*beta_ms_per_byte=*/0.5);
  ShipChannel ch(0, 1, /*capacity=*/0, &net);

  double bytes = 0;
  for (int i = 0; i < 3; ++i) {
    ColumnBatch b = MakeBatch(i * 10, 4);
    bytes += b.ByteSize();
    ASSERT_TRUE(ch.Send(std::move(b)).ok());
  }
  ch.CloseProducer();

  ColumnBatch out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ch.Pop(&out));
    ASSERT_EQ(out.NumRows(), 4u);
    EXPECT_EQ(At(out, 0), i * 10);
  }
  EXPECT_FALSE(ch.Pop(&out));  // end-of-stream
  EXPECT_FALSE(ch.Pop(&out));  // stays closed

  ChannelStats s = ch.stats();
  EXPECT_EQ(s.from, 0);
  EXPECT_EQ(s.to, 1);
  EXPECT_EQ(s.batches, 3);
  EXPECT_EQ(s.rows, 12);
  EXPECT_EQ(s.bytes, bytes);
  EXPECT_EQ(s.peak_in_flight, 3);
}

// The channel charges alpha once per edge plus beta per byte, so the total
// equals the row interpreter's one-message charge for the same volume.
TEST(ShipChannelTest, NetworkChargeMatchesSingleMessage) {
  NetworkModel net = NetworkModel::DefaultGeo(5);
  ShipChannel ch(1, 3, 0, &net);

  double bytes = 0;
  for (int i = 0; i < 5; ++i) {
    ColumnBatch b = MakeBatch(i, 7);
    bytes += b.ByteSize();
    ASSERT_TRUE(ch.Send(std::move(b)).ok());
  }
  ch.CloseProducer();

  EXPECT_NEAR(ch.stats().network_ms, net.Cost(1, 3, bytes), 1e-9);
}

// An edge that carries no batches still pays the start-up latency: the row
// interpreter ships one (empty) message per SHIP edge.
TEST(ShipChannelTest, EmptyEdgePaysStartupLatency) {
  NetworkModel net(3, 25.0, 0.125);
  ShipChannel ch(2, 0, 4, &net);
  ch.CloseProducer();

  ColumnBatch out;
  EXPECT_FALSE(ch.Pop(&out));
  ChannelStats s = ch.stats();
  EXPECT_EQ(s.batches, 0);
  EXPECT_EQ(s.rows, 0);
  EXPECT_EQ(s.bytes, 0);
  EXPECT_EQ(s.network_ms, net.Cost(2, 0, 0));
}

TEST(ShipChannelTest, IntraSiteTransferIsFree) {
  NetworkModel net(2, 10.0, 0.5);
  ShipChannel ch(1, 1, 0, &net);
  ASSERT_TRUE(ch.Send(MakeBatch(0, 8)).ok());
  ch.CloseProducer();
  EXPECT_EQ(ch.stats().network_ms, 0.0);
}

// With capacity 2 the producer cannot run more than 2 batches ahead of the
// consumer, and peak_in_flight records exactly that bound.
TEST(ShipChannelTest, BoundedCapacityAppliesBackpressure) {
  NetworkModel net(2, 1.0, 0.0);
  ShipChannel ch(0, 1, /*capacity=*/2, &net);

  constexpr int kBatches = 32;
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < kBatches; ++i) {
      ASSERT_TRUE(ch.Send(MakeBatch(i, 1)).ok());
      pushed.fetch_add(1);
    }
    ch.CloseProducer();
  });

  // Give the producer a chance to run ahead; it must stall at the bound.
  while (pushed.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(pushed.load(), 2 + 1);  // capacity batches queued + one blocked

  ColumnBatch out;
  int popped = 0;
  while (ch.Pop(&out)) {
    EXPECT_EQ(At(out, 0), popped);
    ++popped;
  }
  producer.join();

  EXPECT_EQ(popped, kBatches);
  ChannelStats s = ch.stats();
  EXPECT_EQ(s.batches, kBatches);
  EXPECT_LE(s.peak_in_flight, 2);
  EXPECT_GE(s.peak_in_flight, 1);
}

// Abort releases a producer blocked on a full channel and fails the
// consumer side, so errors propagate across fragments without deadlock.
TEST(ShipChannelTest, AbortReleasesBlockedProducer) {
  NetworkModel net(2, 1.0, 0.0);
  ShipChannel ch(0, 1, /*capacity=*/1, &net);

  std::atomic<bool> send_failed{false};
  std::thread producer([&] {
    ASSERT_TRUE(ch.Send(MakeBatch(0, 1)).ok());
    // Second push blocks on the full channel until Abort.
    send_failed.store(!ch.Send(MakeBatch(1, 1)).ok());
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.Abort();
  producer.join();

  EXPECT_TRUE(send_failed.load());
  ColumnBatch out;
  EXPECT_FALSE(ch.Pop(&out));
  EXPECT_FALSE(ch.Send(MakeBatch(2, 1)).ok());
}

// Concurrent producer/consumer stress: every row arrives exactly once, in
// order, at several capacities.
TEST(ShipChannelTest, ThreadedStressPreservesOrder) {
  NetworkModel net(2, 0.0, 0.0);
  for (size_t capacity : {size_t{1}, size_t{4}, size_t{0}}) {
    ShipChannel ch(0, 1, capacity, &net);
    constexpr int kBatches = 200;

    std::thread producer([&] {
      for (int i = 0; i < kBatches; ++i) {
        ASSERT_TRUE(ch.Send(MakeBatch(i * 3, 3)).ok());
      }
      ch.CloseProducer();
    });

    std::vector<int64_t> seen;
    ColumnBatch out;
    while (ch.Pop(&out)) {
      for (size_t k = 0; k < out.NumRows(); ++k) seen.push_back(At(out, k));
    }
    producer.join();

    ASSERT_EQ(seen.size(), static_cast<size_t>(kBatches * 3));
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], static_cast<int64_t>(i));
    }
    EXPECT_EQ(ch.stats().rows, kBatches * 3);
  }
}

// Regression for a latent shutdown race: a producer blocked in a
// backpressured Send() while the channel is closed underneath it must wake
// up and fail with a structured status instead of sleeping forever (or
// silently "delivering" into a closed channel). Run under TSan to check
// the wakeup ordering.
TEST(ShipChannelTest, CloseDuringBlockedSendWakesSenderWithError) {
  NetworkModel net(2, 1.0, 0.0);
  ShipChannel ch(0, 1, /*capacity=*/1, &net);

  ASSERT_TRUE(ch.Send(MakeBatch(0, 1)).ok());

  std::atomic<bool> sender_started{false};
  Status blocked_status;
  std::thread producer([&] {
    sender_started.store(true);
    // Blocks on the full channel until CloseProducer() below.
    blocked_status = ch.Send(MakeBatch(1, 1));
  });

  while (!sender_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.CloseProducer();
  producer.join();

  EXPECT_FALSE(blocked_status.ok());
  EXPECT_FALSE(ch.abort_status().ok());
  // The failed handoff aborts the channel; nothing is delivered.
  ColumnBatch out;
  EXPECT_FALSE(ch.Pop(&out));
}

// Abort(status) carries the aborting fragment's error to both sides, so a
// sibling that raced into Send/Recv reports the original failure instead
// of a generic secondary error.
TEST(ShipChannelTest, AbortStatusPropagatesToBothSides) {
  NetworkModel net(2, 1.0, 0.0);
  ShipChannel ch(0, 1, 0, &net);
  ch.Abort(Status::Unavailable("site 1 went down"));

  Status send = ch.Send(MakeBatch(0, 1));
  ASSERT_FALSE(send.ok());
  EXPECT_TRUE(send.IsUnavailable());
  EXPECT_NE(send.message().find("site 1 went down"), std::string::npos);

  ColumnBatch out;
  auto recv = ch.Recv(&out);
  ASSERT_FALSE(recv.ok());
  EXPECT_TRUE(recv.status().IsUnavailable());
}

// A lossy link drops batches; Send retries them (re-paying the start-up
// latency) until delivery. The deterministic per-edge stream makes the
// retry schedule a pure function of the fault seed.
TEST(ShipChannelTest, LossyLinkRetriesAreDeterministicAndAccounted) {
  auto run = [](uint64_t seed) {
    NetworkModel net(2, /*alpha_ms=*/10.0, /*beta_ms_per_byte=*/0.5);
    LinkFault fault;
    fault.drop_probability = 0.4;
    net.SetLinkFault(0, 1, fault);
    RetryPolicy retry;
    retry.max_retries = 50;  // ample: p=0.4 cannot lose 50 in a row here
    retry.fault_seed = seed;
    ShipChannel ch(0, 1, 0, &net, retry);
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(ch.Send(MakeBatch(i, 2)).ok());
    }
    ch.CloseProducer();
    ColumnBatch out;
    int rows = 0;
    while (ch.Pop(&out)) rows += static_cast<int>(out.NumRows());
    EXPECT_EQ(rows, 40);
    return ch.stats();
  };

  ChannelStats a = run(7);
  ChannelStats b = run(7);
  ChannelStats c = run(8);
  EXPECT_EQ(a.send_retries, b.send_retries);
  EXPECT_EQ(a.dropped_batches, b.dropped_batches);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.backoff_ms, b.backoff_ms);
  // A different seed yields a different schedule; the accumulated jitter
  // is a fine-grained fingerprint of the stream (total retry counts can
  // coincide).
  EXPECT_NE(a.backoff_ms, c.backoff_ms);

  // Accounting includes reattempts: every transmission (delivered or
  // dropped) is charged, and each retry re-pays alpha.
  EXPECT_GT(a.send_retries, 0);
  EXPECT_EQ(a.dropped_batches, a.send_retries);  // all retries succeeded
  EXPECT_EQ(a.batches, 20 + a.dropped_batches);
  EXPECT_GT(a.backoff_ms, 0.0);

  NetworkModel clean(2, 10.0, 0.5);
  ShipChannel base(0, 1, 0, &clean);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(base.Send(MakeBatch(i, 2)).ok());
  base.CloseProducer();
  EXPECT_GT(a.bytes, base.stats().bytes);
  EXPECT_GT(a.network_ms, base.stats().network_ms);
}

// When the link drops everything, bounded retries run out and the send
// fails with the typed transient-failure status — never a hang, never a
// silent partial result.
TEST(ShipChannelTest, ExhaustedRetriesFailUnavailable) {
  NetworkModel net(2, 1.0, 0.0);
  LinkFault fault;
  fault.drop_probability = 1.0;
  net.SetLinkFault(0, 1, fault);
  RetryPolicy retry;
  retry.max_retries = 3;
  ShipChannel ch(0, 1, 0, &net, retry);

  Status s = ch.Send(MakeBatch(0, 1));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnavailable());
  ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.dropped_batches, 4);  // first attempt + 3 retries
  EXPECT_EQ(stats.send_retries, 3);
  EXPECT_EQ(stats.batches, 4);  // every lost attempt was transmitted
}

// A hard link failure fails fast: no retries, no network charge (nothing
// was transmitted).
TEST(ShipChannelTest, DownLinkFailsFastWithoutCharge) {
  NetworkModel net(2, 10.0, 0.5);
  LinkFault fault;
  fault.down = true;
  net.SetLinkFault(0, 1, fault);
  ShipChannel ch(0, 1, 0, &net);

  Status s = ch.Send(MakeBatch(0, 4));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnavailable());
  ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.batches, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.send_retries, 0);
}

// Injected extra latency on a faulty-but-functional link raises the
// simulated network time of every attempt.
TEST(ShipChannelTest, ExtraLatencyIsCharged) {
  NetworkModel net(2, 10.0, 0.5);
  LinkFault fault;
  fault.extra_latency_ms = 100.0;
  net.SetLinkFault(0, 1, fault);
  ShipChannel ch(0, 1, 0, &net);
  ColumnBatch b = MakeBatch(0, 4);
  double bytes = b.ByteSize();
  ASSERT_TRUE(ch.Send(std::move(b)).ok());
  ch.CloseProducer();
  EXPECT_NEAR(ch.stats().network_ms, net.Cost(0, 1, bytes) + 100.0, 1e-9);
}

// A backpressured send that can't make progress within send_timeout_ms
// burns a retry per timeout and eventually fails Unavailable — the channel
// never deadlocks on a stuck consumer.
TEST(ShipChannelTest, SendTimeoutIsBoundedAndTyped) {
  NetworkModel net(2, 1.0, 0.0);
  RetryPolicy retry;
  retry.max_retries = 2;
  retry.send_timeout_ms = 5;
  ShipChannel ch(0, 1, /*capacity=*/1, &net, retry);

  ASSERT_TRUE(ch.Send(MakeBatch(0, 1)).ok());
  // Nobody consumes: the second send must give up on its own.
  Status s = ch.Send(MakeBatch(1, 1));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnavailable());
  ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.send_timeouts, 3);  // first attempt + 2 retries
  EXPECT_EQ(stats.batches, 1);        // timed-out waits transmit nothing
}

// Recv with a timeout on an idle channel reports Unavailable after
// exhausting its bounded waits.
TEST(ShipChannelTest, RecvTimeoutIsBoundedAndTyped) {
  NetworkModel net(2, 1.0, 0.0);
  RetryPolicy retry;
  retry.max_retries = 1;
  retry.recv_timeout_ms = 5;
  ShipChannel ch(0, 1, 0, &net, retry);

  ColumnBatch out;
  auto r = ch.Recv(&out);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(ch.stats().recv_timeouts, 2);
}

// BeginReplay models an idempotent producer restart: the deterministic
// replay re-sends the whole stream, the channel suppresses the
// already-delivered prefix, and the consumer sees every row exactly once.
// Transmission stats keep the replayed traffic (a retransmission is a real
// transfer).
TEST(ShipChannelTest, ReplaySuppressesDeliveredPrefix) {
  NetworkModel net(2, 10.0, 0.5);
  ShipChannel ch(0, 1, 0, &net);

  // First incarnation: 3 batches x 2 rows; consumer takes one batch, then
  // the producer "dies" with two batches still queued.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ch.Send(MakeBatch(i * 2, 2)).ok());
  ColumnBatch out;
  ASSERT_TRUE(ch.Pop(&out));
  ASSERT_EQ(out.NumRows(), 2u);

  ch.BeginReplay();

  // Replay re-sends the identical stream, with different batching to show
  // suppression is by row count, not batch boundary.
  ASSERT_TRUE(ch.Send(MakeBatch(0, 3)).ok());  // rows 0,1 suppressed; 2 kept
  ASSERT_TRUE(ch.Send(MakeBatch(3, 3)).ok());
  ch.CloseProducer();

  std::vector<int64_t> seen;
  while (ch.Pop(&out)) {
    for (size_t k = 0; k < out.NumRows(); ++k) seen.push_back(At(out, k));
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{2, 3, 4, 5}));

  ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.replays, 1);
  // 3 original sends + 2 replay sends were all transmitted.
  EXPECT_EQ(stats.batches, 5);
  EXPECT_EQ(stats.rows, 12);
}

// Replay over filtered column batches: the suppressed prefix ends inside
// a batch whose selection is non-contiguous (as a filter leaves it), so
// the cut must follow the selection, not the column positions. Stats
// count every attempted batch at its row-form volume.
TEST(ShipChannelTest, ReplayCutsInsideFilteredBatch) {
  // Columns over values [first, first + n): an id and a string with
  // NULLs, narrowed to `sel` like a filter's output.
  auto filtered = [](int64_t first, int n, vec::SelVec sel) {
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      const int64_t id = first + i;
      rows.push_back({Value::Int64(id),
                      id % 3 == 0 ? Value::Null()
                                  : Value::String(std::string(id % 4 + 1,
                                                              'x'))});
    }
    ColumnBatch b =
        vec::FromRows(RowLayout({AttrId{1}, AttrId{2}}), rows).ValueOrDie();
    b.sel = std::move(sel);
    return b;
  };

  NetworkModel net(2, 10.0, 0.5);
  ShipChannel ch(0, 1, 0, &net);
  double bytes = 0;
  auto send = [&](ColumnBatch b) {
    bytes += vec::ToRowBatch(b).ByteSize();
    ASSERT_TRUE(ch.Send(std::move(b)).ok());
  };

  // First incarnation streams rows 0,2,3,5 | 6,7,8,9; the consumer takes
  // the first batch, then the producer dies with the second queued.
  send(filtered(0, 6, {0, 2, 3, 5}));
  send(filtered(6, 4, {0, 1, 2, 3}));
  std::vector<int64_t> seen;
  ColumnBatch out;
  ASSERT_TRUE(ch.Pop(&out));
  for (size_t k = 0; k < out.NumRows(); ++k) seen.push_back(At(out, k));

  ch.BeginReplay();

  // The replay re-batches the same stream: the 4 delivered rows end
  // inside the first batch (selection {0,2,3,5,6} -> keep row 6).
  send(filtered(0, 8, {0, 2, 3, 5, 6}));
  send(filtered(6, 5, {1, 2, 3}));
  ch.CloseProducer();

  while (ch.Pop(&out)) {
    for (size_t k = 0; k < out.NumRows(); ++k) seen.push_back(At(out, k));
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 2, 3, 5, 6, 7, 8, 9}));

  ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.replays, 1);
  EXPECT_EQ(stats.batches, 4);
  EXPECT_EQ(stats.rows, 4 + 4 + 5 + 3);
  EXPECT_EQ(stats.bytes, bytes);
}

// Send() on a healthy link makes exactly one attempt per batch: the
// accounting is the cost model's fault-free charge for the volume, with
// every recovery counter at zero.
TEST(ShipChannelTest, HealthySendChargesOneAttemptPerBatch) {
  NetworkModel net = NetworkModel::DefaultGeo(5);
  ShipChannel sent(1, 3, 0, &net);
  double bytes = 0;
  for (int i = 0; i < 4; ++i) {
    ColumnBatch b = MakeBatch(i, 5);
    bytes += b.ByteSize();
    ASSERT_TRUE(sent.Send(std::move(b)).ok());
  }
  sent.CloseProducer();
  ChannelStats s = sent.stats();
  EXPECT_EQ(s.bytes, bytes);
  EXPECT_NEAR(s.network_ms, net.Cost(1, 3, bytes), 1e-9);
  EXPECT_EQ(s.batches, 4);
  EXPECT_EQ(s.rows, 20);
  EXPECT_EQ(s.send_retries, 0);
  EXPECT_EQ(s.dropped_batches, 0);
  EXPECT_EQ(s.backoff_ms, 0.0);
}

}  // namespace
}  // namespace cgq
