#include "net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "exec/batch_ops.h"
#include "exec/exec_internal.h"
#include "exec/fragmenter.h"
#include "net/wire_protocol.h"

namespace cgq {
namespace net {

namespace {

using exec_internal::BatchOp;
using exec_internal::BatchOpEnv;
using exec_internal::BatchOpPtr;
using exec_internal::BuildBatchOp;
using exec_internal::DrainBatchOp;
using exec_internal::LayoutOf;
using exec_internal::OptBatch;

/// Unbounded buffer of one input channel's batches. Unbounded is a
/// deliberate deadlock-avoidance choice: under the coordinator's
/// sequential schedule a producer fragment finishes (and its whole
/// intermediate is relayed here) before the consumer starts pulling.
class InputQueue {
 public:
  void Push(vec::ColumnBatch batch) {
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(std::move(batch));
    cv_.notify_all();
  }

  void CloseQueue() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  void Abort(const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (abort_.ok()) abort_ = status;
    closed_ = true;
    cv_.notify_all();
  }

  /// Blocks until a batch, end-of-stream (nullopt) or abort (error).
  Result<OptBatch> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !batches_.empty() || closed_; });
    if (!batches_.empty()) {
      vec::ColumnBatch batch = std::move(batches_.front());
      batches_.pop_front();
      return OptBatch(std::move(batch));
    }
    if (!abort_.ok()) return abort_;
    return OptBatch();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<vec::ColumnBatch> batches_;
  bool closed_ = false;
  Status abort_;
};

/// Source operator over an InputQueue: the server-side stand-in for a
/// SHIP leaf. Its layout is the producing subtree's output layout, which
/// travels on the wire as the SHIP leaf's own output columns. Operators
/// above it resolve columns by that static layout, so a batch whose
/// attrs differ from it (even a same-width permutation) is refused.
class QueueSourceOp : public BatchOp {
 public:
  QueueSourceOp(const PlanNode* ship, InputQueue* queue)
      : queue_(queue),
        channel_(ship->fragment_ordinal),
        layout_(LayoutOf(*ship)) {}

  Result<OptBatch> Next() override {
    CGQ_ASSIGN_OR_RETURN(OptBatch batch, queue_->Pop());
    if (batch && batch->layout.attrs() != layout_.attrs()) {
      return Status::InvalidArgument(
          "input batch on channel " + std::to_string(channel_) +
          " does not carry its SHIP leaf's layout");
    }
    return batch;
  }
  const RowLayout& layout() const override { return layout_; }

 private:
  InputQueue* queue_;
  int channel_;
  RowLayout layout_;
};

/// One in-flight fragment (at most one per connection: the coordinator
/// dials a fresh connection per attempt).
struct FragmentSession {
  wire::StartFragment start;
  std::unordered_map<int, std::unique_ptr<InputQueue>> inputs;
  std::atomic<bool> cancel{false};
  std::thread worker;

  void AbortInputs(const Status& status) {
    cancel.store(true, std::memory_order_release);
    for (auto& [channel, queue] : inputs) queue->Abort(status);
  }
};

}  // namespace

/// Per-connection state of the event loop. The loop thread owns inbuf
/// and frame parsing; the fragment worker appends output frames to
/// outbuf under out_mu and wakes the loop to flush.
struct ConnectionState {
  Socket socket;
  std::string inbuf;
  std::mutex out_mu;
  std::string outbuf;
  size_t out_off = 0;
  bool dead = false;
  std::unique_ptr<FragmentSession> session;

  void EnqueueFrame(wire::FrameType type, const std::string& payload) {
    std::string frame = wire::EncodeFrame(type, payload);
    std::lock_guard<std::mutex> lock(out_mu);
    outbuf.append(frame);
  }

  /// Writes as much buffered output as the socket accepts (non-blocking).
  /// Returns false when the connection broke.
  bool Flush() {
    std::lock_guard<std::mutex> lock(out_mu);
    while (out_off < outbuf.size()) {
      ssize_t n = ::send(socket.fd(), outbuf.data() + out_off,
                         outbuf.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    if (out_off == outbuf.size()) {
      outbuf.clear();
      out_off = 0;
    }
    return true;
  }

  bool HasPendingOutput() {
    std::lock_guard<std::mutex> lock(out_mu);
    return out_off < outbuf.size();
  }
};

SiteServer::SiteServer(Options options) : options_(std::move(options)) {}

SiteServer::~SiteServer() { Stop(); }

Status SiteServer::Start() {
  if (!options_.data_dir.empty()) {
    // Recover-or-create before accepting connections: queries hitting a
    // restarted server see the persisted fragments immediately.
    CGQ_RETURN_NOT_OK(store_.EnableDiskStorage(options_.data_dir));
  }
  CGQ_ASSIGN_OR_RETURN(listener_,
                       Socket::Listen(options_.host, options_.port));
  CGQ_ASSIGN_OR_RETURN(port_, listener_.LocalPort());
  CGQ_RETURN_NOT_OK(listener_.SetNonBlocking(true));
  if (::pipe(wake_pipe_) != 0) {
    return Status::Unavailable(std::string("pipe: ") +
                               ::strerror(errno));
  }
  // Non-blocking read end: the loop drains whatever wake bytes piled up
  // without ever blocking inside the drain.
  int flags = ::fcntl(wake_pipe_[0], F_GETFL, 0);
  ::fcntl(wake_pipe_[0], F_SETFL, flags | O_NONBLOCK);
  stopping_.store(false);
  loop_ = std::thread([this] { LoopThread(); });
  started_ = true;
  return Status::OK();
}

void SiteServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  Wake();
  if (loop_.joinable()) loop_.join();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  listener_.Close();
  started_ = false;
}

void SiteServer::Wake() {
  if (wake_pipe_[1] >= 0) {
    char byte = 1;
    ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
    (void)ignored;
  }
}

void SiteServer::CloseConnection(size_t index) {
  ConnectionState* conn = connections_[index].get();
  if (conn->session != nullptr) {
    conn->session->AbortInputs(
        Status::Unavailable("connection closed by coordinator"));
    if (conn->session->worker.joinable()) conn->session->worker.join();
  }
  connections_.erase(connections_.begin() +
                     static_cast<ptrdiff_t>(index));
}

void SiteServer::LoopThread() {
  std::vector<pollfd> pfds;
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    pfds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& conn : connections_) {
      short events = POLLIN;
      if (conn->HasPendingOutput()) events |= POLLOUT;
      pfds.push_back({conn->socket.fd(), events, 0});
    }
    int rc = ::poll(pfds.data(), pfds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[0].revents & POLLIN) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (pfds[1].revents & POLLIN) {
      while (true) {
        Result<Socket> accepted = listener_.Accept();
        if (!accepted.ok()) break;
        if (CGQ_FAILPOINT("sited.accept")) continue;  // refuse: drop it
        auto conn = std::make_unique<ConnectionState>();
        conn->socket = std::move(accepted).ValueOrDie();
        (void)conn->socket.SetNonBlocking(true);
        connections_.push_back(std::move(conn));
      }
    }
    // Service existing connections (pfds[i + 2] belongs to
    // connections_[i]; both vectors are stable during this pass).
    const size_t n = connections_.size();
    for (size_t i = 0; i < n && i + 2 < pfds.size(); ++i) {
      ConnectionState* conn = connections_[i].get();
      short revents = pfds[i + 2].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) conn->dead = true;
      if (!conn->dead && (revents & POLLOUT)) {
        if (!conn->Flush()) conn->dead = true;
      }
      if (!conn->dead && (revents & POLLIN)) {
        char buf[64 * 1024];
        while (true) {
          ssize_t got = ::recv(conn->socket.fd(), buf, sizeof(buf), 0);
          if (got > 0) {
            conn->inbuf.append(buf, static_cast<size_t>(got));
            continue;
          }
          if (got == 0) conn->dead = true;
          if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
              errno != EINTR) {
            conn->dead = true;
          }
          break;
        }
        // Parse complete frames off the front of the buffer.
        size_t consumed = 0;
        while (!conn->dead &&
               conn->inbuf.size() - consumed >= wire::kHeaderSize) {
          const uint8_t* base = reinterpret_cast<const uint8_t*>(
              conn->inbuf.data() + consumed);
          Result<wire::FrameHeader> header =
              wire::DecodeFrameHeader(base, wire::kHeaderSize);
          if (!header.ok()) {
            // Unrecoverable framing error (bad magic / version skew):
            // report and drop the connection — there is no resync point.
            conn->EnqueueFrame(
                wire::FrameType::kError,
                wire::ErrorMsg::FromStatus(header.status()).Encode());
            conn->Flush();
            conn->dead = true;
            break;
          }
          const size_t frame_size =
              wire::kHeaderSize + header->payload_len;
          if (conn->inbuf.size() - consumed < frame_size) break;
          std::string payload = conn->inbuf.substr(
              consumed + wire::kHeaderSize, header->payload_len);
          consumed += frame_size;
          Status ok = wire::VerifyPayload(
              *header,
              reinterpret_cast<const uint8_t*>(payload.data()));
          if (!ok.ok()) {
            conn->EnqueueFrame(wire::FrameType::kError,
                               wire::ErrorMsg::FromStatus(ok).Encode());
            conn->Flush();
            conn->dead = true;
            break;
          }
          HandleFrame(conn, header->type, std::move(payload));
        }
        if (consumed > 0) conn->inbuf.erase(0, consumed);
      }
      if (!conn->dead) conn->Flush();
    }
    for (size_t i = connections_.size(); i-- > 0;) {
      if (connections_[i]->dead) CloseConnection(i);
    }
  }
  // Shutdown: abort everything still in flight.
  for (size_t i = connections_.size(); i-- > 0;) CloseConnection(i);
}

void SiteServer::HandleFrame(ConnectionState* conn, uint16_t type,
                             std::string payload) {
  auto fail = [conn](const Status& status) {
    conn->EnqueueFrame(wire::FrameType::kError,
                       wire::ErrorMsg::FromStatus(status).Encode());
  };
  switch (static_cast<wire::FrameType>(type)) {
    case wire::FrameType::kHello: {
      Result<wire::Hello> hello = wire::Hello::Decode(payload);
      if (!hello.ok()) return fail(hello.status());
      wire::HelloAck ack;
      ack.locations = options_.locations;
      conn->EnqueueFrame(wire::FrameType::kHelloAck, ack.Encode());
      return;
    }
    case wire::FrameType::kLoadTable: {
      Result<wire::LoadTable> load = wire::LoadTable::Decode(payload);
      if (!load.ok()) return fail(load.status());
      wire::LoadTable& msg = *load;
      if (std::find(options_.locations.begin(), options_.locations.end(),
                    msg.location) == options_.locations.end()) {
        return fail(Status::InvalidArgument(
            "location l" + std::to_string(msg.location) +
            " is not hosted by this server"));
      }
      // Persist before acknowledging: with --data-dir the chunk is in
      // the commit log (flushed) when kLoadAck leaves, so a SIGKILL
      // after the ack never loses acknowledged rows.
      std::vector<Row> chunk = vec::ToRowBatch(msg.batch).rows;
      Status stored =
          msg.replace
              ? store_.Put(msg.location, msg.table, std::move(chunk))
              : store_.AppendRows(msg.location, msg.table, std::move(chunk));
      if (!stored.ok()) return fail(stored);
      wire::LoadAck ack;
      Result<size_t> rows = store_.FragmentRows(msg.location, msg.table);
      ack.fragment_rows = rows.ok() ? static_cast<int64_t>(*rows) : 0;
      conn->EnqueueFrame(wire::FrameType::kLoadAck, ack.Encode());
      return;
    }
    case wire::FrameType::kStartFragment:
      return StartFragmentWorker(conn, std::move(payload));
    case wire::FrameType::kInputBatch: {
      Result<wire::InputBatch> input = wire::InputBatch::Decode(payload);
      if (!input.ok()) return fail(input.status());
      if (conn->session == nullptr) {
        return fail(Status::Internal("input batch without a fragment"));
      }
      auto it = conn->session->inputs.find(input->channel);
      if (it == conn->session->inputs.end()) {
        return fail(Status::Internal(
            "input batch for unknown channel " +
            std::to_string(input->channel)));
      }
      it->second->Push(std::move(input->batch));
      return;
    }
    case wire::FrameType::kInputEnd: {
      Result<wire::InputEnd> end = wire::InputEnd::Decode(payload);
      if (!end.ok()) return fail(end.status());
      if (conn->session == nullptr) return;
      auto it = conn->session->inputs.find(end->channel);
      if (it != conn->session->inputs.end()) it->second->CloseQueue();
      return;
    }
    case wire::FrameType::kCancel: {
      if (conn->session != nullptr) {
        conn->session->AbortInputs(
            Status::Cancelled("query cancelled by caller"));
      }
      return;
    }
    default:
      return fail(Status::InvalidArgument(
          "unexpected frame type " + std::to_string(type) +
          " on a server connection"));
  }
}

void SiteServer::StartFragmentWorker(ConnectionState* conn,
                                     std::string payload) {
  auto fail = [conn](const Status& status) {
    conn->EnqueueFrame(wire::FrameType::kError,
                       wire::ErrorMsg::FromStatus(status).Encode());
  };
  Result<wire::StartFragment> decoded =
      wire::StartFragment::Decode(payload);
  if (!decoded.ok()) return fail(decoded.status());
  if (conn->session != nullptr) {
    return fail(Status::Internal(
        "connection already carries a fragment (one per connection)"));
  }
  // Simulated crash: the process "dies" between receiving the fragment
  // and acknowledging it — the coordinator sees the connection drop with
  // no ack and must restart the attempt.
  if (CGQ_FAILPOINT("sited.crash_before_ack")) {
    conn->dead = true;
    return;
  }
  auto session = std::make_unique<FragmentSession>();
  session->start = std::move(decoded).ValueOrDie();
  const wire::StartFragment& start = session->start;

  // Receiving-end compliance re-check: the server refuses to run a
  // fragment whose placement violates its traits, independently of the
  // coordinator having checked the same thing before dispatch.
  if (std::find(options_.locations.begin(), options_.locations.end(),
                start.site) == options_.locations.end()) {
    return fail(Status::InvalidArgument(
        "fragment #" + std::to_string(start.fragment_id) +
        " dispatched to a server not hosting l" +
        std::to_string(start.site)));
  }
  const LocationSet ship_trait(start.ship_trait_bits);
  Status placement = CheckFragmentPlacement(
      start.fragment_id, start.site, start.root->exec_trait,
      start.has_output_ship ? &ship_trait : nullptr, start.ship_to);
  if (!placement.ok()) return fail(placement);

  for (int channel : start.input_channels) {
    session->inputs.emplace(channel, std::make_unique<InputQueue>());
  }
  conn->session = std::move(session);
  conn->EnqueueFrame(wire::FrameType::kStartAck, std::string());

  FragmentSession* fs = conn->session.get();
  SiteServer* server = this;
  fs->worker = std::thread([server, conn, fs] {
    wire::OutputEnd end;
    BatchOpEnv env;
    env.store = &server->store_;
    env.batch_size = std::max<size_t>(1, fs->start.batch_size);
    env.cancel = &fs->cancel;
    env.rows_scanned = &end.rows_scanned;
    env.storage_blocks_read = &end.blocks_read;
    env.spill_partitions = &end.spill_partitions;
    env.spill_bytes = &end.spill_bytes;
    env.memory_budget_bytes = fs->start.memory_budget_bytes;
    env.ship_source = [fs](const PlanNode& ship) -> Result<BatchOpPtr> {
      auto it = fs->inputs.find(ship.fragment_ordinal);
      if (it == fs->inputs.end()) {
        return Status::Internal("no input queue for channel " +
                                std::to_string(ship.fragment_ordinal));
      }
      return BatchOpPtr(new QueueSourceOp(&ship, it->second.get()));
    };
    auto run = [&]() -> Status {
      CGQ_ASSIGN_OR_RETURN(BatchOpPtr op,
                           BuildBatchOp(*fs->start.root, env));
      return DrainBatchOp(op.get(), env.cancel, &end.rows_out,
                          [&](vec::ColumnBatch batch) {
                            wire::OutputBatch out;
                            out.batch = std::move(batch);
                            conn->EnqueueFrame(wire::FrameType::kOutputBatch,
                                               out.Encode());
                            server->Wake();
                            return Status::OK();
                          });
    };
    Status s = run();
    if (s.ok()) {
      conn->EnqueueFrame(wire::FrameType::kOutputEnd, end.Encode());
      server->fragments_completed_.fetch_add(1,
                                             std::memory_order_relaxed);
    } else {
      conn->EnqueueFrame(wire::FrameType::kError,
                         wire::ErrorMsg::FromStatus(s).Encode());
    }
    server->Wake();
  });
}

}  // namespace net
}  // namespace cgq
