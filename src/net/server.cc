#include "net/server.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "common/failpoint.h"
#include "exec/batch_ops.h"
#include "exec/executor.h"
#include "exec/fragmenter.h"
#include "net/wire_protocol.h"

namespace cgq {
namespace net {

namespace {

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

/// One in-flight fragment (at most one per connection: the coordinator
/// dials a fresh connection per attempt).
struct FragmentSession {
  wire::StartFragment start;
  std::unordered_map<int, std::unique_ptr<InputQueue>> inputs;
  std::shared_ptr<std::atomic<bool>> cancel =
      std::make_shared<std::atomic<bool>>(false);
  std::thread worker;

  void AbortInputs(const Status& status) {
    cancel->store(true, std::memory_order_release);
    for (auto& [channel, queue] : inputs) queue->Abort(status);
  }
};

}  // namespace

/// One accepted connection. Its thread reads every frame; its replies
/// and the fragment worker's output frames share send_mu, so frames never
/// interleave on the socket.
struct SiteServer::Connection {
  Socket socket;
  std::mutex send_mu;
  std::unique_ptr<FragmentSession> session;
  std::thread thread;
  bool done = false;  // under SiteServer::mu_: socket closed, thread ending

  Status Send(wire::FrameType type, const std::string& payload) {
    std::lock_guard<std::mutex> lock(send_mu);
    return SendFrame(socket, type, payload, /*timeout_ms=*/-1);
  }
  Status SendError(const Status& status) {
    return Send(wire::FrameType::kError,
                wire::ErrorMsg::FromStatus(status).Encode());
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
  stopping_ = false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void SiteServer::Stop() {
  if (!started_) return;
  {
    // Shutting a socket down returns the accept, recv or send blocked on
    // it; the sockets close on their own threads.
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    listener_.Shutdown();
    for (const auto& conn : connections_) {
      if (!conn->done) conn->socket.Shutdown();
    }
  }
  accept_thread_.join();
  // Only the accept thread changes connections_, and it has ended.
  for (const auto& conn : connections_) conn->thread.join();
  connections_.clear();
  listener_.Close();
  started_ = false;
}

void SiteServer::AcceptLoop() {
  while (true) {
    Result<Socket> accepted = listener_.Accept();
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    if (!accepted.ok()) continue;
    if (CGQ_FAILPOINT("sited.accept")) continue;  // refuse: drop it
    // Join the connections that ended since the last accept.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done) {
        (*it)->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    Connection* conn =
        connections_.emplace_back(std::make_unique<Connection>()).get();
    conn->socket = std::move(accepted).ValueOrDie();
    conn->thread = std::thread([this, conn] { Serve(conn); });
  }
}

void SiteServer::Serve(Connection* conn) {
  while (true) {
    Result<Frame> frame = RecvFrame(conn->socket, /*timeout_ms=*/-1);
    if (!frame.ok()) {
      // A framing refusal (bad magic, version skew, bad checksum) is
      // answered; there is no resync point, so the connection drops.
      if (!frame.status().IsUnavailable()) {
        (void)conn->SendError(frame.status());
      }
      break;
    }
    if (!HandleFrame(conn, *frame).ok()) break;
  }
  if (conn->session != nullptr) {
    // Fail a send the worker is blocked in, then end the fragment.
    conn->socket.Shutdown();
    conn->session->AbortInputs(
        Status::Unavailable("connection closed by coordinator"));
    conn->session->worker.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  conn->socket.Close();
  conn->done = true;
}

/// Answers one frame. A refused request is answered with kError and keeps
/// the connection; an error return (a failed send, a simulated crash)
/// drops it.
Status SiteServer::HandleFrame(Connection* conn, const Frame& frame) {
  switch (frame.type) {
    case wire::FrameType::kHello: {
      Result<wire::Hello> hello = wire::Hello::Decode(frame.payload);
      if (!hello.ok()) return conn->SendError(hello.status());
      wire::HelloAck ack;
      ack.locations = options_.locations;
      return conn->Send(wire::FrameType::kHelloAck, ack.Encode());
    }
    case wire::FrameType::kLoadTable: {
      Result<wire::LoadTable> load = wire::LoadTable::Decode(frame.payload);
      if (!load.ok()) return conn->SendError(load.status());
      wire::LoadTable& msg = *load;
      if (std::find(options_.locations.begin(), options_.locations.end(),
                    msg.location) == options_.locations.end()) {
        return conn->SendError(Status::InvalidArgument(
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
      if (!stored.ok()) return conn->SendError(stored);
      wire::LoadAck ack;
      Result<size_t> rows = store_.FragmentRows(msg.location, msg.table);
      ack.fragment_rows = rows.ok() ? static_cast<int64_t>(*rows) : 0;
      return conn->Send(wire::FrameType::kLoadAck, ack.Encode());
    }
    case wire::FrameType::kStartFragment:
      return StartFragment(conn, frame.payload);
    case wire::FrameType::kInputBatch: {
      Result<wire::InputBatch> input =
          wire::InputBatch::Decode(frame.payload);
      if (!input.ok()) return conn->SendError(input.status());
      if (conn->session == nullptr) {
        return conn->SendError(
            Status::Internal("input batch without a fragment"));
      }
      auto it = conn->session->inputs.find(input->channel);
      if (it == conn->session->inputs.end()) {
        return conn->SendError(Status::Internal(
            "input batch for unknown channel " +
            std::to_string(input->channel)));
      }
      it->second->Push(std::move(input->batch));
      return Status::OK();
    }
    case wire::FrameType::kInputEnd: {
      Result<wire::InputEnd> end = wire::InputEnd::Decode(frame.payload);
      if (!end.ok()) return conn->SendError(end.status());
      if (conn->session == nullptr) return Status::OK();
      auto it = conn->session->inputs.find(end->channel);
      if (it != conn->session->inputs.end()) it->second->CloseQueue();
      return Status::OK();
    }
    case wire::FrameType::kCancel: {
      if (conn->session != nullptr) {
        conn->session->AbortInputs(
            Status::Cancelled("query cancelled by caller"));
      }
      return Status::OK();
    }
    default:
      return conn->SendError(Status::InvalidArgument(
          "unexpected frame type " +
          std::to_string(static_cast<int>(frame.type)) +
          " on a server connection"));
  }
}

Status SiteServer::StartFragment(Connection* conn,
                                 const std::string& payload) {
  Result<wire::StartFragment> decoded =
      wire::StartFragment::Decode(payload);
  if (!decoded.ok()) return conn->SendError(decoded.status());
  if (conn->session != nullptr) {
    return conn->SendError(Status::Internal(
        "connection already carries a fragment (one per connection)"));
  }
  // Simulated crash: the process "dies" between receiving the fragment
  // and acknowledging it — the coordinator sees the connection drop with
  // no ack and must restart the attempt.
  if (CGQ_FAILPOINT("sited.crash_before_ack")) {
    return Status::Unavailable("injected failure: crash before StartAck");
  }
  auto session = std::make_unique<FragmentSession>();
  session->start = std::move(decoded).ValueOrDie();
  const wire::StartFragment& start = session->start;

  // Receiving-end compliance re-check: the server refuses to run a
  // fragment whose placement violates its traits, independently of the
  // coordinator having checked the same thing before dispatch.
  if (std::find(options_.locations.begin(), options_.locations.end(),
                start.site) == options_.locations.end()) {
    return conn->SendError(Status::InvalidArgument(
        "fragment #" + std::to_string(start.fragment_id) +
        " dispatched to a server not hosting l" +
        std::to_string(start.site)));
  }
  const LocationSet ship_trait(start.ship_trait_bits);
  Status placement = CheckFragmentPlacement(
      start.fragment_id, start.site, start.root->exec_trait,
      start.has_output_ship ? &ship_trait : nullptr, start.ship_to);
  if (!placement.ok()) return conn->SendError(placement);

  for (int channel : start.input_channels) {
    session->inputs.emplace(channel, std::make_unique<InputQueue>());
  }
  CGQ_RETURN_NOT_OK(conn->Send(wire::FrameType::kStartAck, std::string()));
  conn->session = std::move(session);

  FragmentSession* fs = conn->session.get();
  fs->worker = std::thread([this, conn, fs] {
    ExecutorOptions options;
    options.batch_size = static_cast<int>(
        std::min<uint32_t>(fs->start.batch_size, INT32_MAX));
    options.memory_budget_bytes = fs->start.memory_budget_bytes;
    options.cancel = fs->cancel;
    // A decoded SHIP leaf carries its channel id in fragment_ordinal.
    auto recv = [fs](const PlanNode& ship) -> Result<OptBatch> {
      auto it = fs->inputs.find(ship.fragment_ordinal);
      if (it == fs->inputs.end()) {
        return Status::Internal("no input queue for channel " +
                                std::to_string(ship.fragment_ordinal));
      }
      return it->second->Pop();
    };
    wire::OutputEnd end;
    Status s = exec_internal::RunFragmentTree(
        *fs->start.root, &store_, options, std::move(recv), &end,
        [&](vec::ColumnBatch batch) {
          wire::OutputBatch out;
          out.batch = std::move(batch);
          return conn->Send(wire::FrameType::kOutputBatch, out.Encode());
        });
    if (s.ok()) {
      // Counted before kOutputEnd leaves: a client that read it sees it.
      fragments_completed_.fetch_add(1, std::memory_order_relaxed);
      (void)conn->Send(wire::FrameType::kOutputEnd, end.Encode());
    } else {
      (void)conn->SendError(s);
    }
  });
  return Status::OK();
}

}  // namespace net
}  // namespace cgq
