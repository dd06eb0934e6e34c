#include "exec/distributed_executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "exec/batch_ops.h"
#include "exec/exec_internal.h"
#include "exec/fragment_executor.h"
#include "net/cluster_client.h"
#include "net/socket.h"
#include "net/wire_protocol.h"

namespace cgq {

using exec_internal::CheckCancelled;
using exec_internal::RunState;

namespace {

/// Client-side frame send with the socket fault injection sites. These
/// mirror the in-process "channel.send"-style failpoints at the wire
/// level: a reset drops the connection before any byte, a partial write
/// leaves the server holding a truncated frame (it sees EOF mid-frame
/// when the coordinator abandons the connection).
Status SendFrameFp(const net::Socket& socket, wire::FrameType type,
                   const std::string& payload, int timeout_ms) {
  if (CGQ_FAILPOINT("net.client.send")) {
    return Status::Unavailable(
        "injected failure: connection reset during send");
  }
  std::string frame = wire::EncodeFrame(type, payload);
  if (CGQ_FAILPOINT("net.client.partial_write")) {
    (void)socket.SendAll(frame.data(), frame.size() / 2, timeout_ms);
    return Status::Unavailable("injected failure: partial frame write");
  }
  return socket.SendAll(frame.data(), frame.size(), timeout_ms);
}

Result<net::Frame> RecvFrameFp(const net::Socket& socket,
                               int timeout_ms) {
  if (CGQ_FAILPOINT("net.client.recv")) {
    return Status::Unavailable("injected failure: recv timed out");
  }
  return net::RecvFrame(socket, timeout_ms);
}

/// One fragment attempt against its location server: dial, dispatch,
/// relay the input channels, stream the output back through the
/// in-process channel (or into the final result).
Status RunRemoteFragment(const PlanFragment& fragment, RunState* st) {
  const ExecutorOptions& options = *st->options;
  const int send_timeout =
      net::EffectiveTimeoutMs(options.retry.send_timeout_ms);
  const int recv_timeout =
      net::EffectiveTimeoutMs(options.retry.recv_timeout_ms);

  CGQ_ASSIGN_OR_RETURN(
      net::Socket socket,
      options.cluster->Dial(fragment.site, send_timeout));

  wire::StartFragment start;
  start.fragment_id = fragment.id;
  start.site = fragment.site;
  start.batch_size =
      static_cast<uint32_t>(std::max(1, options.batch_size));
  start.memory_budget_bytes = options.memory_budget_bytes;
  if (fragment.ship != nullptr) {
    start.has_output_ship = true;
    start.ship_to = fragment.ship->ship_to;
    start.ship_trait_bits = fragment.ship->ship_trait.bits();
  }
  // Non-owning alias: Encode only reads the tree, which the plan owns.
  start.root = PlanNodePtr(PlanNodePtr(),
                           const_cast<PlanNode*>(fragment.root));
  CGQ_ASSIGN_OR_RETURN(std::string start_payload,
                       start.Encode(st->fp->channel_of_ship));
  CGQ_RETURN_NOT_OK(SendFrameFp(socket, wire::FrameType::kStartFragment,
                                start_payload, send_timeout));

  // The server re-checks placement before acknowledging; a compliance
  // refusal comes back as a typed kError, a simulated crash as a dropped
  // connection (kUnavailable).
  CGQ_ASSIGN_OR_RETURN(net::Frame ack,
                       RecvFrameFp(socket, recv_timeout));
  if (ack.type == wire::FrameType::kError) {
    CGQ_ASSIGN_OR_RETURN(wire::ErrorMsg err,
                         wire::ErrorMsg::Decode(ack.payload));
    return err.ToStatus();
  }
  if (ack.type != wire::FrameType::kStartAck) {
    return Status::InvalidArgument(
        "expected StartAck, got " +
        std::string(wire::FrameTypeToString(ack.type)));
  }

  // Relay every input channel to the server: whatever the in-process
  // channel delivers (post fault-injection, retries and replays) is what
  // the remote operator tree consumes. Relays run on their own threads
  // because under the pipelined schedule the producers are still live.
  std::mutex send_mu;
  std::mutex relay_mu;
  Status relay_error;
  auto relay = [&](int channel_id) {
    ShipChannel* channel = st->channels[channel_id].get();
    Status s = [&]() -> Status {
      while (true) {
        vec::ColumnBatch batch;
        CGQ_ASSIGN_OR_RETURN(bool got, channel->Recv(&batch));
        if (!got) break;
        wire::InputBatch msg;
        msg.channel = channel_id;
        msg.batch = std::move(batch);
        std::lock_guard<std::mutex> lock(send_mu);
        CGQ_RETURN_NOT_OK(SendFrameFp(socket,
                                      wire::FrameType::kInputBatch,
                                      msg.Encode(), send_timeout));
      }
      wire::InputEnd end;
      end.channel = channel_id;
      std::lock_guard<std::mutex> lock(send_mu);
      return SendFrameFp(socket, wire::FrameType::kInputEnd,
                         end.Encode(), send_timeout);
    }();
    if (!s.ok()) {
      {
        std::lock_guard<std::mutex> lock(relay_mu);
        if (relay_error.ok()) relay_error = s;
      }
      if (!channel->abort_status().ok()) s = channel->abort_status();
      // Wake the server out of its input wait so its error (or our
      // closed connection) unblocks the output loop below.
      std::lock_guard<std::mutex> lock(send_mu);
      (void)SendFrameFp(socket, wire::FrameType::kCancel, std::string(),
                        send_timeout);
    }
  };
  std::vector<std::thread> relays;
  relays.reserve(fragment.input_channels.size());
  for (int channel_id : fragment.input_channels) {
    relays.emplace_back(relay, channel_id);
  }
  auto join_relays = [&] {
    for (std::thread& t : relays) {
      if (t.joinable()) t.join();
    }
  };

  // Stream the fragment's output back. Its batches must carry the
  // fragment root's layout: the consumer resolves columns by it.
  const std::atomic<bool>* cancel = options.cancel.get();
  const RowLayout root_layout = exec_internal::LayoutOf(*fragment.root);
  Status s = [&]() -> Status {
    while (true) {
      CGQ_RETURN_NOT_OK(CheckCancelled(cancel));
      // Distinct site from net.client.recv: this one only fires inside
      // the output stream (after StartAck), modelling a connection reset
      // mid-stream rather than a dead server.
      if (CGQ_FAILPOINT("net.client.recv.stream")) {
        return Status::Unavailable(
            "injected failure: connection reset mid-stream");
      }
      CGQ_ASSIGN_OR_RETURN(net::Frame frame,
                           RecvFrameFp(socket, recv_timeout));
      switch (frame.type) {
        case wire::FrameType::kOutputBatch: {
          CGQ_ASSIGN_OR_RETURN(wire::OutputBatch msg,
                               wire::OutputBatch::Decode(frame.payload));
          if (msg.batch.layout.attrs() != root_layout.attrs()) {
            return Status::InvalidArgument(
                "output batch of fragment #" + std::to_string(fragment.id) +
                " does not carry the fragment root's layout");
          }
          CGQ_RETURN_NOT_OK(st->Emit(fragment, std::move(msg.batch)));
          break;
        }
        case wire::FrameType::kOutputEnd: {
          CGQ_ASSIGN_OR_RETURN(wire::OutputEnd msg,
                               wire::OutputEnd::Decode(frame.payload));
          st->counters[fragment.id] += msg;
          return Status::OK();
        }
        case wire::FrameType::kError: {
          CGQ_ASSIGN_OR_RETURN(wire::ErrorMsg err,
                               wire::ErrorMsg::Decode(frame.payload));
          return err.ToStatus();
        }
        default:
          return Status::InvalidArgument(
              "unexpected frame " +
              std::string(wire::FrameTypeToString(frame.type)) +
              " in fragment output stream");
      }
    }
  }();
  if (!s.ok()) {
    // Shutting the connection down aborts the server-side session and
    // fails every relay send at once; the relays blocked on a channel
    // unblock via the abort our caller issues (or has issued). The
    // socket closes only after the relays are joined: a descriptor
    // closed under a relay could be reused by another dial.
    socket.Shutdown();
  }
  join_relays();
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(relay_mu);
    if (!relay_error.ok()) s = relay_error;
  }
  return s;
}

}  // namespace

Result<QueryResult> ExecuteDistributedPlan(const PlanNode& plan,
                                           const TableStore* store,
                                           const NetworkModel* net,
                                           const ExecutorOptions& options) {
  (void)store;  // the coordinator reads no base data; servers hold it
  if (options.cluster == nullptr || !options.cluster->connected()) {
    return Status::InvalidArgument(
        "distributed execution requires a connected cluster "
        "(ExecutorOptions::cluster)");
  }
  for (const PlanFragment& fragment : FragmentPlan(plan).fragments) {
    if (!options.cluster->HasServer(fragment.site)) {
      return Status::InvalidArgument(
          "no server mapped for location l" +
          std::to_string(fragment.site));
    }
  }
  // The coordinator's dispatch/relay schedule is the shared scheduler's;
  // the operator trees themselves always run concurrently on the servers.
  return exec_internal::RunFragments(plan, net, options, RunRemoteFragment);
}

}  // namespace cgq
