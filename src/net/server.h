#ifndef CGQ_NET_SERVER_H_
#define CGQ_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/location.h"
#include "common/result.h"
#include "exec/table_store.h"
#include "net/socket.h"

namespace cgq {
namespace net {

/// A location server: hosts the TableStore slice of one or more locations
/// and executes plan fragments dispatched by the coordinator. An accept
/// thread hands every connection to a thread of its own, which reads
/// frames with net::RecvFrame and answers with net::SendFrame, the frame
/// I/O of the coordinator's end.
///
/// Protocol per connection (the coordinator dials a fresh connection per
/// fragment *attempt*, so a connection carries at most one fragment):
///
///   Hello -> HelloAck                    version handshake
///   LoadTable -> LoadAck (repeated)      deployment: push store slices
///   StartFragment -> StartAck | Error    placement re-checked HERE, on
///                                        the receiving end, before any
///                                        row is produced
///   InputBatch*/InputEnd  (per channel)  rows for the fragment's SHIP
///                                        leaves, relayed by the
///                                        coordinator
///   OutputBatch* + OutputEnd | Error     the fragment's result stream
///   Cancel                               cooperative cancellation
///
/// A fragment runs on its own worker thread against the *same* operator
/// core (exec_internal::BuildBatchOp) the in-process backends use, which
/// is what makes loopback results byte-identical to ExecMode::kFragment,
/// while the connection thread goes on reading its input frames. Input
/// channels buffer without bound: one socket multiplexes all of a
/// fragment's channels, and the coordinator's sequential schedule may
/// relay a whole intermediate before the consumer drains it. The worker
/// sends its output frames itself under the connection's send mutex, so
/// a coordinator that stops reading blocks its own connection only.
///
/// Server I/O has no timeouts: a connection waits for its next frame
/// without a bound. Stop() shuts every socket down, which returns every
/// blocked call, and then joins every thread. An ended connection's
/// thread is joined at the next accept or by Stop().
class SiteServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral: the kernel picks, port() reports. Nothing in the
    /// tree hardcodes a port (CI runs many builds on one machine).
    uint16_t port = 0;
    /// Locations whose store slices this server hosts (a deployment may
    /// map several locations onto one server process).
    std::vector<LocationId> locations;
    /// When non-empty, the hosted store runs in StorageMode::kDisk on
    /// this directory: LoadTable chunks are durable before kLoadAck, and
    /// Start() recovers previously persisted fragments, so a restarted
    /// server serves its hosted fragments without redeployment.
    std::string data_dir;
  };

  explicit SiteServer(Options options);
  ~SiteServer();

  SiteServer(const SiteServer&) = delete;
  SiteServer& operator=(const SiteServer&) = delete;

  /// Binds, starts accepting. port() is valid afterwards.
  Status Start();

  /// Stops accepting, drops every connection (aborting its fragment) and
  /// joins every thread. Idempotent.
  void Stop();

  /// The actually-bound port (ephemeral when Options::port was 0).
  uint16_t port() const { return port_; }

  const std::vector<LocationId>& locations() const {
    return options_.locations;
  }

  /// The hosted store slice. Local pre-loading is allowed before Start();
  /// after that, mutation arrives via LoadTable frames only.
  TableStore* mutable_store() { return &store_; }

  /// Fragments executed to completion (diagnostics / tests).
  int64_t fragments_completed() const {
    return fragments_completed_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;

  void AcceptLoop();
  void Serve(Connection* conn);
  Status HandleFrame(Connection* conn, const Frame& frame);
  Status StartFragment(Connection* conn, const std::string& payload);

  Options options_;
  Socket listener_;
  uint16_t port_ = 0;
  bool started_ = false;
  TableStore store_;
  /// Guards stopping_, connections_ and every connection's socket close.
  std::mutex mu_;
  bool stopping_ = false;
  std::list<std::unique_ptr<Connection>> connections_;
  std::atomic<int64_t> fragments_completed_{0};
  std::thread accept_thread_;
};

}  // namespace net
}  // namespace cgq

#endif  // CGQ_NET_SERVER_H_
