#ifndef CGQ_NET_CLUSTER_CLIENT_H_
#define CGQ_NET_CLUSTER_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/location.h"
#include "common/result.h"
#include "exec/table_store.h"
#include "net/socket.h"

namespace cgq {
namespace net {

/// Address of one location server.
struct Endpoint {
  std::string host;
  uint16_t port = 0;

  bool operator==(const Endpoint& other) const = default;
  bool operator<(const Endpoint& other) const {
    return host != other.host ? host < other.host : port < other.port;
  }
};

/// The coordinator's view of a deployed cluster: which server hosts which
/// location, verified against each server's handshake. Connections are
/// not pooled — the distributed executor dials a fresh connection per
/// fragment attempt, which is what maps socket-level failures cleanly
/// onto the executors' restart machinery.
class ClusterClient {
 public:
  /// Handshakes every distinct endpoint in `endpoints` and verifies each
  /// mapped location is actually hosted there (per the server's
  /// HelloAck). A version-skewed server fails with kUnsupported; an
  /// unreachable one with kUnavailable.
  Status Connect(const std::map<LocationId, Endpoint>& endpoints);

  bool connected() const { return !endpoints_.empty(); }
  bool HasServer(LocationId site) const {
    return endpoints_.count(site) > 0;
  }
  const std::map<LocationId, Endpoint>& endpoints() const {
    return endpoints_;
  }

  /// Pushes every fragment of `store` to the server hosting its location
  /// (chunked LoadTable frames, each acknowledged). Fragments whose
  /// location has no mapped server are an error — the deployment must
  /// cover the data.
  Status Deploy(const TableStore& store);

  /// Opens and handshakes a fresh connection to `site`'s server for one
  /// fragment attempt.
  Result<Socket> Dial(LocationId site, int timeout_ms) const;

  /// Most rows per LoadTable chunk during Deploy (a chunk never spans
  /// two cursor batches: a disk block or a same-width run of rows).
  static constexpr size_t kLoadChunkRows = 4096;

  int io_timeout_ms = kDefaultIoTimeoutMs;

 private:
  Result<Socket> DialEndpoint(const Endpoint& endpoint,
                              int timeout_ms) const;

  std::map<LocationId, Endpoint> endpoints_;
};

/// Parses a hosts file (the `deploy` shell statement and cgq_coord
/// --hosts format): one line per server, `host:port loc[,loc...]`,
/// '#' comments and blank lines ignored. Example:
///
///   127.0.0.1:41001 0,1
///   127.0.0.1:41002 2,3
///   127.0.0.1:41003 4
Result<std::map<LocationId, Endpoint>> ParseHostsFile(
    const std::string& path);

}  // namespace net
}  // namespace cgq

#endif  // CGQ_NET_CLUSTER_CLIENT_H_
