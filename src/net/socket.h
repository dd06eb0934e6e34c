#ifndef CGQ_NET_SOCKET_H_
#define CGQ_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "net/wire_protocol.h"

namespace cgq {
namespace net {

/// Bound on one blocking socket operation when the retry policy leaves
/// timeouts unbounded (< 0). A genuinely hung peer must surface as a
/// typed kUnavailable instead of wedging the coordinator (or CI) forever.
inline constexpr int kDefaultIoTimeoutMs = 30000;

/// Thin RAII wrapper over a POSIX TCP socket. Blocking calls are bounded
/// by poll() timeouts, where a negative timeout waits without bound (the
/// site server's I/O); every transport-level failure (refused connection,
/// reset, timeout, EOF mid-frame) maps to StatusCode::kUnavailable — the
/// retryable category the executors' recovery machinery already handles —
/// while protocol-level corruption (bad magic/checksum) stays
/// kInvalidArgument and version skew stays kUnsupported.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();
  /// Shuts both directions down (shutdown(2)) but keeps the descriptor:
  /// an accept, recv or send blocked on it returns, and another thread
  /// may call this while one is blocked. Close() still releases it.
  void Shutdown() const;

  /// Binds and listens on `host:port`. Port 0 asks the kernel for an
  /// ephemeral port — the only mode the test/CI harness uses — which
  /// LocalPort() then reports (the ephemeral-port discipline: nothing in
  /// the tree hardcodes a port).
  static Result<Socket> Listen(const std::string& host, uint16_t port);

  /// The actually-bound local port (getsockname), for port-0 listeners.
  Result<uint16_t> LocalPort() const;

  /// Accepts one connection, blocking until one arrives or the listener
  /// is shut down.
  Result<Socket> Accept() const;

  /// Connects to `host:port`, bounded by `timeout_ms`.
  static Result<Socket> Connect(const std::string& host, uint16_t port,
                                int timeout_ms);

  /// Sends all `len` bytes; polls for writability up to `timeout_ms` per
  /// stall. MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE.
  Status SendAll(const void* data, size_t len, int timeout_ms) const;

  /// Receives exactly `len` bytes. EOF maps to kUnavailable ("connection
  /// closed by peer"), as does an idle period of `timeout_ms`.
  Status RecvAll(void* data, size_t len, int timeout_ms) const;

 private:
  int fd_ = -1;
};

/// One decoded frame off a socket.
struct Frame {
  wire::FrameType type = wire::FrameType::kError;
  std::string payload;
};

/// Writes one whole frame (header + payload).
Status SendFrame(const Socket& socket, wire::FrameType type,
                 const std::string& payload, int timeout_ms);

/// Reads one whole frame, verifying magic, version, size bound and
/// checksum. A connection closed cleanly *between* frames still returns
/// kUnavailable — the deployment protocol always terminates streams with
/// an explicit end/ack frame, so EOF is never expected here.
Result<Frame> RecvFrame(const Socket& socket, int timeout_ms);

/// Effective IO timeout: `policy_ms` when non-negative (rounded up to a
/// whole millisecond), else kDefaultIoTimeoutMs.
int EffectiveTimeoutMs(double policy_ms);

}  // namespace net
}  // namespace cgq

#endif  // CGQ_NET_SOCKET_H_
