#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace cgq {
namespace net {

namespace {

Status Unavailable(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

Result<sockaddr_in> MakeAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  return addr;
}

/// Waits for `events` on `fd`, mapping timeout/error to kUnavailable.
Status PollFor(int fd, short events, int timeout_ms, const char* what) {
  pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Unavailable(what);
  if (rc == 0) {
    return Status::Unavailable(std::string(what) + ": timed out after " +
                               std::to_string(timeout_ms) + "ms");
  }
  if (pfd.revents & (POLLERR | POLLNVAL)) {
    return Status::Unavailable(std::string(what) + ": socket error");
  }
  return Status::OK();
}

Status SetNonBlocking(int fd, bool nonblocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Unavailable("fcntl(F_GETFL)");
  flags = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, flags) < 0) return Unavailable("fcntl(F_SETFL)");
  return Status::OK();
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::Shutdown() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<Socket> Socket::Listen(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable("socket");
  Socket s(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  CGQ_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddr(host, port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Unavailable("bind");
  }
  if (::listen(fd, 64) != 0) return Unavailable("listen");
  return s;
}

Result<uint16_t> Socket::LocalPort() const {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Unavailable("getsockname");
  }
  return ntohs(addr.sin_port);
}

Result<Socket> Socket::Accept() const {
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Unavailable("accept");
  Socket s(fd);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

Result<Socket> Socket::Connect(const std::string& host, uint16_t port,
                               int timeout_ms) {
  CGQ_ASSIGN_OR_RETURN(sockaddr_in addr, MakeAddr(host, port));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable("socket");
  Socket s(fd);
  CGQ_RETURN_NOT_OK(SetNonBlocking(fd, true));
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) return Unavailable("connect");
  if (rc != 0) {
    CGQ_RETURN_NOT_OK(PollFor(fd, POLLOUT, timeout_ms, "connect"));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      return Status::Unavailable(std::string("connect: ") +
                                 std::strerror(err ? err : errno));
    }
  }
  CGQ_RETURN_NOT_OK(SetNonBlocking(fd, false));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

Status Socket::SendAll(const void* data, size_t len, int timeout_ms) const {
  const char* p = static_cast<const char*>(data);
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd_, p + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      CGQ_RETURN_NOT_OK(PollFor(fd_, POLLOUT, timeout_ms, "send"));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Unavailable("send");
  }
  return Status::OK();
}

Status Socket::RecvAll(void* data, size_t len, int timeout_ms) const {
  char* p = static_cast<char*>(data);
  size_t off = 0;
  while (off < len) {
    CGQ_RETURN_NOT_OK(PollFor(fd_, POLLIN, timeout_ms, "recv"));
    ssize_t n = ::recv(fd_, p + off, len - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      return Status::Unavailable("recv: connection closed by peer");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return Unavailable("recv");
  }
  return Status::OK();
}

Status SendFrame(const Socket& socket, wire::FrameType type,
                 const std::string& payload, int timeout_ms) {
  std::string frame = wire::EncodeFrame(type, payload);
  return socket.SendAll(frame.data(), frame.size(), timeout_ms);
}

Result<Frame> RecvFrame(const Socket& socket, int timeout_ms) {
  uint8_t header_bytes[wire::kHeaderSize];
  CGQ_RETURN_NOT_OK(
      socket.RecvAll(header_bytes, wire::kHeaderSize, timeout_ms));
  CGQ_ASSIGN_OR_RETURN(
      wire::FrameHeader header,
      wire::DecodeFrameHeader(header_bytes, wire::kHeaderSize));
  Frame frame;
  frame.payload.resize(header.payload_len);
  if (header.payload_len > 0) {
    CGQ_RETURN_NOT_OK(
        socket.RecvAll(&frame.payload[0], header.payload_len, timeout_ms));
  }
  CGQ_RETURN_NOT_OK(wire::VerifyPayload(
      header, reinterpret_cast<const uint8_t*>(frame.payload.data())));
  if (header.type < static_cast<uint16_t>(wire::FrameType::kHello) ||
      header.type > static_cast<uint16_t>(wire::FrameType::kCancel)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(header.type));
  }
  frame.type = static_cast<wire::FrameType>(header.type);
  return frame;
}

int EffectiveTimeoutMs(double policy_ms) {
  if (policy_ms < 0) return kDefaultIoTimeoutMs;
  return std::max(1, static_cast<int>(std::ceil(policy_ms)));
}

}  // namespace net
}  // namespace cgq
