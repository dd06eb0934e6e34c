#include "net/cluster_client.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/failpoint.h"
#include "net/wire_protocol.h"

namespace cgq {
namespace net {

namespace {

/// Hello -> HelloAck over a fresh socket; returns the server's hosted
/// locations.
Result<std::vector<LocationId>> Handshake(const Socket& socket,
                                          int timeout_ms) {
  wire::Hello hello;
  CGQ_RETURN_NOT_OK(SendFrame(socket, wire::FrameType::kHello,
                              hello.Encode(), timeout_ms));
  CGQ_ASSIGN_OR_RETURN(Frame frame, RecvFrame(socket, timeout_ms));
  if (frame.type == wire::FrameType::kError) {
    CGQ_ASSIGN_OR_RETURN(wire::ErrorMsg err,
                         wire::ErrorMsg::Decode(frame.payload));
    return err.ToStatus();
  }
  if (frame.type != wire::FrameType::kHelloAck) {
    return Status::InvalidArgument(
        "handshake: expected HelloAck, got " +
        std::string(wire::FrameTypeToString(frame.type)));
  }
  CGQ_ASSIGN_OR_RETURN(wire::HelloAck ack,
                       wire::HelloAck::Decode(frame.payload));
  if (ack.version != wire::kVersion) {
    return Status::Unsupported(
        "wire protocol version mismatch: server speaks v" +
        std::to_string(ack.version) + ", client v" +
        std::to_string(wire::kVersion));
  }
  return std::move(ack.locations);
}

}  // namespace

Result<Socket> ClusterClient::DialEndpoint(const Endpoint& endpoint,
                                           int timeout_ms) const {
  if (CGQ_FAILPOINT("net.client.connect")) {
    return Status::Unavailable("injected failure: connection refused by " +
                               endpoint.host + ":" +
                               std::to_string(endpoint.port));
  }
  CGQ_ASSIGN_OR_RETURN(
      Socket socket,
      Socket::Connect(endpoint.host, endpoint.port, timeout_ms));
  CGQ_ASSIGN_OR_RETURN(std::vector<LocationId> hosted,
                       Handshake(socket, timeout_ms));
  (void)hosted;
  return socket;
}

Status ClusterClient::Connect(
    const std::map<LocationId, Endpoint>& endpoints) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("empty cluster endpoint map");
  }
  // Handshake each distinct server once and learn its hosted set.
  std::map<Endpoint, std::vector<LocationId>> hosted_by_server;
  for (const auto& [site, endpoint] : endpoints) {
    if (hosted_by_server.count(endpoint) > 0) continue;
    CGQ_ASSIGN_OR_RETURN(
        Socket socket,
        Socket::Connect(endpoint.host, endpoint.port, io_timeout_ms));
    CGQ_ASSIGN_OR_RETURN(std::vector<LocationId> hosted,
                         Handshake(socket, io_timeout_ms));
    hosted_by_server.emplace(endpoint, std::move(hosted));
  }
  for (const auto& [site, endpoint] : endpoints) {
    const std::vector<LocationId>& hosted = hosted_by_server[endpoint];
    if (std::find(hosted.begin(), hosted.end(), site) == hosted.end()) {
      return Status::InvalidArgument(
          "server " + endpoint.host + ":" +
          std::to_string(endpoint.port) + " does not host location l" +
          std::to_string(site));
    }
  }
  endpoints_ = endpoints;
  return Status::OK();
}

Status ClusterClient::Deploy(const TableStore& store) {
  if (!connected()) {
    return Status::InvalidArgument("deploy: not connected to a cluster");
  }
  // One connection per distinct server, pushing all its fragments.
  std::map<Endpoint, Socket> sessions;
  for (const TableStore::FragmentRef& fragment : store.ListFragments()) {
    auto endpoint_it = endpoints_.find(fragment.location);
    if (endpoint_it == endpoints_.end()) {
      return Status::InvalidArgument(
          "deploy: no server mapped for location l" +
          std::to_string(fragment.location));
    }
    const Endpoint& endpoint = endpoint_it->second;
    auto session_it = sessions.find(endpoint);
    if (session_it == sessions.end()) {
      CGQ_ASSIGN_OR_RETURN(Socket socket,
                           DialEndpoint(endpoint, io_timeout_ms));
      session_it = sessions.emplace(endpoint, std::move(socket)).first;
    }
    const Socket& socket = session_it->second;
    // Chunked push streamed from the store's cursor (disk-backed stores
    // never materialize the fragment); an empty fragment still sends one
    // (replacing) chunk so the server learns the table exists at the
    // location.
    bool first = true;
    auto send_chunk = [&](vec::ColumnBatch batch) -> Status {
      wire::LoadTable chunk;
      chunk.location = fragment.location;
      chunk.table = fragment.table;
      chunk.replace = first;
      chunk.batch = std::move(batch);
      first = false;
      CGQ_RETURN_NOT_OK(SendFrame(socket, wire::FrameType::kLoadTable,
                                  chunk.Encode(), io_timeout_ms));
      CGQ_ASSIGN_OR_RETURN(Frame reply,
                           RecvFrame(socket, io_timeout_ms));
      if (reply.type == wire::FrameType::kError) {
        CGQ_ASSIGN_OR_RETURN(wire::ErrorMsg err,
                             wire::ErrorMsg::Decode(reply.payload));
        return err.ToStatus();
      }
      if (reply.type != wire::FrameType::kLoadAck) {
        return Status::InvalidArgument(
            "deploy: expected LoadAck, got " +
            std::string(wire::FrameTypeToString(reply.type)));
      }
      return Status::OK();
    };
    CGQ_ASSIGN_OR_RETURN(TableStore::Cursor cursor,
                         store.Scan(fragment.location, fragment.table));
    vec::ColumnBatch block;
    while (true) {
      CGQ_ASSIGN_OR_RETURN(bool more, cursor.Next(&block));
      if (!more) break;
      for (size_t begin = 0; begin < block.NumRows();
           begin += kLoadChunkRows) {
        CGQ_RETURN_NOT_OK(send_chunk(block.Slice(
            begin, std::min(begin + kLoadChunkRows, block.NumRows()))));
      }
    }
    if (first) CGQ_RETURN_NOT_OK(send_chunk(vec::ColumnBatch()));
  }
  return Status::OK();
}

Result<Socket> ClusterClient::Dial(LocationId site,
                                   int timeout_ms) const {
  auto it = endpoints_.find(site);
  if (it == endpoints_.end()) {
    return Status::InvalidArgument("no server mapped for location l" +
                                   std::to_string(site));
  }
  return DialEndpoint(it->second, timeout_ms);
}

Result<std::map<LocationId, Endpoint>> ParseHostsFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open hosts file: " + path);
  }
  std::map<LocationId, Endpoint> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string address, locations;
    if (!(fields >> address)) continue;  // blank line
    if (!(fields >> locations)) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(lineno) +
          ": expected 'host:port loc[,loc...]'");
    }
    const size_t colon = address.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= address.size()) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": bad address '" + address + "'");
    }
    Endpoint endpoint;
    endpoint.host = address.substr(0, colon);
    try {
      const unsigned long port = std::stoul(address.substr(colon + 1));
      if (port == 0 || port > 65535) throw std::out_of_range("port");
      endpoint.port = static_cast<uint16_t>(port);
    } catch (const std::exception&) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": bad port in '" + address + "'");
    }
    std::istringstream locs(locations);
    std::string token;
    while (std::getline(locs, token, ',')) {
      try {
        const unsigned long id = std::stoul(token);
        if (id >= 64) throw std::out_of_range("location");
        out[static_cast<LocationId>(id)] = endpoint;
      } catch (const std::exception&) {
        return Status::InvalidArgument(
            path + ":" + std::to_string(lineno) + ": bad location '" +
            token + "'");
      }
    }
  }
  if (out.empty()) {
    return Status::InvalidArgument("hosts file maps no locations: " +
                                   path);
  }
  return out;
}

}  // namespace net
}  // namespace cgq
