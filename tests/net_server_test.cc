// Protocol-level tests of the location server over real loopback TCP:
// ephemeral-port discipline, handshake verification, chunked deployment
// round-trips, framing refusals (bad magic, version skew, corrupted
// checksums) and the receiving-end placement re-check that runs before
// a fragment produces its first row.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/table_store.h"
#include "exec/vector/column_batch.h"
#include "net/cluster_client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire_protocol.h"
#include "plan/plan_node.h"

namespace cgq {
namespace net {
namespace {

constexpr int kIoMs = 5000;

SiteServer::Options Hosting(std::vector<LocationId> locations) {
  SiteServer::Options o;
  o.locations = std::move(locations);
  return o;
}

Result<Socket> DialRaw(uint16_t port) {
  return Socket::Connect("127.0.0.1", port, kIoMs);
}

// Dial + Hello/HelloAck; returns the handshaken socket.
Result<Socket> DialHandshaken(uint16_t port) {
  CGQ_ASSIGN_OR_RETURN(Socket s, DialRaw(port));
  CGQ_RETURN_NOT_OK(SendFrame(s, wire::FrameType::kHello,
                              wire::Hello().Encode(), kIoMs));
  CGQ_ASSIGN_OR_RETURN(Frame ack, RecvFrame(s, kIoMs));
  if (ack.type != wire::FrameType::kHelloAck) {
    return Status::Internal("handshake did not ack");
  }
  return s;
}

// A one-table scan fragment rooted at `site`, executable against rows
// of shape (int64). exec trait = exactly {site}.
PlanNodePtr ScanPlan(const std::string& table, LocationId site) {
  auto scan = std::make_shared<PlanNode>(PlanKind::kScan);
  scan->table = table;
  scan->scan_location = site;
  scan->outputs = {{1, "x", DataType::kInt64}};
  scan->exec_trait = LocationSet(uint64_t{1} << site);
  scan->location = site;
  return scan;
}

// A consumer fragment at l0: Project(attr 1) over a SHIP leaf from l1
// with layout (1, 2). Encoded with the leaf on input channel 0.
Result<std::string> ConsumerFragment(int fragment_id) {
  const std::vector<OutputCol> cols = {{1, "x", DataType::kInt64},
                                       {2, "y", DataType::kInt64}};
  auto producer = ScanPlan("t", 1);
  producer->outputs = cols;
  auto ship = std::make_shared<PlanNode>(PlanKind::kShip);
  ship->ship_from = 1;
  ship->ship_to = 0;
  ship->location = 0;
  ship->outputs = cols;
  ship->children().push_back(producer);
  auto project = std::make_shared<PlanNode>(PlanKind::kProject);
  project->project_ids = {1};
  project->outputs = {cols[0]};
  project->location = 0;
  project->children().push_back(ship);

  wire::StartFragment start;
  start.fragment_id = fragment_id;
  start.site = 0;
  start.batch_size = 16;
  start.root = project;
  return start.Encode({{ship.get(), 0}});
}

// About 16 MB of rows, more than loopback socket buffers hold, so a
// fragment scanning them blocks in a send once its reader stops reading.
std::vector<Row> WideRows() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 16000; ++i) {
    rows.push_back({Value::String(std::string(1000, 'a'))});
  }
  return rows;
}

// A scan of WideRows' table "t" at l0, 64 rows per output batch.
Result<std::string> WideScanFragment() {
  wire::StartFragment start;
  start.site = 0;
  start.batch_size = 64;
  start.root = ScanPlan("t", 0);
  start.root->outputs = {{1, "s", DataType::kString}};
  return start.Encode({});
}

// Sends kStartFragment and expects kStartAck.
Status StartAcked(const Socket& sock, const std::string& payload) {
  CGQ_RETURN_NOT_OK(
      SendFrame(sock, wire::FrameType::kStartFragment, payload, kIoMs));
  CGQ_ASSIGN_OR_RETURN(Frame ack, RecvFrame(sock, kIoMs));
  if (ack.type != wire::FrameType::kStartAck) {
    return Status::Internal(std::string("expected StartAck, got ") +
                            wire::FrameTypeToString(ack.type));
  }
  return Status::OK();
}

TEST(SiteServerTest, BindsEphemeralPortAndStopsIdempotently) {
  SiteServer a(Hosting({0}));
  SiteServer b(Hosting({1}));
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  // Both asked for port 0 and both are bound: the kernel handed out
  // distinct ephemeral ports — nothing is hardcoded anywhere.
  EXPECT_NE(a.port(), b.port());
  a.Stop();
  a.Stop();  // idempotent
  b.Stop();
}

TEST(SiteServerTest, HandshakeReportsHostedLocations) {
  SiteServer server(Hosting({2, 3}));
  ASSERT_TRUE(server.Start().ok());

  auto sock = DialRaw(server.port());
  ASSERT_TRUE(sock.ok()) << sock.status();
  ASSERT_TRUE(SendFrame(*sock, wire::FrameType::kHello,
                        wire::Hello().Encode(), kIoMs)
                  .ok());
  auto frame = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, wire::FrameType::kHelloAck);
  auto ack = wire::HelloAck::Decode(frame->payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->version, wire::kVersion);
  EXPECT_EQ(ack->locations, (std::vector<LocationId>{2, 3}));
  server.Stop();
}

TEST(SiteServerTest, ClusterClientVerifiesLocationMapping) {
  SiteServer server(Hosting({0, 1}));
  ASSERT_TRUE(server.Start().ok());
  const Endpoint ep{"127.0.0.1", server.port()};

  // A location mapped to a server that does not host it is refused at
  // Connect time, before any deployment or query work.
  ClusterClient bad;
  Status s = bad.Connect({{0, ep}, {4, ep}});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("l4"), std::string::npos) << s;
  EXPECT_FALSE(bad.connected());

  ClusterClient good;
  ASSERT_TRUE(good.Connect({{0, ep}, {1, ep}}).ok());
  EXPECT_TRUE(good.connected());
  EXPECT_TRUE(good.HasServer(0));
  EXPECT_TRUE(good.HasServer(1));
  EXPECT_FALSE(good.HasServer(2));
  server.Stop();
}

TEST(SiteServerTest, VersionSkewRefusedTyped) {
  SiteServer server(Hosting({0}));
  ASSERT_TRUE(server.Start().ok());
  auto sock = DialRaw(server.port());
  ASSERT_TRUE(sock.ok());

  // Hand-craft a frame header claiming protocol version kVersion + 1.
  wire::Writer w;
  w.PutU32(wire::kMagic);
  w.PutU16(wire::kVersion + 1);
  w.PutU16(static_cast<uint16_t>(wire::FrameType::kHello));
  w.PutU32(0);
  w.PutU64(wire::Fnv1a(nullptr, 0));
  ASSERT_TRUE(sock->SendAll(w.buffer().data(), w.buffer().size(), kIoMs)
                  .ok());

  auto frame = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, wire::FrameType::kError);
  auto err = wire::ErrorMsg::Decode(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->ToStatus().IsUnsupported()) << err->ToStatus();
  // No resync point after a framing refusal: the connection is dropped.
  EXPECT_TRUE(RecvFrame(*sock, kIoMs).status().IsUnavailable());
  server.Stop();
}

TEST(SiteServerTest, BadMagicDropsConnection) {
  SiteServer server(Hosting({0}));
  ASSERT_TRUE(server.Start().ok());
  auto sock = DialRaw(server.port());
  ASSERT_TRUE(sock.ok());

  std::string garbage(wire::kHeaderSize, '\x5a');
  ASSERT_TRUE(sock->SendAll(garbage.data(), garbage.size(), kIoMs).ok());
  auto frame = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, wire::FrameType::kError);
  auto err = wire::ErrorMsg::Decode(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->ToStatus().IsInvalidArgument());
  EXPECT_TRUE(RecvFrame(*sock, kIoMs).status().IsUnavailable());
  server.Stop();
}

TEST(SiteServerTest, CorruptedChecksumRejected) {
  SiteServer server(Hosting({0}));
  ASSERT_TRUE(server.Start().ok());
  auto sock = DialRaw(server.port());
  ASSERT_TRUE(sock.ok());

  std::string frame =
      wire::EncodeFrame(wire::FrameType::kHello, wire::Hello().Encode());
  frame.back() ^= 0x01;  // flip one payload bit
  ASSERT_TRUE(sock->SendAll(frame.data(), frame.size(), kIoMs).ok());
  auto reply = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, wire::FrameType::kError);
  auto err = wire::ErrorMsg::Decode(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->ToStatus().IsInvalidArgument());
  EXPECT_TRUE(RecvFrame(*sock, kIoMs).status().IsUnavailable());
  server.Stop();
}

TEST(SiteServerTest, LoadTableToUnhostedLocationRefused) {
  SiteServer server(Hosting({0, 1}));
  ASSERT_TRUE(server.Start().ok());
  auto sock = DialHandshaken(server.port());
  ASSERT_TRUE(sock.ok()) << sock.status();

  wire::LoadTable load;
  load.location = 7;
  load.table = "t";
  load.batch = vec::FromRows(RowLayout({0}), {{Value::Int64(1)}}).ValueOrDie();
  ASSERT_TRUE(SendFrame(*sock, wire::FrameType::kLoadTable,
                        load.Encode(), kIoMs)
                  .ok());
  auto frame = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, wire::FrameType::kError);
  auto err = wire::ErrorMsg::Decode(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->ToStatus().IsInvalidArgument());
  EXPECT_NE(err->message.find("not hosted"), std::string::npos);
  server.Stop();
}

TEST(SiteServerTest, DeployPushesSlicesToHostingServers) {
  // One fragment larger than a LoadTable chunk exercises the
  // replace-then-append chunking of ClusterClient::Deploy.
  const size_t big = ClusterClient::kLoadChunkRows + 111;
  TableStore store;
  std::vector<Row> rows0;
  for (size_t i = 0; i < big; ++i) {
    rows0.push_back({Value::Int64(static_cast<int64_t>(i))});
  }
  store.Put(0, "t", std::move(rows0));
  store.Put(1, "t", {{Value::Int64(-1)}, {Value::Int64(-2)}});
  store.Put(2, "u", {{Value::String("z")}});

  SiteServer a(Hosting({0, 1}));
  SiteServer b(Hosting({2}));
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());

  ClusterClient cluster;
  ASSERT_TRUE(cluster
                  .Connect({{0, {"127.0.0.1", a.port()}},
                            {1, {"127.0.0.1", a.port()}},
                            {2, {"127.0.0.1", b.port()}}})
                  .ok());
  ASSERT_TRUE(cluster.Deploy(store).ok());

  auto rows_at = [](SiteServer& s, LocationId loc,
                    const std::string& table) -> size_t {
    auto r = s.mutable_store()->Get(loc, table);
    return r.ok() ? (*r)->size() : 0;
  };
  EXPECT_EQ(rows_at(a, 0, "t"), big);
  EXPECT_EQ(rows_at(a, 1, "t"), 2u);
  EXPECT_EQ(rows_at(b, 2, "u"), 1u);
  // Nothing leaked across servers.
  EXPECT_EQ(rows_at(b, 0, "t"), 0u);

  // A fragment whose location has no mapped server fails the deployment.
  TableStore uncovered;
  uncovered.Put(5, "t", {{Value::Int64(9)}});
  EXPECT_FALSE(cluster.Deploy(uncovered).ok());

  a.Stop();
  b.Stop();
}

TEST(SiteServerTest, StartFragmentRefusedForUnhostedSite) {
  SiteServer server(Hosting({0, 1}));
  ASSERT_TRUE(server.Start().ok());
  auto sock = DialHandshaken(server.port());
  ASSERT_TRUE(sock.ok()) << sock.status();

  wire::StartFragment start;
  start.fragment_id = 7;
  start.site = 5;
  start.batch_size = 128;
  start.root = ScanPlan("t", 5);
  auto payload = start.Encode({});
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(SendFrame(*sock, wire::FrameType::kStartFragment, *payload,
                        kIoMs)
                  .ok());
  auto frame = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, wire::FrameType::kError);
  auto err = wire::ErrorMsg::Decode(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->ToStatus().IsInvalidArgument());
  EXPECT_NE(err->message.find("not hosting"), std::string::npos);
  server.Stop();
  EXPECT_EQ(server.fragments_completed(), 0);
}

TEST(SiteServerTest, StartFragmentRechecksShippingTrait) {
  SiteServer server(Hosting({0}));
  ASSERT_TRUE(server.Start().ok());
  auto sock = DialHandshaken(server.port());
  ASSERT_TRUE(sock.ok()) << sock.status();

  // The fragment itself is well-placed (site 0, trait {0}), but its
  // output SHIP targets l3 while the shipping trait only allows {0,1}:
  // the *server* must refuse before producing a row.
  wire::StartFragment start;
  start.fragment_id = 2;
  start.site = 0;
  start.batch_size = 128;
  start.has_output_ship = true;
  start.ship_to = 3;
  start.ship_trait_bits = 0b11;
  start.root = ScanPlan("t", 0);
  auto payload = start.Encode({});
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(SendFrame(*sock, wire::FrameType::kStartFragment, *payload,
                        kIoMs)
                  .ok());
  auto frame = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, wire::FrameType::kError);
  auto err = wire::ErrorMsg::Decode(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_NE(err->message.find("compliance violation"), std::string::npos)
      << err->message;
  EXPECT_EQ(server.fragments_completed(), 0);
  server.Stop();
}

TEST(SiteServerTest, ScanFragmentStreamsBatchesAndAccounting) {
  SiteServer server(Hosting({0}));
  std::vector<Row> rows;
  for (int64_t i = 0; i < 5; ++i) rows.push_back({Value::Int64(i * 10)});
  server.mutable_store()->Put(0, "t", std::move(rows));
  ASSERT_TRUE(server.Start().ok());
  auto sock = DialHandshaken(server.port());
  ASSERT_TRUE(sock.ok()) << sock.status();

  wire::StartFragment start;
  start.fragment_id = 0;
  start.site = 0;
  start.batch_size = 2;
  start.root = ScanPlan("t", 0);
  auto payload = start.Encode({});
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(SendFrame(*sock, wire::FrameType::kStartFragment, *payload,
                        kIoMs)
                  .ok());
  auto ack = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(ack.ok()) << ack.status();
  ASSERT_EQ(ack->type, wire::FrameType::kStartAck);

  // 5 rows at batch size 2 -> batches of 2, 2, 1, then the accounting.
  std::vector<int64_t> values;
  int batches = 0;
  while (true) {
    auto frame = RecvFrame(*sock, kIoMs);
    ASSERT_TRUE(frame.ok()) << frame.status();
    if (frame->type == wire::FrameType::kOutputBatch) {
      auto out = wire::OutputBatch::Decode(frame->payload);
      ASSERT_TRUE(out.ok());
      ++batches;
      for (size_t r = 0; r < out->batch.NumRows(); ++r) {
        values.push_back(
            out->batch.columns[0]->GetValue(out->batch.sel[r]).int64());
      }
      continue;
    }
    ASSERT_EQ(frame->type, wire::FrameType::kOutputEnd);
    auto end = wire::OutputEnd::Decode(frame->payload);
    ASSERT_TRUE(end.ok());
    EXPECT_EQ(end->rows_out, 5);
    EXPECT_EQ(end->rows_scanned, 5);
    break;
  }
  EXPECT_EQ(batches, 3);
  EXPECT_EQ(values, (std::vector<int64_t>{0, 10, 20, 30, 40}));
  EXPECT_EQ(server.fragments_completed(), 1);
  server.Stop();
}

TEST(SiteServerTest, InputBatchWithoutFragmentIsTypedError) {
  SiteServer server(Hosting({0}));
  ASSERT_TRUE(server.Start().ok());
  auto sock = DialHandshaken(server.port());
  ASSERT_TRUE(sock.ok()) << sock.status();

  wire::InputBatch input;
  input.channel = 3;
  ASSERT_TRUE(SendFrame(*sock, wire::FrameType::kInputBatch,
                        input.Encode(), kIoMs)
                  .ok());
  auto frame = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, wire::FrameType::kError);
  auto err = wire::ErrorMsg::Decode(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->ToStatus().IsInternal());
  server.Stop();
}

// A received batch must carry the layout of its SHIP leaf. The consumer
// fragment projects attr 1 out of a SHIP leaf with layout (1, 2); an
// InputBatch whose attrs are the permutation (2, 1) has the right width
// but would hand the projection attr 2's values. The server refuses it
// with a typed kInvalidArgument instead of returning wrong rows.
TEST(SiteServerTest, PermutedInputBatchAttrsRefusedTyped) {
  SiteServer server(Hosting({0}));
  ASSERT_TRUE(server.Start().ok());
  auto sock = DialHandshaken(server.port());
  ASSERT_TRUE(sock.ok()) << sock.status();

  auto payload = ConsumerFragment(1);
  ASSERT_TRUE(payload.ok()) << payload.status();
  ASSERT_TRUE(StartAcked(*sock, *payload).ok());

  wire::InputBatch input;
  input.channel = 0;
  input.batch = vec::FromRows(RowLayout({2, 1}),
                              {{Value::Int64(20), Value::Int64(10)}})
                    .ValueOrDie();
  ASSERT_TRUE(SendFrame(*sock, wire::FrameType::kInputBatch,
                        input.Encode(), kIoMs)
                  .ok());
  wire::InputEnd end;
  end.channel = 0;
  ASSERT_TRUE(
      SendFrame(*sock, wire::FrameType::kInputEnd, end.Encode(), kIoMs)
          .ok());

  auto frame = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, wire::FrameType::kError)
      << wire::FrameTypeToString(frame->type);
  auto err = wire::ErrorMsg::Decode(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->ToStatus().IsInvalidArgument()) << err->ToStatus();
  EXPECT_EQ(server.fragments_completed(), 0);
  server.Stop();
}

// A kStartFragment whose plan nests one level past the decoder's bound
// is refused with a typed kError instead of crashing the server, which
// then goes on serving new connections.
TEST(SiteServerTest, TooDeepStartFragmentRefusedTyped) {
  SiteServer server(Hosting({0}));
  ASSERT_TRUE(server.Start().ok());
  auto sock = DialHandshaken(server.port());
  ASSERT_TRUE(sock.ok()) << sock.status();

  // Filter (one level) over a conjunct of kMaxDecodeDepth levels.
  ExprPtr conjunct = Expr::Literal(Value::Int64(1));
  for (int i = 1; i < wire::kMaxDecodeDepth; ++i) {
    conjunct = Expr::Unary(ExprOp::kNot, conjunct);
  }
  auto filter = std::make_shared<PlanNode>(PlanKind::kFilter);
  filter->conjuncts = {conjunct};
  filter->outputs = {{1, "x", DataType::kInt64}};
  filter->location = 0;
  filter->exec_trait = LocationSet(uint64_t{1});
  filter->children().push_back(ScanPlan("t", 0));
  wire::StartFragment start;
  start.site = 0;
  start.batch_size = 16;
  start.root = filter;
  auto payload = start.Encode({});
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(SendFrame(*sock, wire::FrameType::kStartFragment, *payload,
                        kIoMs)
                  .ok());
  auto frame = RecvFrame(*sock, kIoMs);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame->type, wire::FrameType::kError);
  auto err = wire::ErrorMsg::Decode(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->ToStatus().IsInvalidArgument()) << err->ToStatus();
  EXPECT_NE(err->message.find("nests deeper than"), std::string::npos);

  EXPECT_TRUE(DialHandshaken(server.port()).ok());
  EXPECT_EQ(server.fragments_completed(), 0);
  server.Stop();
}

// Stop() returns, having joined every thread, while one connection is
// idle between frames and another has sent half a frame: shutting the
// sockets down returns the reads blocked on them.
TEST(SiteServerTest, StopReturnsWithIdleAndHalfFrameConnections) {
  SiteServer server(Hosting({0}));
  ASSERT_TRUE(server.Start().ok());
  auto idle = DialHandshaken(server.port());
  ASSERT_TRUE(idle.ok()) << idle.status();
  auto half = DialRaw(server.port());
  ASSERT_TRUE(half.ok()) << half.status();
  const std::string frame =
      wire::EncodeFrame(wire::FrameType::kHello, wire::Hello().Encode());
  ASSERT_TRUE(half->SendAll(frame.data(), frame.size() / 2, kIoMs).ok());
  // Connections are accepted in order: once a later one is served, the
  // half-frame one has its own thread.
  ASSERT_TRUE(DialHandshaken(server.port()).ok());

  server.Stop();
  EXPECT_TRUE(RecvFrame(*idle, kIoMs).status().IsUnavailable());
  EXPECT_TRUE(RecvFrame(*half, kIoMs).status().IsUnavailable());
  server.Stop();
}

// A coordinator that closes its connection while the fragment waits on
// an input channel ends that fragment without kOutputEnd, and the server
// goes on serving new connections.
TEST(SiteServerTest, ClientCloseEndsFragmentWaitingOnInput) {
  SiteServer server(Hosting({0}));
  ASSERT_TRUE(server.Start().ok());
  {
    auto sock = DialHandshaken(server.port());
    ASSERT_TRUE(sock.ok()) << sock.status();
    auto payload = ConsumerFragment(1);
    ASSERT_TRUE(payload.ok()) << payload.status();
    ASSERT_TRUE(StartAcked(*sock, *payload).ok());
  }  // closed with input channel 0 still open

  auto again = DialHandshaken(server.port());
  ASSERT_TRUE(again.ok()) << again.status();
  server.Stop();
  EXPECT_EQ(server.fragments_completed(), 0);
}

// A coordinator that drops its connection after one output batch stops
// the fragment: its next send fails or it sees the cancel flag before
// the next batch, so it never completes, and the server goes on serving.
TEST(SiteServerTest, CoordinatorDropStopsProducingFragment) {
  SiteServer server(Hosting({0}));
  server.mutable_store()->Put(0, "t", WideRows());
  ASSERT_TRUE(server.Start().ok());
  {
    auto sock = DialHandshaken(server.port());
    ASSERT_TRUE(sock.ok()) << sock.status();
    auto payload = WideScanFragment();
    ASSERT_TRUE(payload.ok());
    ASSERT_TRUE(StartAcked(*sock, *payload).ok());
    auto first = RecvFrame(*sock, kIoMs);
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_EQ(first->type, wire::FrameType::kOutputBatch);
  }  // dropped with most of the output unsent

  auto again = DialHandshaken(server.port());
  ASSERT_TRUE(again.ok()) << again.status();
  server.Stop();
  EXPECT_EQ(server.fragments_completed(), 0);
}

// A fragment whose coordinator reads none of its output blocks in its
// own send only: another connection's Hello is still answered, and
// Stop() still returns.
TEST(SiteServerTest, UnreadOutputDelaysNoOtherConnection) {
  SiteServer server(Hosting({0}));
  server.mutable_store()->Put(0, "t", WideRows());
  ASSERT_TRUE(server.Start().ok());
  auto unread = DialHandshaken(server.port());
  ASSERT_TRUE(unread.ok()) << unread.status();
  auto payload = WideScanFragment();
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(StartAcked(*unread, *payload).ok());

  auto other = DialHandshaken(server.port());
  EXPECT_TRUE(other.ok()) << other.status();
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace cgq
