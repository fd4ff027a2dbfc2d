// Unit and property tests for marshalling and timed RPC channels.
#include "rpc/channel.hpp"
#include "rpc/marshal.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "core/control_plane.hpp"
#include "simcore/simulation.hpp"

namespace strings::rpc {
namespace {

using sim::msec;
using sim::SimTime;
using sim::usec;

TEST(Marshal, RoundTripPrimitives) {
  Marshal m;
  m.put_u8(0xAB);
  m.put_bool(true);
  m.put_u32(0xDEADBEEF);
  m.put_i32(-12345);
  m.put_u64(0x1122334455667788ull);
  m.put_i64(-9'000'000'000ll);
  m.put_double(3.14159);
  m.put_string("hello strings");
  m.put_enum(CallId::kLaunch);

  Unmarshal u(m.buffer());
  EXPECT_EQ(u.get_u8(), 0xAB);
  EXPECT_TRUE(u.get_bool());
  EXPECT_EQ(u.get_u32(), 0xDEADBEEF);
  EXPECT_EQ(u.get_i32(), -12345);
  EXPECT_EQ(u.get_u64(), 0x1122334455667788ull);
  EXPECT_EQ(u.get_i64(), -9'000'000'000ll);
  EXPECT_DOUBLE_EQ(u.get_double(), 3.14159);
  EXPECT_EQ(u.get_string(), "hello strings");
  EXPECT_EQ(u.get_enum<CallId>(), CallId::kLaunch);
  EXPECT_TRUE(u.done());
}

TEST(Marshal, EmptyStringAndBytes) {
  Marshal m;
  m.put_string("");
  m.put_bytes({});
  Unmarshal u(m.buffer());
  EXPECT_EQ(u.get_string(), "");
  EXPECT_TRUE(u.get_bytes().empty());
  EXPECT_TRUE(u.done());
}

TEST(Marshal, TruncatedPacketThrows) {
  Marshal m;
  m.put_u64(42);
  auto buf = m.buffer();
  buf.resize(4);
  Unmarshal u(buf);
  EXPECT_THROW(u.get_u64(), DecodeError);
}

TEST(Marshal, CorruptLengthPrefixThrows) {
  Marshal m;
  m.put_u32(1'000'000);  // claims a 1MB string follows
  Unmarshal u(m.buffer());
  EXPECT_THROW(u.get_string(), DecodeError);
}

// Property: random sequences of typed fields round-trip exactly.
class MarshalPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MarshalPropertyTest, RandomRoundTrip) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> type_dist(0, 4);
  std::uniform_int_distribution<std::uint64_t> val_dist;
  std::uniform_int_distribution<int> len_dist(0, 64);

  Marshal m;
  std::vector<int> types;
  std::vector<std::uint64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  for (int i = 0; i < 50; ++i) {
    const int t = type_dist(rng);
    types.push_back(t);
    switch (t) {
      case 0: ints.push_back(val_dist(rng) & 0xFF); m.put_u8(static_cast<std::uint8_t>(ints.back())); break;
      case 1: ints.push_back(val_dist(rng) & 0xFFFFFFFF); m.put_u32(static_cast<std::uint32_t>(ints.back())); break;
      case 2: ints.push_back(val_dist(rng)); m.put_u64(ints.back()); break;
      case 3: {
        doubles.push_back(static_cast<double>(val_dist(rng)) / 7.0);
        m.put_double(doubles.back());
        break;
      }
      case 4: {
        std::string s;
        const int n = len_dist(rng);
        for (int k = 0; k < n; ++k) s.push_back(static_cast<char>('a' + (val_dist(rng) % 26)));
        strings.push_back(s);
        m.put_string(s);
        break;
      }
    }
  }
  Unmarshal u(m.buffer());
  std::size_t ii = 0, di = 0, si = 0;
  for (int t : types) {
    switch (t) {
      case 0: EXPECT_EQ(u.get_u8(), ints[ii++]); break;
      case 1: EXPECT_EQ(u.get_u32(), ints[ii++]); break;
      case 2: EXPECT_EQ(u.get_u64(), ints[ii++]); break;
      case 3: EXPECT_DOUBLE_EQ(u.get_double(), doubles[di++]); break;
      case 4: EXPECT_EQ(u.get_string(), strings[si++]); break;
    }
  }
  EXPECT_TRUE(u.done());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 17u, 42u, 1337u));

TEST(Channel, DeliversInOrderWithLatency) {
  sim::Simulation sim;
  Channel ch(sim, LinkModel{usec(50), 0.0});
  std::vector<std::pair<std::uint64_t, SimTime>> got;
  sim.spawn("rx", [&] {
    for (int i = 0; i < 3; ++i) {
      Packet p = ch.receive();
      got.emplace_back(p.seq, sim.now());
    }
  });
  sim.spawn("tx", [&] {
    for (std::uint64_t i = 0; i < 3; ++i) {
      Packet p;
      p.seq = i;
      ch.send(std::move(p));
      sim.wait_for(usec(100));
    }
  });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_pair(std::uint64_t{0}, usec(50)));
  EXPECT_EQ(got[1], std::make_pair(std::uint64_t{1}, usec(150)));
  EXPECT_EQ(got[2], std::make_pair(std::uint64_t{2}, usec(250)));
}

TEST(Channel, CountPendingSpansDeliveryToReceive) {
  sim::Simulation sim;
  Channel ch(sim, LinkModel{usec(5), 0.0});
  sim::Backlog pending;
  int edges = 0;  // zero crossings
  pending.on_edge([&] { ++edges; });
  ch.count_pending(&pending);
  std::vector<int> seen;
  sim.spawn("client", [&] {
    ch.send(Packet{});
    ch.send(Packet{});
    seen.push_back(pending.count());  // sent, still on the wire
    sim.wait_for(usec(6));
    seen.push_back(pending.count());  // both delivered
    ch.receive();
    seen.push_back(pending.count());
    ASSERT_TRUE(ch.try_receive().has_value());
    seen.push_back(pending.count());
    EXPECT_FALSE(ch.try_receive().has_value());
    seen.push_back(pending.count());
  });
  sim.run();
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 1, 0, 0}));
  EXPECT_EQ(edges, 2);
}

TEST(Channel, BandwidthSerializesLargePackets) {
  sim::Simulation sim;
  // 0.117 GB/s GigE; 117000-byte body takes ~1ms on the wire.
  Channel ch(sim, LinkModel{0, 0.117});
  std::vector<SimTime> arrivals;
  sim.spawn("rx", [&] {
    for (int i = 0; i < 2; ++i) {
      ch.receive();
      arrivals.push_back(sim.now());
    }
  });
  sim.spawn("tx", [&] {
    for (int i = 0; i < 2; ++i) {
      Packet p;
      p.body.resize(117'000 - 24);
      ch.send(std::move(p));
    }
  });
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], msec(1));
  EXPECT_EQ(arrivals[1], msec(2));  // serialized behind the first
}

TEST(Channel, SharedMemoryIsFasterThanEthernet) {
  sim::Simulation sim;
  Channel shm(sim, LinkModel::shared_memory());
  Channel eth(sim, LinkModel::gigabit_ethernet());
  SimTime shm_at = -1, eth_at = -1;
  sim.spawn("rx1", [&] {
    shm.receive();
    shm_at = sim.now();
  });
  sim.spawn("rx2", [&] {
    eth.receive();
    eth_at = sim.now();
  });
  sim.spawn("tx", [&] {
    Packet a;
    a.body.resize(4096);
    Packet b;
    b.body.resize(4096);
    shm.send(std::move(a));
    eth.send(std::move(b));
  });
  sim.run();
  EXPECT_LT(shm_at, eth_at);
}

TEST(Channel, SharedWireSerializesAcrossChannels) {
  sim::Simulation sim;
  auto wire = std::make_shared<SharedLink>();
  // Two channels share one 1-byte-per-ns wire (1 GB/s), zero latency.
  Channel a(sim, LinkModel{0, 1.0}, wire);
  Channel b(sim, LinkModel{0, 1.0}, wire);
  SimTime a_at = -1, b_at = -1;
  sim.spawn("rxa", [&] {
    a.receive();
    a_at = sim.now();
  });
  sim.spawn("rxb", [&] {
    b.receive();
    b_at = sim.now();
  });
  sim.spawn("tx", [&] {
    Packet pa;
    pa.body.resize(1000 - 24);
    Packet pb;
    pb.body.resize(1000 - 24);
    a.send(std::move(pa));
    b.send(std::move(pb));  // queues behind a's packet on the shared wire
  });
  sim.run();
  EXPECT_EQ(a_at, 1000);
  EXPECT_EQ(b_at, 2000);
}

TEST(Channel, DedicatedWiresDoNotContend) {
  sim::Simulation sim;
  Channel a(sim, LinkModel{0, 1.0});
  Channel b(sim, LinkModel{0, 1.0});
  SimTime a_at = -1, b_at = -1;
  sim.spawn("rxa", [&] {
    a.receive();
    a_at = sim.now();
  });
  sim.spawn("rxb", [&] {
    b.receive();
    b_at = sim.now();
  });
  sim.spawn("tx", [&] {
    Packet pa;
    pa.body.resize(1000 - 24);
    Packet pb;
    pb.body.resize(1000 - 24);
    a.send(std::move(pa));
    b.send(std::move(pb));
  });
  sim.run();
  EXPECT_EQ(a_at, 1000);
  EXPECT_EQ(b_at, 1000);
}

TEST(Channel, PayloadBytesCostWireTime) {
  sim::Simulation sim;
  Channel ch(sim, LinkModel{0, 1.0});
  SimTime at = -1;
  sim.spawn("rx", [&] {
    ch.receive();
    at = sim.now();
  });
  sim.spawn("tx", [&] {
    Packet p;
    p.payload_bytes = 10'000 - 24;  // bulk memcpy data, not in the body
    ch.send(std::move(p));
  });
  sim.run();
  EXPECT_EQ(at, 10'000);
}

TEST(RpcClient, CallRoundTrip) {
  sim::Simulation sim;
  DuplexChannel ch(sim, LinkModel::shared_memory());
  sim.spawn_daemon("server", [&] {
    while (true) {
      Packet req = ch.request.receive();
      Unmarshal u(req.body);
      const std::uint64_t x = u.get_u64();
      Marshal m;
      m.put_u64(x * 2);
      Packet resp;
      resp.seq = req.seq;
      resp.body = std::move(m).take();
      ch.response.send(std::move(resp));
    }
  });
  std::uint64_t got = 0;
  sim.spawn("client", [&] {
    RpcClient client(ch);
    Marshal args;
    args.put_u64(21);
    Unmarshal u(client.call(CallId::kLaunch, std::move(args)));
    got = u.get_u64();
  });
  sim.run();
  EXPECT_EQ(got, 42);
}

TEST(RpcClient, PostIsNonBlocking) {
  sim::Simulation sim;
  DuplexChannel ch(sim, LinkModel::gigabit_ethernet());
  SimTime after_post = -1;
  int received = 0;
  sim.spawn_daemon("server", [&] {
    while (true) {
      Packet req = ch.request.receive();
      EXPECT_TRUE(req.oneway);
      ++received;
    }
  });
  sim.spawn("client", [&] {
    RpcClient client(ch);
    client.post(CallId::kMemcpyAsync, Marshal{});
    after_post = sim.now();
  });
  sim.run();
  EXPECT_EQ(after_post, 0);  // did not wait for delivery
  EXPECT_EQ(received, 1);
}

TEST(RpcClient, MixedPostAndCallKeepOrder) {
  sim::Simulation sim;
  DuplexChannel ch(sim, LinkModel::shared_memory());
  std::vector<CallId> server_order;
  sim.spawn_daemon("server", [&] {
    while (true) {
      Packet req = ch.request.receive();
      server_order.push_back(req.call);
      if (!req.oneway) {
        Packet resp;
        resp.seq = req.seq;
        ch.response.send(std::move(resp));
      }
    }
  });
  sim.spawn("client", [&] {
    RpcClient client(ch);
    client.post(CallId::kConfigureCall, Marshal{});
    client.post(CallId::kLaunch, Marshal{});
    client.call(CallId::kDeviceSynchronize, Marshal{});
  });
  sim.run();
  ASSERT_EQ(server_order.size(), 3u);
  EXPECT_EQ(server_order[0], CallId::kConfigureCall);
  EXPECT_EQ(server_order[1], CallId::kLaunch);
  EXPECT_EQ(server_order[2], CallId::kDeviceSynchronize);
}

// ---- kDstDelta wire format ----------------------------------------------

TEST(DeltaCodec, EmptyDeltaRoundTrips) {
  // A zero-op delta is legal on the wire (base == new): decoders must not
  // assume ops is non-empty.
  core::DstDelta d;
  d.base_version = 17;
  d.new_version = 17;
  d.taken_at = sim::msec(3);
  Marshal m;
  core::encode_delta(m, d);
  Unmarshal u(std::move(m).take());
  const core::DstDelta out = core::decode_delta(u);
  EXPECT_EQ(out.base_version, 17u);
  EXPECT_EQ(out.new_version, 17u);
  EXPECT_EQ(out.taken_at, sim::msec(3));
  EXPECT_TRUE(out.ops.empty());
  EXPECT_TRUE(u.done());
}

TEST(DeltaCodec, BindUnbindOpsRoundTripAtMaxGid) {
  // GIDs at the extremes of the representable range (a max-GPU pool) must
  // survive the i32 encoding, as must the applied_by origin tag.
  const core::Gid max_gid = std::numeric_limits<core::Gid>::max();
  core::DstDelta d;
  d.base_version = std::numeric_limits<std::uint64_t>::max() - 2;
  d.new_version = d.base_version + 2;
  core::DeltaOp bind;
  bind.kind = core::DeltaOp::Kind::kBind;
  bind.gid = max_gid;
  bind.app_type = "MC";
  bind.applied_by = 3;
  core::DeltaOp unbind;
  unbind.kind = core::DeltaOp::Kind::kUnbind;
  unbind.gid = 0;
  unbind.app_type = "";
  unbind.applied_by = -1;
  d.ops = {bind, unbind};

  Marshal m;
  core::encode_delta(m, d);
  Unmarshal u(std::move(m).take());
  const core::DstDelta out = core::decode_delta(u);
  ASSERT_EQ(out.ops.size(), 2u);
  EXPECT_EQ(out.base_version, d.base_version);
  EXPECT_EQ(out.new_version, d.new_version);
  EXPECT_EQ(out.ops[0].kind, core::DeltaOp::Kind::kBind);
  EXPECT_EQ(out.ops[0].gid, max_gid);
  EXPECT_EQ(out.ops[0].app_type, "MC");
  EXPECT_EQ(out.ops[0].applied_by, 3);
  EXPECT_EQ(out.ops[1].kind, core::DeltaOp::Kind::kUnbind);
  EXPECT_EQ(out.ops[1].gid, 0);
  EXPECT_EQ(out.ops[1].app_type, "");
  EXPECT_EQ(out.ops[1].applied_by, -1);
  EXPECT_TRUE(u.done());
}

TEST(DeltaCodec, FeedbackOpCarriesTheFullRecord) {
  core::DstDelta d;
  d.base_version = 4;
  d.new_version = 5;
  core::DeltaOp op;
  op.kind = core::DeltaOp::Kind::kFeedback;
  op.feedback.app_type = "BS";
  op.feedback.exec_time_s = 2.5;
  op.feedback.gpu_time_s = 1.25;
  op.feedback.transfer_time_s = 0.5;
  op.feedback.mem_bw_gbps = 42.0;
  op.feedback.gpu_util = 0.9;
  op.feedback.gid = 2;
  d.ops.push_back(op);

  Marshal m;
  core::encode_delta(m, d);
  Unmarshal u(std::move(m).take());
  const core::DstDelta out = core::decode_delta(u);
  ASSERT_EQ(out.ops.size(), 1u);
  EXPECT_EQ(out.ops[0].kind, core::DeltaOp::Kind::kFeedback);
  EXPECT_EQ(out.ops[0].feedback.app_type, "BS");
  EXPECT_DOUBLE_EQ(out.ops[0].feedback.exec_time_s, 2.5);
  EXPECT_DOUBLE_EQ(out.ops[0].feedback.mem_bw_gbps, 42.0);
  EXPECT_EQ(out.ops[0].feedback.gid, 2);
  EXPECT_TRUE(u.done());
}

TEST(DeltaCodec, UnknownOpKindThrows) {
  core::DstDelta d;
  d.base_version = 0;
  d.new_version = 1;
  d.ops.emplace_back();
  Marshal m;
  core::encode_delta(m, d);
  auto buf = std::move(m).take();
  // The op kind byte sits right after the two u64 versions, the i64
  // timestamp, and the u32 op count.
  buf[8 + 8 + 8 + 4] = static_cast<std::byte>(0x7F);
  Unmarshal u(std::move(buf));
  EXPECT_THROW(core::decode_delta(u), DecodeError);
}

TEST(SnapshotCodec, SparseTableWithFillerRowsRoundTrips) {
  // A DST built via load_row (the decode path itself) can hold gid = -1
  // filler rows below the highest loaded gid. Encoding such a table and
  // decoding it again used to cast the -1 to a huge index; it must instead
  // drop the fillers and keep the real rows intact.
  core::DstSnapshot s;
  s.version = 9;
  core::DeviceStatus row;
  row.gid = 2;
  row.weight = 1.5;
  row.load = 3;
  row.total_bound = 7;
  s.dst.load_row(row);  // rows 0 and 1 become gid = -1 fillers
  s.bound_types = {{}, {}, {"MC", "MC", "MC"}};

  Marshal m;
  core::encode_snapshot(m, s);
  Unmarshal u(std::move(m).take());
  const core::DstSnapshot out = core::decode_snapshot(u);
  ASSERT_EQ(out.dst.rows().size(), 3u);
  EXPECT_EQ(out.dst.row(0).gid, -1);
  EXPECT_EQ(out.dst.row(1).gid, -1);
  EXPECT_EQ(out.dst.row(2).gid, 2);
  EXPECT_EQ(out.dst.row(2).load, 3);
  EXPECT_EQ(out.dst.row(2).total_bound, 7);
  EXPECT_DOUBLE_EQ(out.dst.row(2).weight, 1.5);
  EXPECT_EQ(out.bound_types, s.bound_types);
  EXPECT_TRUE(u.done());
}

TEST(CallIds, NamesAreStable) {
  EXPECT_STREQ(call_name(CallId::kSetDevice), "cudaSetDevice");
  EXPECT_STREQ(call_name(CallId::kFeedback), "strings.feedback");
  EXPECT_STREQ(call_name(CallId::kDstSubscribe), "strings.dstSubscribe");
  EXPECT_STREQ(call_name(CallId::kDstDelta), "strings.dstDelta");
  EXPECT_STREQ(call_name(static_cast<CallId>(99999)), "unknown");
}

}  // namespace
}  // namespace strings::rpc
