// Timed RPC channels between frontend interposers and backend daemons.
//
// A Channel is a unidirectional, order-preserving packet pipe with a link
// model (fixed latency + serialized bandwidth). Two models matter for the
// paper's setup: shared memory within a node, and the dedicated Gigabit
// Ethernet link between the two supernode machines — remote GPUs cost more,
// which GMin's tie-breaking and the workload balancer must see.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "rpc/call_ids.hpp"
#include "rpc/marshal.hpp"
#include "simcore/backlog.hpp"
#include "simcore/simulation.hpp"

namespace strings::rpc {

struct LinkModel {
  sim::SimTime latency = 0;
  double bandwidth_gbps = 0.0;  // 0 => infinite

  /// Same-node frontend/backend channel.
  static LinkModel shared_memory() { return {sim::usec(2), 20.0}; }
  /// The dedicated GigE link between the supernode's machines
  /// (~117 MB/s effective).
  static LinkModel gigabit_ethernet() { return {sim::usec(60), 0.117}; }
  /// The paper's idealization of remote GPUs (SIII-A: "treat remote GPUs
  /// much like NUMA memory ... ignoring issues like network contention"):
  /// remote latency, but PCIe-class bandwidth for bulk payloads.
  static LinkModel numa_like() { return {sim::usec(60), 6.0}; }
};

/// Serialization state of one physical link. Channels created with the same
/// SharedLink contend for its bandwidth: back-to-back packets from *any* of
/// them queue behind each other, modelling a real shared wire (the paper's
/// SIII-A "network contention likely to occur for scaleout systems").
struct SharedLink {
  sim::SimTime busy_until = 0;
};

/// Whole-run wire totals that several channels add into (see
/// Channel::count_wire).
struct WireTotals {
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

struct Packet {
  CallId call = CallId::kResponse;
  std::uint64_t seq = 0;
  bool oneway = false;
  std::vector<std::byte> body;
  /// Bulk data that rides with the packet but is not marshalled into the
  /// body (the memcpy payload of GPU remoting). Costs wire time.
  std::uint64_t payload_bytes = 0;
  /// Virtual time the channel delivered this packet into the receiver's
  /// inbox (-1 if never sent). Receivers use it to measure queueing delay.
  sim::SimTime delivered_at = -1;

  std::size_t wire_size() const {
    return body.size() + static_cast<std::size_t>(payload_bytes) + 24;
  }
};

class Channel {
 public:
  Channel(sim::Simulation& sim, LinkModel link,
          std::shared_ptr<SharedLink> wire = nullptr)
      : sim_(sim),
        link_(link),
        wire_(wire ? std::move(wire) : std::make_shared<SharedLink>()),
        inbox_(sim) {}

  /// Sends a packet; delivery is delayed by serialization + latency.
  void send(Packet p) {
    const sim::SimTime xmit =
        link_.bandwidth_gbps > 0.0
            ? static_cast<sim::SimTime>(static_cast<double>(p.wire_size()) /
                                        link_.bandwidth_gbps)
            : 0;
    // Back-to-back packets serialize on the (possibly shared) wire.
    const sim::SimTime start = std::max(sim_.now(), wire_->busy_until);
    wire_->busy_until = start + xmit;
    const sim::SimTime deliver_at = wire_->busy_until + link_.latency;
    p.delivered_at = deliver_at;
    if (tracer_ != nullptr) {
      tracer_->complete(trace_track_, call_name(p.call), start, deliver_at,
                        {{"seq", std::to_string(p.seq)},
                         {"bytes", std::to_string(p.wire_size())}});
      if (!occ_resource_.empty()) {
        // Forensics: the serialization slice [start, busy_until) is the
        // contended part of the link — propagation latency is nobody's
        // fault. occupant() is a no-op unless forensics is enabled.
        tracer_->occupant(occ_resource_, occ_tenant_, start,
                          wire_->busy_until);
      }
    }
    bytes_sent_ += p.wire_size();
    ++packets_sent_;
    if (wire_totals_ != nullptr) {
      wire_totals_->bytes += p.wire_size();
      ++wire_totals_->packets;
    }
    // The packet rides inside the event closure: SmallFn's inline buffer is
    // sized so a channel delivery never heap-allocates a control block.
    sim_.schedule(deliver_at - sim_.now(), [this, p = std::move(p)]() mutable {
      if (pending_ != nullptr) pending_->add(1);
      inbox_.send(std::move(p));
    });
  }

  /// Keeps `*backlog` counting the packets delivered into this channel's
  /// inbox but not yet received: +1 at each delivery, -1 at each receive.
  /// Set it before the first delivery; nullptr stops the counting.
  void count_pending(sim::Backlog* backlog) { pending_ = backlog; }

  /// Makes every send also add its wire size and one packet to `*totals`,
  /// so the owner of many channels reads sums without walking them. Set it
  /// before the first send; nullptr stops the counting.
  void count_wire(WireTotals* totals) { wire_totals_ = totals; }

  /// Attaches a tracer: every send emits a transmission span (wire grab to
  /// delivery) on `track`. Pass nullptr to detach.
  void set_tracer(obs::Tracer* tracer, int track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  /// Labels this channel's wire occupancy for interference forensics: every
  /// send stamps `tenant` as the occupant of `resource` (the profiler's
  /// link name, e.g. "link.n0-n1") for its serialization slice. The channel
  /// itself knows neither tenants nor the blame naming scheme, so the owner
  /// (BackendDaemon::connect) passes both in.
  void set_occupant(std::string resource, std::string tenant) {
    occ_resource_ = std::move(resource);
    occ_tenant_ = std::move(tenant);
  }

  /// Blocking receive (process context).
  Packet receive() {
    Packet p = inbox_.receive();
    if (pending_ != nullptr) pending_->add(-1);
    return p;
  }

  std::optional<Packet> try_receive() {
    std::optional<Packet> p = inbox_.try_receive();
    if (p && pending_ != nullptr) pending_->add(-1);
    return p;
  }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  const LinkModel& link() const { return link_; }

 private:
  sim::Simulation& sim_;
  LinkModel link_;
  std::shared_ptr<SharedLink> wire_;
  sim::Mailbox<Packet> inbox_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  obs::Tracer* tracer_ = nullptr;
  int trace_track_ = -1;
  std::string occ_resource_;
  std::string occ_tenant_;
  sim::Backlog* pending_ = nullptr;
  WireTotals* wire_totals_ = nullptr;
};

/// A request/response pair of channels (one per frontend/backend binding).
/// Pass a SharedLink per direction to make several bindings contend for the
/// same physical wire (full-duplex: the two directions are independent).
class DuplexChannel {
 public:
  DuplexChannel(sim::Simulation& sim, LinkModel link,
                std::shared_ptr<SharedLink> tx = nullptr,
                std::shared_ptr<SharedLink> rx = nullptr)
      : request(sim, link, std::move(tx)), response(sim, link, std::move(rx)) {}
  Channel request;
  Channel response;
};

/// Client endpoint: one per frontend application binding. Single-threaded
/// callers get strictly ordered responses; `call` blocks, `post` does not
/// (the paper's non-blocking RPC optimization for calls without outputs).
class RpcClient {
 public:
  explicit RpcClient(DuplexChannel& ch) : ch_(ch) {}

  /// Blocking call; returns the response body. `payload_bytes` models bulk
  /// data shipped with the request (e.g. the H2D buffer).
  std::vector<std::byte> call(CallId id, Marshal&& args,
                              std::uint64_t payload_bytes = 0) {
    Packet p;
    p.call = id;
    p.seq = next_seq_++;
    p.body = std::move(args).take();
    p.payload_bytes = payload_bytes;
    const std::uint64_t want = p.seq;
    ch_.request.send(std::move(p));
    Packet resp = ch_.response.receive();
    // In-order channel + single-threaded caller: the response matches the
    // oldest outstanding call. One-way posts produce no responses.
    if (resp.seq != want) {
      throw DecodeError("rpc response out of order");
    }
    return std::move(resp.body);
  }

  /// One-way post: no response expected.
  void post(CallId id, Marshal&& args, std::uint64_t payload_bytes = 0) {
    Packet p;
    p.call = id;
    p.seq = next_seq_++;
    p.oneway = true;
    p.body = std::move(args).take();
    p.payload_bytes = payload_bytes;
    ch_.request.send(std::move(p));
  }

 private:
  DuplexChannel& ch_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace strings::rpc
