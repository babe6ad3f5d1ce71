#include "transport/transport.hpp"

#include <utility>

#include "core/assert.hpp"
#include "net/node.hpp"

namespace manet {

namespace {

/// Congestion window in whole segments (the double carries fractional
/// additive increase between ACKs).
[[nodiscard]] std::uint32_t effective_cwnd(double cwnd) {
  return cwnd < 1.0 ? 1u : static_cast<std::uint32_t>(cwnd);
}

}  // namespace

ReliableTransport::ReliableTransport(Node& node, const TransportConfig& cfg)
    : node_(node), sim_(node.sim()), cfg_(cfg) {}

bool ReliableTransport::try_send(std::uint32_t flow, NodeId dst, std::size_t payload_bytes,
                                 std::uint32_t app_seq) {
  auto it = send_flows_.find(flow);
  if (it == send_flows_.end()) {
    SenderFlow f;
    f.dst = dst;
    f.epoch = ++next_epoch_;
    f.cwnd = static_cast<double>(cfg_.cwnd_init);
    f.rto = cfg_.rto_initial;
    it = send_flows_.emplace(flow, std::move(f)).first;
  }
  SenderFlow& f = it->second;
  MANET_ASSERT(f.dst == dst);
  if (f.window.size() >= cfg_.buffer_packets) return false;  // closed loop

  // Accepted: this is the origination instant for PDR and delay purposes,
  // exactly where the open-loop path counts it.
  node_.stats().on_data_originated(flow);

  Segment seg;
  seg.pkt.kind = PacketKind::kData;
  seg.pkt.ip.dst = dst;
  seg.pkt.app.flow = flow;
  seg.pkt.app.seq = app_seq;
  seg.pkt.app.sent_at = sim_.now();
  seg.pkt.payload_bytes = payload_bytes;
  seg.pkt.transport.kind = SegKind::kData;
  seg.pkt.transport.epoch = f.epoch;

  if (node_.down()) {
    // Offered load destroyed by the fault: counted against PDR, not queued —
    // matching what the open-loop path does when its host is crashed. No
    // segment number is consumed: a sequence gap that was never transmitted
    // would stall the receiver's cumulative point for good.
    seg.pkt.transport.seq = f.snd_next;
    node_.drop(seg.pkt, DropReason::kNodeDown);
    return true;
  }
  if (dst == node_.id()) {  // degenerate self-flow: no network involved
    seg.pkt.ip.src = node_.id();
    seg.pkt.ip.ttl = kInitialTtl;
    node_.stats().flow_monitor().on_tx(flow, node_.id(), dst, payload_bytes, sim_.now());
    deliver_in_order(seg.pkt);
    return true;
  }
  seg.pkt.transport.seq = f.snd_next++;
  f.window.push_back(std::move(seg));
  transmit_window(flow, f);
  return true;
}

void ReliableTransport::transmit_window(std::uint32_t flow, SenderFlow& f) {
  const std::uint32_t cw = effective_cwnd(f.cwnd);
  while (f.inflight < cw && f.inflight < f.window.size()) {
    Segment& seg = f.window[f.inflight];
    seg.first_tx = sim_.now();
    node_.stats().flow_monitor().on_tx(flow, node_.id(), f.dst, seg.pkt.payload_bytes,
                                       sim_.now());
    ++f.inflight;
    node_.transport_send(seg.pkt);
  }
  if (f.inflight > 0 && !f.rto_armed) arm_rto(flow, f);
}

void ReliableTransport::arm_rto(std::uint32_t flow, SenderFlow& f) {
  cancel_rto(f);
  SimTime t = f.rto;
  for (std::uint32_t i = 0; i < f.backoff && t < cfg_.rto_max; ++i) t = t * 2;
  if (t > cfg_.rto_max) t = cfg_.rto_max;
  f.rto_timer = sim_.schedule(t, [this, flow] { on_rto(flow); });
  f.rto_armed = true;
}

void ReliableTransport::cancel_rto(SenderFlow& f) {
  if (!f.rto_armed) return;
  sim_.cancel(f.rto_timer);
  f.rto_armed = false;
}

void ReliableTransport::on_rto(std::uint32_t flow) {
  const auto it = send_flows_.find(flow);
  if (it == send_flows_.end()) return;
  SenderFlow& f = it->second;
  f.rto_armed = false;
  if (f.inflight == 0) return;
  Segment& head = f.window.front();
  ++head.retx;
  if (head.retx > cfg_.max_retx) {
    abort_flow(flow);
    return;
  }
  head.retransmitted = true;
  // Multiplicative decrease + exponential timer backoff; only the head is
  // retransmitted (cumulative ACKs make anything beyond it speculative).
  f.cwnd = f.cwnd / 2.0 < 1.0 ? 1.0 : f.cwnd / 2.0;
  ++f.backoff;
  node_.stats().flow_monitor().on_retransmit(flow);
  node_.transport_send(head.pkt);
  arm_rto(flow, f);
}

void ReliableTransport::abort_flow(std::uint32_t flow) {
  const auto it = send_flows_.find(flow);
  if (it == send_flows_.end()) return;
  SenderFlow& f = it->second;
  cancel_rto(f);
  for (const Segment& seg : f.window) {
    node_.drop(seg.pkt, DropReason::kTransportGiveUp);
  }
  ++aborts_;
  send_flows_.erase(it);
  // The next try_send() re-creates the flow with a fresh (higher) epoch; the
  // receiver adopts it and resequences from zero.
}

void ReliableTransport::on_ack(const Packet& pkt) {
  const auto it = send_flows_.find(pkt.app.flow);
  if (it == send_flows_.end()) return;
  SenderFlow& f = it->second;
  if (pkt.transport.epoch != f.epoch) return;  // stale incarnation
  const std::uint32_t ack = pkt.transport.seq;
  if (ack <= f.snd_una) return;  // duplicate/old cumulative ACK
  // A cumulative ACK can only cover transmitted segments.
  const std::uint32_t limit = f.snd_una + f.inflight;
  const std::uint32_t upto = ack < limit ? ack : limit;

  bool sampled = false;
  double sample_s = 0.0;
  while (f.snd_una < upto) {
    MANET_ASSERT(!f.window.empty());
    const Segment& seg = f.window.front();
    if (!seg.retransmitted) {  // Karn's algorithm
      sample_s = (sim_.now() - seg.first_tx).sec();
      sampled = true;
    }
    // Additive increase: ~one segment per window's worth of ACKed segments.
    if (f.cwnd < static_cast<double>(cfg_.cwnd_max)) {
      f.cwnd += 1.0 / f.cwnd;
      if (f.cwnd > static_cast<double>(cfg_.cwnd_max)) {
        f.cwnd = static_cast<double>(cfg_.cwnd_max);
      }
    }
    f.window.pop_front();
    --f.inflight;
    ++f.snd_una;
  }
  if (sampled) {
    // Jacobson estimators; deviation measured against the pre-update srtt.
    if (!f.have_rtt) {
      f.srtt_s = sample_s;
      f.rttvar_s = sample_s / 2.0;
      f.have_rtt = true;
    } else {
      const double err = sample_s - f.srtt_s;
      f.srtt_s += err / 8.0;
      f.rttvar_s += ((err < 0.0 ? -err : err) - f.rttvar_s) / 4.0;
    }
    SimTime rto = seconds_f(f.srtt_s + 4.0 * f.rttvar_s);
    if (rto < cfg_.rto_min) rto = cfg_.rto_min;
    if (rto > cfg_.rto_max) rto = cfg_.rto_max;
    f.rto = rto;
  }
  f.backoff = 0;  // forward progress clears the backoff ladder
  cancel_rto(f);
  transmit_window(pkt.app.flow, f);  // re-arms the RTO while anything is inflight
}

void ReliableTransport::on_segment(const Packet& pkt) {
  const std::uint32_t flow = pkt.app.flow;
  auto it = recv_flows_.find(flow);
  if (it == recv_flows_.end()) {
    ReceiverFlow f;
    f.epoch = pkt.transport.epoch;
    it = recv_flows_.emplace(flow, std::move(f)).first;
  }
  ReceiverFlow& f = it->second;
  if (pkt.transport.epoch < f.epoch) return;  // stale incarnation: ignore
  if (pkt.transport.epoch > f.epoch) {
    // The sender cold-restarted (or gave up and began anew): adopt.
    f.epoch = pkt.transport.epoch;
    f.rcv_next = 0;
    f.ooo.clear();
  }
  const std::uint32_t seq = pkt.transport.seq;
  if (seq == f.rcv_next) {
    deliver_in_order(pkt);
    ++f.rcv_next;
    auto next = f.ooo.find(f.rcv_next);
    while (next != f.ooo.end()) {
      deliver_in_order(next->second);
      f.ooo.erase(next);
      ++f.rcv_next;
      next = f.ooo.find(f.rcv_next);
    }
  } else if (seq > f.rcv_next) {
    if (f.ooo.size() < cfg_.buffer_packets) {
      f.ooo.emplace(seq, pkt);
    } else if (f.ooo.find(seq) == f.ooo.end()) {
      node_.drop(pkt, DropReason::kBufferOverflow);
    }
  } else {
    // Below the cumulative point: a retransmission of something already
    // delivered (the ACK it needs is re-sent below).
    node_.stats().on_duplicate_delivery();
  }
  send_ack(flow, f, pkt.ip.src);
}

void ReliableTransport::deliver_in_order(const Packet& pkt) {
  node_.deliver_to_sink(pkt);
  if (probe_) probe_(pkt);
}

void ReliableTransport::send_ack(std::uint32_t flow, const ReceiverFlow& f, NodeId to) {
  Packet ack;
  ack.kind = PacketKind::kData;
  ack.ip.dst = to;
  ack.app.flow = flow;
  ack.app.sent_at = sim_.now();
  ack.payload_bytes = 0;
  ack.transport.kind = SegKind::kAck;
  ack.transport.seq = f.rcv_next;
  ack.transport.epoch = f.epoch;
  node_.transport_send(std::move(ack));
}

void ReliableTransport::on_node_restart() {
  for (auto& [flow, f] : send_flows_) cancel_rto(f);
  send_flows_.clear();
  recv_flows_.clear();
  // next_epoch_ survives: a monotonic identity counter, per the contract in
  // routing_api.hpp that DSDV/OLSR sequence numbers also rely on.
}

ReliableTransport::SenderView ReliableTransport::sender_view(std::uint32_t flow) const {
  const auto it = send_flows_.find(flow);
  if (it == send_flows_.end()) return {};
  const SenderFlow& f = it->second;
  SenderView v;
  v.exists = true;
  v.epoch = f.epoch;
  v.snd_una = f.snd_una;
  v.snd_next = f.snd_next;
  v.inflight = f.inflight;
  v.queued = f.window.size();
  v.cwnd = f.cwnd;
  v.rto = f.rto;
  v.backoff = f.backoff;
  v.head_retx = f.window.empty() ? 0 : f.window.front().retx;
  v.srtt_s = f.srtt_s;
  return v;
}

ReliableTransport::ReceiverView ReliableTransport::receiver_view(std::uint32_t flow) const {
  const auto it = recv_flows_.find(flow);
  if (it == recv_flows_.end()) return {};
  const ReceiverFlow& f = it->second;
  ReceiverView v;
  v.exists = true;
  v.epoch = f.epoch;
  v.rcv_next = f.rcv_next;
  v.buffered = f.ooo.size();
  return v;
}

}  // namespace manet
