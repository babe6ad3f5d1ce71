#include "net/node.hpp"

#include "core/assert.hpp"
#include "transport/transport.hpp"

namespace manet {

Node::Node(Simulator& sim, StatsCollector& stats, Channel& channel, NodeId id,
           MobilityModel* mobility, const MacConfig& mac_cfg, std::uint64_t root_seed)
    : sim_(sim),
      stats_(stats),
      id_(id),
      mobility_(mobility),
      trx_(sim, channel.config(), id),
      mac_(sim, mac_cfg, trx_, stats, RngStream(root_seed, "mac", id)),
      arp_(sim, id, mac_, stats) {
  MANET_EXPECTS(mobility_ != nullptr);
  trx_.set_stats(&stats);
  mac_.set_listener(this);
  // ARP give-up is link-layer failure feedback, same as MAC retry exhaustion.
  arp_.set_failure_handler(
      [this](const Packet& pkt, NodeId next_hop) { mac_link_failure(pkt, next_hop); });
  channel.add(&trx_, mobility_);
}

void Node::originate(Packet pkt) {
  stamp(pkt);
  pkt.kind = PacketKind::kData;
  pkt.ip.src = id_;
  pkt.ip.ttl = kInitialTtl;
  pkt.ip.proto = IpProto::kUdp;
  stats_.on_data_originated(pkt.app.flow);
  if (down()) {
    // The application keeps generating while its host is crashed (the flow
    // doesn't know); those packets are offered load that the fault destroys,
    // so they count against PDR rather than silently vanishing.
    drop(pkt, DropReason::kNodeDown);
    return;
  }
  if (trace_ != nullptr) trace_->record('s', sim_.now(), id_, pkt);
  if (pkt.ip.dst == id_) {  // degenerate self-flow
    deliver_to_sink(pkt);
    return;
  }
  MANET_ASSERT(routing_ != nullptr);
  routing_->route_packet(std::move(pkt));
}

void Node::transport_send(Packet pkt) {
  stamp(pkt);
  pkt.kind = PacketKind::kData;
  pkt.ip.src = id_;
  pkt.ip.ttl = kInitialTtl;
  pkt.ip.proto = IpProto::kUdp;
  if (down()) {
    // The transport's RTO timers keep firing between crash and restart;
    // their retransmissions go nowhere, like routing timer output.
    drop(pkt, DropReason::kNodeDown);
    return;
  }
  if (trace_ != nullptr) trace_->record('s', sim_.now(), id_, pkt);
  MANET_ASSERT(routing_ != nullptr);
  routing_->route_packet(std::move(pkt));
}

void Node::crash() {
  MANET_EXPECTS(!down());
  trx_.set_down(true);
  mac_.reset();
  arp_.reset();
  stats_.on_node_crash();
  if (trace_ != nullptr) trace_->record_fault(sim_.now(), id_, "crash");
}

void Node::restart() {
  MANET_EXPECTS(down());
  trx_.set_down(false);
  if (routing_ != nullptr) routing_->on_node_restart();
  if (transport_ != nullptr) transport_->on_node_restart();
  if (trace_ != nullptr) trace_->record_fault(sim_.now(), id_, "restart");
  stats_.on_node_restart(sim_.now());
}

void Node::send_with_next_hop(Packet pkt, NodeId next_hop) {
  stamp(pkt);
  if (down()) {
    // Routing timers may still fire while down; their output goes nowhere.
    drop(pkt, DropReason::kNodeDown);
    return;
  }
  arp_.send(std::move(pkt), next_hop);
}

void Node::send_broadcast(Packet pkt) {
  stamp(pkt);
  if (down()) {
    drop(pkt, DropReason::kNodeDown);
    return;
  }
  pkt.mac.dst = kBroadcast;
  mac_.enqueue(std::move(pkt));
}

void Node::stamp(Packet& pkt) {
  if (pkt.uid() == 0) pkt.set_uid(sim_.mint_uid());
}

void Node::drop(const Packet& pkt, DropReason r) {
  // Pure ACKs carry no application payload; counting them as data drops
  // would skew the drop distribution against the transport's control chatter.
  if (pkt.kind == PacketKind::kData && pkt.transport.kind != SegKind::kAck) {
    stats_.on_data_dropped(r);
  }
  if (trace_ != nullptr) trace_->record('D', sim_.now(), id_, pkt, to_string(r));
}

bool Node::decrement_ttl(Packet& pkt) {
  if (pkt.ip.ttl <= 1) {
    drop(pkt, DropReason::kTtlExpired);
    return false;
  }
  --pkt.ip.ttl;
  return true;
}

void Node::deliver_to_sink(const Packet& pkt) {
  // PDR counts unique application packets; late duplicate copies (route
  // flaps, flooding protocols) are tallied separately.
  if (!sink_seen_.insert(sink_key(pkt)).second) {
    stats_.on_duplicate_delivery();
    return;
  }
  const SimTime delay = sim_.now() - pkt.app.sent_at;
  const auto hops = static_cast<std::uint32_t>(kInitialTtl - pkt.ip.ttl + 1);
  stats_.on_data_delivered(delay, pkt.payload_bytes, hops, pkt.app.flow, sim_.now());
  if (trace_ != nullptr) trace_->record('r', sim_.now(), id_, pkt);
}

void Node::mac_deliver(const Packet& frame) {
  // The channel excludes down receivers and the transceiver corrupts
  // receptions in flight at the crash instant, so nothing can reach here
  // while down — the recovery-invariant suite depends on this.
  MANET_ASSERT_MSG(!down(), "node %u t=%lldns: frame delivered to a crashed node", id_,
                   static_cast<long long>(sim_.now().ns()));
  switch (frame.kind) {
    case PacketKind::kArp:
      arp_.on_receive(frame);
      return;
    case PacketKind::kRoutingControl:
      if (routing_ != nullptr) routing_->on_control(frame, frame.mac.src);
      return;
    case PacketKind::kData: {
      if (frame.ip.dst == id_) {
        // Transport-carrying packets terminate in the transport endpoint; a
        // bare datagram (or any segment on a transport-less node) falls
        // through to the raw sink as before.
        if (transport_ != nullptr && frame.transport.kind == SegKind::kAck) {
          transport_->on_ack(frame);
          return;
        }
        if (transport_ != nullptr && frame.transport.kind == SegKind::kData) {
          transport_->on_segment(frame);
          return;
        }
        deliver_to_sink(frame);
        return;
      }
      // Forwarding: TTL is charged here, once per hop, for every protocol.
      Packet pkt = frame;
      if (!decrement_ttl(pkt)) return;
      if (trace_ != nullptr) trace_->record('f', sim_.now(), id_, pkt);
      if (routing_ != nullptr) routing_->route_packet(std::move(pkt));
      return;
    }
  }
}

void Node::mac_link_failure(const Packet& frame, NodeId next_hop) {
  if (routing_ != nullptr) {
    routing_->on_link_failure(frame, next_hop);
  } else {
    drop(frame, DropReason::kMacRetryLimit);
  }
}

}  // namespace manet
