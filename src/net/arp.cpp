#include "net/arp.hpp"

namespace manet {

Arp::Arp(Simulator& sim, NodeId self, WifiMac& mac, StatsCollector& stats)
    : sim_(sim), self_(self), mac_(mac), stats_(stats) {}

void Arp::send(Packet pkt, NodeId next_hop) {
  if (next_hop == kBroadcast) {
    pkt.mac.dst = kBroadcast;
    mac_.enqueue(std::move(pkt));
    return;
  }
  if (const auto it = cache_.find(next_hop); it != cache_.end()) {
    pkt.mac.dst = it->second;
    mac_.enqueue(std::move(pkt));
    return;
  }
  auto [it, inserted] = pending_.try_emplace(next_hop);
  if (!inserted) {
    // ns-2 semantics: the newest packet waits; the previous one is dropped.
    drop_pending(it->second.pkt);
    it->second.pkt = std::move(pkt);
    return;  // a request is already outstanding
  }
  it->second.pkt = std::move(pkt);
  it->second.tries = 1;
  send_request(next_hop);
  it->second.timer = sim_.schedule(kRetryDelay, [this, next_hop] { on_timeout(next_hop); });
}

void Arp::reset() {
  for (auto& [target, pending] : pending_) {
    sim_.cancel(pending.timer);
    if (pending.pkt.kind == PacketKind::kData) stats_.on_data_dropped(DropReason::kNodeDown);
  }
  pending_.clear();
  cache_.clear();
}

void Arp::drop_pending(Packet& pkt) {
  if (pkt.kind == PacketKind::kData) stats_.on_data_dropped(DropReason::kArpFail);
}

void Arp::send_request(NodeId target) {
  Packet req;
  req.kind = PacketKind::kArp;
  req.arp = ArpHeader{.is_request = true, .sender = self_, .target = target};
  req.mac.dst = kBroadcast;
  mac_.enqueue(std::move(req));
}

void Arp::on_timeout(NodeId target) {
  auto it = pending_.find(target);
  if (it == pending_.end()) return;
  if (it->second.tries >= kMaxTries) {
    Packet stranded = std::move(it->second.pkt);
    pending_.erase(it);
    if (on_failure_) {
      on_failure_(stranded, target);  // link-layer feedback to routing
    } else {
      drop_pending(stranded);
    }
    return;
  }
  ++it->second.tries;
  send_request(target);
  it->second.timer = sim_.schedule(kRetryDelay, [this, target] { on_timeout(target); });
}

void Arp::on_receive(const Packet& frame) {
  // Learn the sender's mapping from any ARP frame.
  cache_[frame.arp.sender] = frame.mac.src;

  if (frame.arp.is_request) {
    if (frame.arp.target != self_) return;
    Packet reply;
    reply.kind = PacketKind::kArp;
    reply.arp = ArpHeader{.is_request = false, .sender = self_, .target = frame.arp.sender};
    reply.mac.dst = frame.mac.src;
    mac_.enqueue(std::move(reply));
  }

  // Resolution complete? Flush the waiting packet.
  if (auto it = pending_.find(frame.arp.sender); it != pending_.end()) {
    sim_.cancel(it->second.timer);
    Packet pkt = std::move(it->second.pkt);
    pending_.erase(it);
    pkt.mac.dst = cache_[frame.arp.sender];
    mac_.enqueue(std::move(pkt));
  }
}

}  // namespace manet
