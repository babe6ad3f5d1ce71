// Utilities shared by the routing protocols.
#pragma once

#include <functional>
#include <vector>

#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "packet/packet.hpp"
#include "stats/stats.hpp"

namespace manet {

/// Random delay applied before (re)broadcasting control packets, so that
/// neighbours receiving the same flood do not all transmit simultaneously —
/// the standard anti-synchronization measure of every MANET implementation.
[[nodiscard]] inline SimTime broadcast_jitter(RngStream& rng) {
  return microseconds(rng.uniform_int(0, 10'000));
}

/// Buffer for data packets awaiting route discovery, as kept by every
/// on-demand protocol (ns-2 defaults: 64 packets, 30 s lifetime). One global
/// FIFO with per-destination retrieval; overflow evicts the oldest packet.
/// Dropped packets are reported through `on_drop` (normally Node::drop, so
/// they reach both the statistics and the event trace). Every access first
/// sweeps the expired packets out as kBufferTimeout, so a packet past its
/// lifetime is never charged to another reason. The FIFO is a vector: it
/// holds at most `capacity` packets, and an idle buffer allocates nothing.
class PacketBuffer {
 public:
  using DropFn = std::function<void(const Packet&, DropReason)>;

  PacketBuffer(Simulator& sim, DropFn on_drop, std::size_t capacity = 64,
               SimTime lifetime = seconds(30))
      : sim_(sim), on_drop_(std::move(on_drop)), capacity_(capacity), lifetime_(lifetime) {}

  void push(Packet pkt, NodeId dst) {
    purge_expired();
    if (entries_.size() >= capacity_) {
      count_drop(entries_.front().pkt, DropReason::kBufferOverflow);
      entries_.erase(entries_.begin());
    }
    entries_.push_back(Entry{std::move(pkt), dst, sim_.now() + lifetime_});
    maybe_schedule_purge();
  }

  /// Remove and return all live packets buffered for `dst`.
  [[nodiscard]] std::vector<Packet> take(NodeId dst) {
    purge_expired();
    std::vector<Packet> out;
    erase_where([&](Entry& e) {
      if (e.dst != dst) return false;
      out.push_back(std::move(e.pkt));
      return true;
    });
    return out;
  }

  [[nodiscard]] bool has(NodeId dst) {
    purge_expired();
    for (const auto& e : entries_) {
      if (e.dst == dst) return true;
    }
    return false;
  }

  /// Drop every live packet buffered for `dst`, counting `reason`.
  void drop_all(NodeId dst, DropReason reason) {
    purge_expired();
    erase_where([&](const Entry& e) {
      if (e.dst != dst) return false;
      count_drop(e.pkt, reason);
      return true;
    });
  }

  /// Drop every live packet, counting `reason` per data packet (node
  /// restart).
  void clear(DropReason reason) {
    purge_expired();
    for (const Entry& e : entries_) count_drop(e.pkt, reason);
    entries_.clear();
  }

  [[nodiscard]] std::size_t size() {
    purge_expired();
    return entries_.size();
  }

 private:
  struct Entry {
    Packet pkt;
    NodeId dst;
    SimTime expires;
  };

  void count_drop(const Packet& pkt, DropReason r) {
    if (on_drop_) on_drop_(pkt, r);
  }

  /// Erase, front to back and keeping the order of the rest, every entry
  /// `pred` (which may take the packet or count its drop) accepts.
  template <typename Pred>
  void erase_where(Pred pred) {
    auto kept = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (pred(*it)) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    entries_.erase(kept, entries_.end());
  }

  void purge_expired() {
    erase_where([&](const Entry& e) {
      if (e.expires > sim_.now()) return false;
      count_drop(e.pkt, DropReason::kBufferTimeout);
      return true;
    });
  }

  // Expiry is checked on every access, but an idle buffer must still age
  // its contents out (the timeout is an observable metric), so a purge event
  // rides along whenever the buffer is non-empty. An entry is counted at
  // worst ~2 lifetimes after insertion; the metric only needs "eventually".
  void maybe_schedule_purge() {
    if (purge_pending_ || entries_.empty()) return;
    purge_pending_ = true;
    sim_.schedule(lifetime_ + milliseconds(1), [this] {
      purge_pending_ = false;
      purge_expired();
      maybe_schedule_purge();
    });
  }

  Simulator& sim_;
  DropFn on_drop_;
  std::size_t capacity_;
  SimTime lifetime_;
  std::vector<Entry> entries_;
  bool purge_pending_ = false;
};

}  // namespace manet
