// AODV control-message bodies (RFC 3561 §5), carried as routing payloads.
// Byte sizes match the RFC's fixed formats so NRL-in-bytes is faithful.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "packet/packet.hpp"

namespace manet::aodv {

struct Rreq final : RoutingPayloadBase<Rreq> {
  std::uint32_t rreq_id = 0;
  NodeId origin = 0;
  NodeId dest = 0;
  std::uint32_t origin_seq = 0;
  std::uint32_t dest_seq = 0;
  bool unknown_dest_seq = true;  ///< the RFC's U flag
  bool dest_only = false;        ///< the RFC's D flag
  std::uint8_t hop_count = 0;

  [[nodiscard]] std::size_t size_bytes() const override { return 24; }
};

struct Rrep final : RoutingPayloadBase<Rrep> {
  NodeId origin = 0;  ///< the node the reply travels back to
  NodeId dest = 0;    ///< the node the route leads to
  std::uint32_t dest_seq = 0;
  std::uint8_t hop_count = 0;  ///< hops from the replier to dest
  SimTime lifetime = SimTime::zero();

  [[nodiscard]] std::size_t size_bytes() const override { return 20; }
};

struct Rerr final : RoutingPayloadBase<Rerr> {
  /// (destination, incremented destination sequence number) pairs.
  std::vector<std::pair<NodeId, std::uint32_t>> unreachable;

  [[nodiscard]] std::size_t size_bytes() const override {
    return 4 + 8 * unreachable.size();
  }
};

}  // namespace manet::aodv
