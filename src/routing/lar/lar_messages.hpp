// LAR's route request and reply: the shared on-demand ones extended with
// location fields (8 bytes per coordinate pair, per the LAR paper's format
// estimates). Route errors and the source-route option are the shared ones
// (routing/on_demand.hpp).
#pragma once

#include <cstdint>

#include "geom/vec2.hpp"
#include "routing/on_demand.hpp"

namespace manet::lar {

/// The request zone carried by zone-limited RREQs.
struct RequestZone {
  Vec2 lo;       ///< bottom-left corner
  Vec2 hi;       ///< top-right corner
  bool unrestricted = true;  ///< flood fallback: no zone check

  [[nodiscard]] bool contains(Vec2 p) const {
    return unrestricted || (p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y);
  }
};

struct Rreq final : RoutingPayloadBase<Rreq> {
  NodeId origin = 0;
  NodeId target = 0;
  std::uint16_t req_id = 0;
  Path record;        ///< traversed nodes, origin first
  RequestZone zone;   ///< forwarding restriction
  Vec2 origin_pos;    ///< the requester's position (location dissemination)

  [[nodiscard]] std::size_t size_bytes() const override {
    return 4 + 8 + 4 * record.size() + 8 /*origin pos*/ + (zone.unrestricted ? 0 : 16);
  }
};

struct Rrep final : RoutingPayloadBase<Rrep> {
  Path path;                   ///< [origin, ..., target]
  std::size_t back_index = 0;  ///< index of the node currently holding it
  Vec2 target_pos;             ///< the target's position at reply time

  [[nodiscard]] std::size_t size_bytes() const override {
    return 4 + 6 + 4 * path.size() + 8;
  }
};

}  // namespace manet::lar
