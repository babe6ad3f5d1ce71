// CBRP's own control message. Its route requests, replies, errors and the
// source-route option on its data packets are the shared on-demand messages
// (routing/on_demand.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "packet/packet.hpp"
#include "routing/cbrp/cluster.hpp"

namespace manet::cbrp {

/// Periodic HELLO: the sender's own status plus its full neighbour table —
/// the message that builds 1- and 2-hop knowledge and the cluster structure.
struct Hello final : RoutingPayloadBase<Hello> {
  Role role = Role::kUndecided;
  NodeId head = kBroadcast;  ///< affiliation
  std::vector<NeighborSummary> neighbors;

  [[nodiscard]] std::size_t size_bytes() const override {
    return 8 + 4 + 7 * neighbors.size();
  }
};

}  // namespace manet::cbrp
