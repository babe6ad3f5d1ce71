#include "net/routing_api.hpp"

#include "net/node.hpp"

namespace manet {

void RoutingProtocol::on_link_failure(const Packet& pkt, NodeId /*next_hop*/) {
  // Default: protocols that don't react to link-layer feedback (pure
  // proactive designs) simply lose the packet.
  node_.drop(pkt, DropReason::kMacRetryLimit);
}

}  // namespace manet
