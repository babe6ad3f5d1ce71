// Multi-Point Relay selection (RFC 3626 §8.3.1).
//
// Pure function, separated from the protocol so its covering property can be
// property-tested over random graphs: the returned MPR set must cover every
// strict 2-hop neighbour.
#pragma once

#include <utility>
#include <vector>

#include "packet/packet.hpp"

namespace manet::olsr {

/// `n1`: symmetric 1-hop neighbours of `self`, in any order.
/// `links`: (n, v) for each symmetric neighbour v of each n in n1, in any
/// order; pairs whose n is not in n1 are ignored.
/// Returns the MPR set (sorted): a subset of n1 covering every node that is
/// a symmetric neighbour of some n1 member but is neither `self` nor in n1.
/// Greedy per the RFC: mandatory sole-covers first, then max-coverage with
/// smallest-id tie-breaking (willingness is not modelled).
[[nodiscard]] std::vector<NodeId> select_mprs(
    NodeId self, const std::vector<NodeId>& n1,
    const std::vector<std::pair<NodeId, NodeId>>& links);

}  // namespace manet::olsr
