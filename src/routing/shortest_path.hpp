// Unit-weight shortest paths (BFS) over a node-id adjacency map.
//
// A test oracle only: tests compare protocols' hop counts and OLSR's cached
// route table against it. Deterministic: ties are broken towards the
// smallest predecessor id.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "packet/packet.hpp"

namespace manet {

using AdjacencyMap = std::unordered_map<NodeId, std::vector<NodeId>>;

struct SpfResult {
  /// First hop on a shortest path from the source to each reachable node
  /// (source itself excluded).
  std::unordered_map<NodeId, NodeId> next_hop;
  /// Hop distance from the source to each reachable node.
  std::unordered_map<NodeId, std::uint32_t> dist;
};

/// BFS from `self` over `adj`. Edges are taken as given (directed); callers
/// wanting symmetric-only routing must pre-filter.
[[nodiscard]] SpfResult shortest_paths(NodeId self, const AdjacencyMap& adj);

}  // namespace manet
