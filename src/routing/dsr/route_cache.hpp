// DSR path route cache.
//
// The CMU ns-2 DSR model's "path cache": complete source routes (each
// beginning at the owning node), bounded in count, individually expiring.
// Lookups return the shortest live path containing the destination —
// possibly a prefix of a longer cached path. Link removal (from route
// errors or link-layer feedback) truncates every path at the first use of
// the broken link. Pure data structure, unit-testable without a simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/time.hpp"
#include "routing/on_demand.hpp"

namespace manet::dsr {

class RouteCache {
 public:
  explicit RouteCache(NodeId self, std::size_t capacity = 64,
                      SimTime lifetime = seconds(300))
      : self_(self), capacity_(capacity), lifetime_(lifetime) {}

  /// Insert a path [self, ..., dst] that must start at the owning node. Duplicate paths
  /// refresh their expiry. Paths with repeated nodes are rejected.
  void add(const Path& path, SimTime now);

  /// Shortest live path from self to `dst` (inclusive), if any.
  [[nodiscard]] std::optional<Path> find(NodeId dst, SimTime now) const;

  /// Remove the directed link a->b: every cached path is truncated just
  /// before its first traversal of that link (paths shrinking below two
  /// nodes are dropped).
  void remove_link(NodeId a, NodeId b);

  /// Number of live cached paths.
  [[nodiscard]] std::size_t size(SimTime now) const;

  /// Forget every cached path (node restart).
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    Path path;
    SimTime expires;
  };

  NodeId self_;
  std::size_t capacity_;
  SimTime lifetime_;
  std::vector<Entry> entries_;
};

/// True iff the path has no repeated nodes (loop-free).
[[nodiscard]] bool loop_free(const Path& path);

}  // namespace manet::dsr
