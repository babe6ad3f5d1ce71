// Node mobility.
//
// A MobilityModel answers "where is this node at time t". Models are lazy and
// analytic: they keep the current movement leg and advance it when queried,
// so no per-node movement events clutter the event queue. The contract is
// that queries arrive with non-decreasing t (simulated time is monotone),
// which makes advancement O(1) amortized.
#pragma once

#include <memory>

#include "core/time.hpp"
#include "geom/vec2.hpp"

namespace manet {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Position at time `t`. Calls must use non-decreasing `t`.
  virtual Vec2 position_at(SimTime t) = 0;

  /// Upper bound on instantaneous speed (m/s); the channel uses this to size
  /// the slack on spatial-index queries between refreshes, so positions must
  /// be continuous in t: no jump at a leg boundary or wall.
  [[nodiscard]] virtual double max_speed() const = 0;
};

using MobilityPtr = std::unique_ptr<MobilityModel>;

}  // namespace manet
