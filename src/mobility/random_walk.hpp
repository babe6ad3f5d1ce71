// Random walk (random direction with boundary reflection).
//
// Included as a secondary mobility model: unlike random waypoint it has no
// central-area density bias, which makes it a useful ablation for density-
// sensitive protocols (clustering, MPR selection).
#pragma once

#include "core/rng.hpp"
#include "mobility/mobility_model.hpp"

namespace manet {

struct RandomWalkConfig {
  Area area{1000.0, 1000.0};
  double v_min = 0.1;              // m/s
  double v_max = 20.0;             // m/s
  SimTime step = seconds(10);      // time between direction changes
};

class RandomWalk final : public MobilityModel {
 public:
  RandomWalk(const RandomWalkConfig& cfg, RngStream rng);

  Vec2 position_at(SimTime t) override;
  [[nodiscard]] double max_speed() const override { return cfg_.v_max; }

 private:
  void next_leg();
  /// Position at `t` on the current leg, reflected into the area.
  [[nodiscard]] Vec2 on_leg(SimTime t) const;

  RandomWalkConfig cfg_;
  RngStream rng_;
  Vec2 from_{};
  Vec2 velocity_{};  // m/s
  SimTime depart_{}, leg_end_{};
};

}  // namespace manet
