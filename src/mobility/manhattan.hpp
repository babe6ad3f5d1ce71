// Manhattan-grid mobility.
//
// Nodes move along the streets of a regular grid (spacing `block` metres):
// straight along a street at a per-leg uniform speed, and at each
// intersection continue straight with probability 0.5 or turn left/right
// with probability 0.25 each (the standard Manhattan model of the mobility
// comparison literature — urban vehicle movement). Positions are always on
// a street line, which concentrates nodes and creates the characteristic
// long-thin contact patterns that stress routing protocols differently from
// random waypoint.
#pragma once

#include "core/rng.hpp"
#include "mobility/mobility_model.hpp"

namespace manet {

/// The street layout: what a scenario chooses (ScenarioConfig::manhattan).
struct ManhattanStreets {
  double block = 200.0;  ///< street spacing, metres
  double p_turn = 0.5;   ///< probability of turning at an intersection

  friend bool operator==(const ManhattanStreets&, const ManhattanStreets&) = default;
};

/// The model's parameters: the streets, plus the area and speed range that
/// a scenario takes from its own fields.
struct ManhattanConfig : ManhattanStreets {
  Area area{1000.0, 1000.0};
  double v_min = 1.0;    ///< m/s
  double v_max = 15.0;   ///< m/s
};

class Manhattan final : public MobilityModel {
 public:
  Manhattan(const ManhattanConfig& cfg, RngStream rng);

  Vec2 position_at(SimTime t) override;
  [[nodiscard]] double max_speed() const override { return cfg_.v_max; }

 private:
  struct Leg {
    Vec2 from;
    Vec2 to;        // next intersection
    SimTime depart;
    SimTime arrive;
  };
  void next_leg();
  [[nodiscard]] int max_ix() const;
  [[nodiscard]] int max_iy() const;

  ManhattanConfig cfg_;
  RngStream rng_;
  int ix_ = 0, iy_ = 0;  // current intersection (grid coordinates)
  int dx_ = 1, dy_ = 0;  // travel direction (unit grid step)
  Leg leg_{};
};

}  // namespace manet
