#include "mobility/random_walk.hpp"

#include <cmath>
#include <numbers>

#include "core/assert.hpp"

namespace manet {

RandomWalk::RandomWalk(const RandomWalkConfig& cfg, RngStream rng) : cfg_(cfg), rng_(rng) {
  MANET_EXPECTS(cfg.v_min > 0.0 && cfg.v_max >= cfg.v_min);
  MANET_EXPECTS(cfg.step > SimTime::zero());
  from_ = {rng_.uniform(0.0, cfg_.area.width), rng_.uniform(0.0, cfg_.area.height)};
  depart_ = leg_end_ = SimTime::zero();
  next_leg();
}

void RandomWalk::next_leg() {
  // The new leg starts where the old one ended, reflection included.
  from_ = on_leg(leg_end_);
  depart_ = leg_end_;
  leg_end_ = depart_ + cfg_.step;
  const double speed = rng_.uniform(cfg_.v_min, cfg_.v_max);
  const double angle = rng_.uniform(0.0, 2.0 * std::numbers::pi);
  velocity_ = {speed * std::cos(angle), speed * std::sin(angle)};
}

Vec2 RandomWalk::position_at(SimTime t) {
  while (t >= leg_end_) next_leg();
  return on_leg(t);
}

Vec2 RandomWalk::on_leg(SimTime t) const {
  Vec2 p = from_ + velocity_ * (t - depart_).sec();
  // Reflect off the boundary; with legs of bounded length one reflection per
  // axis suffices (speed * step < area dimensions for sane configs), but we
  // loop to stay correct for extreme parameters.
  auto reflect = [](double v, double hi) {
    while (v < 0.0 || v > hi) {
      if (v < 0.0) v = -v;
      if (v > hi) v = 2.0 * hi - v;
    }
    return v;
  };
  p.x = reflect(p.x, cfg_.area.width);
  p.y = reflect(p.y, cfg_.area.height);
  return p;
}

}  // namespace manet
