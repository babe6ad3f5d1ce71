#include "mobility/gauss_markov.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/assert.hpp"

namespace manet {

GaussMarkov::GaussMarkov(const GaussMarkovConfig& cfg, RngStream rng)
    : cfg_(cfg), rng_(rng) {
  MANET_EXPECTS(cfg.alpha >= 0.0 && cfg.alpha <= 1.0);
  MANET_EXPECTS(cfg.mean_speed > 0.0 && cfg.max_speed >= cfg.mean_speed);
  MANET_EXPECTS(cfg.step > SimTime::zero());
  pos_ = {rng_.uniform(0.0, cfg_.area.width), rng_.uniform(0.0, cfg_.area.height)};
  speed_ = cfg_.mean_speed;
  direction_ = mean_direction_ = rng_.uniform(0.0, 2.0 * std::numbers::pi);
  step_start_ = SimTime::zero();
  step_velocity_ = {speed_ * std::cos(direction_), speed_ * std::sin(direction_)};
}

void GaussMarkov::advance_step() {
  // Commit the last step's movement.
  pos_ = cfg_.area.clamp(pos_ + step_velocity_ * cfg_.step.sec());
  step_start_ += cfg_.step;

  // Steer the mean direction towards the interior when near an edge.
  if (pos_.x < kEdgeMargin || pos_.x > cfg_.area.width - kEdgeMargin ||
      pos_.y < kEdgeMargin || pos_.y > cfg_.area.height - kEdgeMargin) {
    const Vec2 center{cfg_.area.width / 2.0, cfg_.area.height / 2.0};
    mean_direction_ = std::atan2(center.y - pos_.y, center.x - pos_.x);
  }

  const double a = cfg_.alpha;
  const double noise_w = std::sqrt(std::max(0.0, 1.0 - a * a));
  speed_ = a * speed_ + (1.0 - a) * cfg_.mean_speed +
           noise_w * rng_.normal(0.0, kSpeedStddev);
  speed_ = std::clamp(speed_, 0.0, cfg_.max_speed);
  direction_ = a * direction_ + (1.0 - a) * mean_direction_ +
               noise_w * rng_.normal(0.0, kDirectionStddev);
  step_velocity_ = {speed_ * std::cos(direction_), speed_ * std::sin(direction_)};
}

Vec2 GaussMarkov::position_at(SimTime t) {
  while (t >= step_start_ + cfg_.step) advance_step();
  const Vec2 p = pos_ + step_velocity_ * (t - step_start_).sec();
  return cfg_.area.clamp(p);
}

}  // namespace manet
