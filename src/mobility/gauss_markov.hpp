// Gauss-Markov mobility (Liang & Haas).
//
// Velocity is a first-order autoregressive process: at each step the new
// speed/direction is a blend of the previous value, a long-term mean, and
// Gaussian noise, weighted by the memory parameter alpha in [0,1]:
//
//   v_k = alpha * v_{k-1} + (1 - alpha) * v_mean + sqrt(1 - alpha^2) * noise
//
// alpha -> 1 gives smooth, temporally-correlated motion (vehicles);
// alpha -> 0 degenerates to a memoryless random walk. Included because the
// mobility-model comparison branch of this literature (Divecha et al. 2007)
// shows protocol rankings shift across mobility models, and Gauss-Markov is
// its standard "smooth" representative. Boundary handling follows the
// common recipe: near an edge, the mean direction is steered back towards
// the middle of the area.
#pragma once

#include "core/rng.hpp"
#include "mobility/mobility_model.hpp"

namespace manet {

struct GaussMarkovConfig {
  Area area{1000.0, 1000.0};
  double alpha = 0.85;          ///< memory (0 = random walk, 1 = straight line)
  double mean_speed = 10.0;     ///< long-term mean speed, m/s
  double max_speed = 25.0;      ///< hard clamp (channel slack bound)
  SimTime step = seconds(1);    ///< update granularity
};

class GaussMarkov final : public MobilityModel {
 public:
  static constexpr double kSpeedStddev = 3.0;      ///< speed noise, m/s
  static constexpr double kDirectionStddev = 0.6;  ///< direction noise, radians
  /// Distance from an edge at which the mean direction turns inward.
  static constexpr double kEdgeMargin = 50.0;

  GaussMarkov(const GaussMarkovConfig& cfg, RngStream rng);

  Vec2 position_at(SimTime t) override;
  [[nodiscard]] double max_speed() const override { return cfg_.max_speed; }

 private:
  void advance_step();

  GaussMarkovConfig cfg_;
  RngStream rng_;
  Vec2 pos_{};
  double speed_ = 0.0;
  double direction_ = 0.0;       // radians
  double mean_direction_ = 0.0;  // steered near edges
  SimTime step_start_{};
  Vec2 step_velocity_{};
};

}  // namespace manet
