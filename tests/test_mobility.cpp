#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "mobility/random_walk.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_mobility.hpp"

namespace manet {
namespace {

TEST(StaticMobility, NeverMoves) {
  StaticMobility m({10.0, 20.0});
  EXPECT_EQ(m.position_at(SimTime::zero()), (Vec2{10.0, 20.0}));
  EXPECT_EQ(m.position_at(seconds(1000)), (Vec2{10.0, 20.0}));
  EXPECT_DOUBLE_EQ(m.max_speed(), 0.0);
}

TEST(StaticMobility, Teleport) {
  StaticMobility m({0.0, 0.0});
  m.set_position({5.0, 5.0});
  EXPECT_EQ(m.position_at(seconds(1)), (Vec2{5.0, 5.0}));
}

RandomWaypointConfig wp_cfg(double vmax = 20.0, SimTime pause = SimTime::zero()) {
  RandomWaypointConfig cfg;
  cfg.area = {1000.0, 1000.0};
  cfg.v_min = 0.5;
  cfg.v_max = vmax;
  cfg.pause = pause;
  cfg.warmup = seconds(100);
  return cfg;
}

TEST(RandomWaypoint, Reproducible) {
  RandomWaypoint a(wp_cfg(), RngStream(3, "mob", 0));
  RandomWaypoint b(wp_cfg(), RngStream(3, "mob", 0));
  for (int i = 0; i <= 100; ++i) {
    const SimTime t = seconds(i);
    EXPECT_EQ(a.position_at(t), b.position_at(t));
  }
}

TEST(RandomWaypoint, DifferentStreamsDiffer) {
  RandomWaypoint a(wp_cfg(), RngStream(3, "mob", 0));
  RandomWaypoint b(wp_cfg(), RngStream(3, "mob", 1));
  EXPECT_NE(a.position_at(seconds(10)), b.position_at(seconds(10)));
}

TEST(RandomWaypoint, ActuallyMoves) {
  RandomWaypoint m(wp_cfg(), RngStream(4, "mob", 0));
  const Vec2 p0 = m.position_at(SimTime::zero());
  const Vec2 p1 = m.position_at(seconds(60));
  EXPECT_GT(distance(p0, p1), 1.0);
}

TEST(RandomWaypoint, MaxSpeedReported) {
  RandomWaypoint m(wp_cfg(17.5), RngStream(1));
  EXPECT_DOUBLE_EQ(m.max_speed(), 17.5);
}

// Property: positions stay in the area and the instantaneous speed between
// samples never exceeds v_max.
class WaypointProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaypointProperty, BoundedPositionAndSpeed) {
  const auto cfg = wp_cfg(20.0, milliseconds(2500));
  RandomWaypoint m(cfg, RngStream(GetParam(), "mob", 9));
  Vec2 prev = m.position_at(SimTime::zero());
  const SimTime step = milliseconds(100);
  SimTime t = SimTime::zero();
  for (int i = 0; i < 3000; ++i) {
    t += step;
    const Vec2 p = m.position_at(t);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, cfg.area.width);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, cfg.area.height);
    const double v = distance(prev, p) / step.sec();
    EXPECT_LE(v, cfg.v_max * 1.0001) << "at t=" << t.sec();
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaypointProperty, ::testing::Values(1, 2, 3, 4, 5));

TEST(RandomWaypoint, PauseHoldsPosition) {
  // With a long pause, consecutive samples frequently coincide.
  auto cfg = wp_cfg(20.0, seconds(30));
  RandomWaypoint m(cfg, RngStream(7, "mob", 2));
  int stationary = 0;
  Vec2 prev = m.position_at(SimTime::zero());
  for (int i = 1; i <= 600; ++i) {
    const Vec2 p = m.position_at(milliseconds(500 * i));
    if (p == prev) ++stationary;
    prev = p;
  }
  EXPECT_GT(stationary, 50);
}

TEST(RandomWalk, StaysInsideArea) {
  RandomWalkConfig cfg;
  cfg.area = {500.0, 300.0};
  cfg.v_min = 1.0;
  cfg.v_max = 15.0;
  cfg.step = seconds(5);
  RandomWalk m(cfg, RngStream(11));
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p = m.position_at(milliseconds(250 * i));
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, cfg.area.width);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, cfg.area.height);
  }
}

// Property: no jump anywhere, leg boundaries included. A leg that reflects
// off a wall must hand the next leg its reflected end point; the channel's
// query slack assumes no node outruns max_speed().
class RandomWalkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWalkProperty, BoundedSpeedAcrossLegs) {
  RandomWalkConfig cfg;
  cfg.area = {300.0, 200.0};  // small, so most legs reflect
  cfg.v_min = 5.0;
  cfg.v_max = 20.0;
  cfg.step = seconds(10);
  RandomWalk m(cfg, RngStream(GetParam(), "mob", 4));
  Vec2 prev = m.position_at(SimTime::zero());
  const SimTime step = milliseconds(5);
  SimTime t = SimTime::zero();
  for (int i = 0; i < 40'000; ++i) {
    t += step;
    const Vec2 p = m.position_at(t);
    ASSERT_LE(distance(prev, p), cfg.v_max * step.sec() * 1.0001) << "at t=" << t.sec();
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWalkProperty, ::testing::Values(1, 2, 3, 4, 5));

TEST(RandomWalk, Reproducible) {
  RandomWalkConfig cfg;
  RandomWalk a(cfg, RngStream(5));
  RandomWalk b(cfg, RngStream(5));
  for (int i = 0; i <= 50; ++i) EXPECT_EQ(a.position_at(seconds(i)), b.position_at(seconds(i)));
}

}  // namespace
}  // namespace manet
