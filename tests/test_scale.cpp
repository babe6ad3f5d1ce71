// Metropolitan-scale guarantees: grid-local candidate selection, the urban
// Manhattan scenario family, and large-N structural checks.
//
// Layers:
//   1. GridIndex property test at large N: for fuzzed placements and fuzzed
//      motion, a range query with the channel's slack margin returns a
//      superset of the exact in-range set, in ascending id order — the
//      invariant that lets Channel::transmit cull candidates grid-locally
//      without ever missing a receiver.
//   2. Manhattan mobility determinism: street-constrained positions and
//      pure-function-of-time replay (per-seed trajectories are pinned in
//      tests/test_goldens.cpp).
//   3. The urban family: all registered protocols run it unchanged, the
//      canyon model changes the outcome, and faulted urban runs (crash +
//      restart) replay identically — restart safety. Its outcome is a row
//      of the golden table.
//   4. A 5000-node city completes a short run with bounded memory per node
//      (the structural end of the 10k acceptance run, which lives in
//      scenarios/fig_scale.json).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "geom/grid_index.hpp"
#include "mobility/manhattan.hpp"
#include "mobility/random_waypoint.hpp"
#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

// ---------------------------------------------------------------------------
// 1. GridIndex range-query property at large N
// ---------------------------------------------------------------------------

TEST(GridIndexProperty, QueryIsSupersetOfExactDiskAtLargeN) {
  const Area area{10000.0, 10000.0};
  const double cell = 550.0;
  GridIndex grid(area, cell);
  RngStream rng(7, "grid-fuzz");

  const std::uint32_t n = 5000;
  std::vector<Vec2> pos;
  pos.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Vec2 p{rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)};
    ASSERT_EQ(grid.insert(p), i);
    pos.push_back(p);
  }

  // The channel queries with cs_range + slack while candidate slots may be
  // up to one refresh stale; here slots are exact, so any radius must yield
  // a superset of the exact disk of the same radius.
  auto check_queries = [&](int rounds) {
    for (int q = 0; q < rounds; ++q) {
      const Vec2 c{rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)};
      const double radius = rng.uniform(100.0, 800.0);
      const auto exclude = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
      std::vector<std::uint32_t> out;
      grid.query(c, radius, exclude, out);

      // Ascending id order (the determinism contract of the candidate walk).
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));

      // Superset of the exact disk; never contains the excluded id.
      const double r2 = radius * radius;
      std::size_t exact = 0;
      auto it = out.begin();
      for (std::uint32_t i = 0; i < n; ++i) {
        const bool inside = i != exclude && distance2(pos[i], c) <= r2;
        exact += inside ? 1u : 0u;
        if (inside) {
          while (it != out.end() && *it < i) ++it;
          ASSERT_TRUE(it != out.end() && *it == i)
              << "node " << i << " inside radius " << radius << " missing from query";
        }
      }
      EXPECT_EQ(std::count(out.begin(), out.end(), exclude), 0);
      // Grid-local culling must actually cull: the 3x3 neighbourhood of a
      // sub-cell radius cannot return the whole city.
      if (radius <= cell) {
        EXPECT_LT(out.size(), n / 4) << "query returned most of the grid";
      }
      (void)exact;
    }
  };
  check_queries(40);

  // Fuzzed motion: move a third of the points (update()), re-verify.
  for (std::uint32_t i = 0; i < n; i += 3) {
    pos[i] = Vec2{rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)};
    grid.update(i, pos[i]);
  }
  check_queries(40);
}

// Channel::transmit keeps one grid query (a "reach") per sender for a whole
// refresh epoch. Grid slots are written at the epoch's refresh and, for some
// nodes, again later (position_of()), never after the query; the sender's
// own position is exact at the query. With radius cs + 2 * v_max * refresh
// + 1 m, the reach must contain every node in range of the sender at any
// instant of the epoch, up to and including the next refresh's instant.
TEST(GridIndexProperty, ReachIsSupersetOfExactDiskThroughoutItsEpoch) {
  const Area area{10000.0, 10000.0};
  const double cs = 550.0;
  const double v_max = 20.0;
  const SimTime refresh = milliseconds(250);
  const double radius = cs + 2.0 * v_max * refresh.sec() + 1.0;
  const std::uint32_t n = 5000;
  const int lattice = 6;  // instants per epoch: 0, 50, ..., 250 ms
  const int epochs = 6;

  RandomWaypointConfig rwp;
  rwp.area = area;
  rwp.v_min = 19.0;
  rwp.v_max = v_max;
  std::vector<RandomWaypoint> models;
  models.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) models.emplace_back(rwp, RngStream(11, "mobility", i));
  // pos[e][m][i]: node i at instant m of epoch e (monotone sampling).
  std::vector<std::vector<std::vector<Vec2>>> pos(
      epochs, std::vector<std::vector<Vec2>>(lattice, std::vector<Vec2>(n)));
  for (int e = 0; e < epochs; ++e) {
    for (int m = 0; m < lattice; ++m) {
      const SimTime t = refresh * e + nanoseconds(refresh.ns() * m / (lattice - 1));
      for (std::uint32_t i = 0; i < n; ++i) pos[e][m][i] = models[i].position_at(t);
    }
  }

  GridIndex grid(area, cs);
  for (std::uint32_t i = 0; i < n; ++i) ASSERT_EQ(grid.insert(pos[0][0][i]), i);
  RngStream rng(13, "reach-fuzz");
  std::size_t checked = 0;
  for (int e = 0; e < epochs; ++e) {
    for (std::uint32_t i = 0; i < n; ++i) grid.update(i, pos[e][0][i]);  // the refresh
    for (int q = 0; q < 30; ++q) {
      const auto s = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
      const auto m0 = static_cast<int>(rng.uniform_int(0, lattice - 1));
      // position_of() calls between the refresh and the query.
      for (int u = 0; u < 200; ++u) {
        const auto j = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
        grid.update(j, pos[e][rng.uniform_int(0, m0)][j]);
      }
      grid.update(s, pos[e][m0][s]);
      std::vector<std::uint32_t> reach;
      grid.query(pos[e][m0][s], radius, s, reach);
      EXPECT_TRUE(std::is_sorted(reach.begin(), reach.end()));
      for (int m = 0; m < lattice; ++m) {
        for (std::uint32_t j = 0; j < n; ++j) {
          if (j == s || distance2(pos[e][m][s], pos[e][m][j]) > cs * cs) continue;
          ++checked;
          ASSERT_TRUE(std::binary_search(reach.begin(), reach.end(), j))
              << "node " << j << " in range of " << s << " at instant " << m << " of epoch " << e
              << " is missing from the reach queried at instant " << m0;
        }
      }
    }
  }
  EXPECT_GT(checked, 10000u);
}

// ---------------------------------------------------------------------------
// 2. Manhattan mobility determinism
// ---------------------------------------------------------------------------

TEST(ManhattanDeterminism, PositionsStayOnStreets) {
  ManhattanConfig cfg;
  cfg.area = Area{1000.0, 1000.0};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Manhattan m(cfg, RngStream(seed, "mobility", seed));
    for (int t = 0; t <= 200; ++t) {
      const Vec2 p = m.position_at(seconds_f(0.5 * t));
      ASSERT_GE(p.x, 0.0);
      ASSERT_LE(p.x, cfg.area.width);
      ASSERT_GE(p.y, 0.0);
      ASSERT_LE(p.y, cfg.area.height);
      // On a street: at least one coordinate sits on the block lattice.
      const double dx = std::abs(p.x - std::round(p.x / cfg.block) * cfg.block);
      const double dy = std::abs(p.y - std::round(p.y / cfg.block) * cfg.block);
      ASSERT_LT(std::min(dx, dy), 1e-6)
          << "off-street position (" << p.x << ", " << p.y << ") at t=" << 0.5 * t;
    }
  }
}

TEST(ManhattanDeterminism, PureFunctionOfTimeAcrossSamplingPatterns) {
  // Two models, same seed, sampled on different lattices: positions at the
  // common instants must agree — the property the per-component connectivity
  // labelling and the periodic grid refresh both rely on.
  ManhattanConfig cfg;
  Manhattan dense(cfg, RngStream(11, "mobility", 4));
  Manhattan sparse(cfg, RngStream(11, "mobility", 4));
  std::vector<Vec2> at_tens;
  for (int t = 0; t <= 100; ++t) {
    const Vec2 p = dense.position_at(seconds_f(0.1 * t));
    if (t % 10 == 0) at_tens.push_back(p);
  }
  for (std::size_t k = 0; k < at_tens.size(); ++k) {
    const Vec2 p = sparse.position_at(seconds(static_cast<std::int64_t>(k)));
    EXPECT_DOUBLE_EQ(p.x, at_tens[k].x) << "t=" << k;
    EXPECT_DOUBLE_EQ(p.y, at_tens[k].y) << "t=" << k;
  }
}

// ---------------------------------------------------------------------------
// 3. The urban scenario family
// ---------------------------------------------------------------------------

TEST(UrbanFamily, BuilderWiresTheStreetCanyonModel) {
  const ScenarioConfig cfg = urban_scenario(200).build();
  EXPECT_EQ(cfg.mobility, MobilityKind::kManhattan);
  EXPECT_TRUE(cfg.phy.urban());
  EXPECT_GT(cfg.phy.nlos_loss_rate, 0.0);
  // Constant density: 200 nodes -> 4 km² -> 2 km side.
  EXPECT_DOUBLE_EQ(cfg.area.width, 2000.0);
  EXPECT_DOUBLE_EQ(cfg.area.height, 2000.0);
  // LOS down a street, NLOS across a block.
  EXPECT_TRUE(cfg.phy.line_of_sight({0.0, 0.0}, {200.0, 10.0}));
  EXPECT_FALSE(cfg.phy.line_of_sight({0.0, 0.0}, {200.0, 200.0}));
}

TEST(UrbanFamily, AllProtocolsRunItUnchanged) {
  for (const ProtocolEntry& entry : kProtocols) {
    const ScenarioResult r = Scenario::run_once(
        urban_scenario(30).protocol(entry.name).seed(1).duration(seconds(15)).build());
    EXPECT_GT(r.events, 0u) << entry.name;
    EXPECT_GT(r.data_originated, 0u) << entry.name;
  }
}

TEST(UrbanFamily, ShadowingActuallyBites) {
  // The same city with the canyon model on vs off must diverge — otherwise
  // the "urban" family is silently the open-field family.
  ScenarioBuilder b = urban_scenario(40).protocol(Protocol::kAodv).seed(2).duration(seconds(20));
  const ScenarioResult on = Scenario::run_once(b.build());
  const ScenarioResult off = Scenario::run_once(b.urban(0.0).build());
  EXPECT_NE(model_digest(on), model_digest(off));
  // NLOS pruning can only remove oracle edges.
  EXPECT_LE(on.connectivity, off.connectivity);
}

TEST(UrbanFamily, FaultedRunsReplayIdentically) {
  ScenarioConfig cfg =
      urban_scenario(40).protocol(Protocol::kAodv).seed(5).duration(seconds(20)).build();
  cfg.fault.crash_rate = 1.0;
  cfg.fault.downtime_mean = seconds(4);
  cfg.fault.window_from = seconds(4);
  const ScenarioResult first = Scenario::run_once(cfg);
  const ScenarioResult again = Scenario::run_once(cfg);
  test::expect_same_run(first, again, "faulted urban run not replay-safe");
  EXPECT_GT(first.crashes, 0u) << "fault plan produced no crashes; restart path untested";
}

// ---------------------------------------------------------------------------
// 4. Large-N structural checks
// ---------------------------------------------------------------------------

TEST(ScaleStructural, FiveThousandNodeCityCompletesWithBoundedMemory) {
  // Short horizon (traffic starts at 10 s) — this guards build + hot paths
  // at city scale; the full 10k × 900 s acceptance run lives in fig_scale.
  const ScenarioResult r = Scenario::run_once(
      urban_scenario(5000).protocol(Protocol::kAodv).seed(1).duration(seconds(12)).build());
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.data_originated, 0u);
  const std::uint64_t rss = test::process_peak_rss_bytes();
  EXPECT_GT(rss, 0u);
  // Memory per node stays in the hundreds-of-KB class, not MB — the arena
  // layout holds at city scale. (Process-wide RSS, so this is an upper
  // bound; benchmark/'s urban_city workload gates the precise figure.)
  EXPECT_LT(rss / 5000, 1024u * 1024u) << "more than 1 MiB per node at N=5000";
}

}  // namespace
}  // namespace manet
