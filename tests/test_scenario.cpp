#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "mobility/static_mobility.hpp"
#include "scenario/builder.hpp"
#include "scenario/experiment.hpp"
#include "scenario/fields.hpp"
#include "scenario/sweep.hpp"

namespace manet {
namespace {

ScenarioConfig small_config(Protocol p, std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.seed = seed;
  cfg.num_nodes = 15;
  cfg.area = {700.0, 700.0};
  cfg.v_max = 5.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(30);
  return cfg;
}

TEST(Scenario, ProtocolNames) {
  EXPECT_STREQ(to_string(Protocol::kAodv), "AODV");
  EXPECT_STREQ(to_string(Protocol::kDsr), "DSR");
  EXPECT_STREQ(to_string(Protocol::kCbrp), "CBRP");
  EXPECT_STREQ(to_string(Protocol::kDsdv), "DSDV");
  EXPECT_STREQ(to_string(Protocol::kOlsr), "OLSR");
}

TEST(Scenario, DescribeListsTableOne) {
  const ScenarioConfig cfg;
  const std::string t = describe(cfg);
  for (const char* line : {"traffic = CBR/UDP\n", "area.width = 1000\n", "area.height = 1000\n",
                           "phy.rx_range_m = 250\n", "payload_bytes = 512\n",
                           "mobility = random waypoint\n", "cbr_interval = 0.25s\n",
                           "duration = 150s\n", "mac.ifq_capacity = 50\n"}) {
    EXPECT_NE(t.find(line), std::string::npos) << line << " missing from\n" << t;
  }
}

/// describe()'s lines.
std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

// Each row's accessor reaches its own member, and describe() prints it on
// the row's line: moving one field off its default moves that line alone.
TEST(Scenario, DescribeMovesOnlyTheRowThatChanged) {
  const ScenarioConfig defaults;
  const std::vector<std::string> before = lines(describe(defaults));
  ASSERT_EQ(before.size(), 4 + std::size(kFields));
  for (const Field& f : kFields) {
    ScenarioConfig cfg;
    f.visit(cfg, []<typename T>(T& member) {
      if constexpr (std::is_same_v<T, bool>) {
        member = !member;
      } else if constexpr (std::is_same_v<T, SimTime>) {
        member += seconds(1);
      } else {
        member += 1;
      }
    });
    const std::vector<std::string> after = lines(describe(cfg));
    ASSERT_EQ(after.size(), before.size()) << f.path;
    std::vector<std::string> moved;
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (after[i] != before[i]) moved.push_back(after[i]);
    }
    ASSERT_EQ(moved.size(), 1u) << f.path;
    EXPECT_TRUE(moved[0].starts_with(std::string(f.path) + " = ")) << moved[0];
  }
}

TEST(Scenario, BuildCreatesRequestedNodes) {
  Scenario s(small_config(Protocol::kAodv));
  s.build();
  EXPECT_EQ(s.size(), 15u);
  EXPECT_STREQ(s.routing(0).name(), "AODV");
}

TEST(Scenario, MakeProtocolMatchesEnum) {
  for (const ProtocolEntry& e : kProtocols) {
    Scenario s(small_config(e.id));
    s.build();
    EXPECT_STREQ(s.routing(0).name(), to_string(e.id));
  }
}

TEST(Scenario, RunProducesTraffic) {
  const auto r = Scenario::run_once(small_config(Protocol::kAodv));
  EXPECT_GT(r.data_originated, 0u);
  EXPECT_GT(r.data_delivered, 0u);
  EXPECT_GT(r.events, 1000u);
  EXPECT_GE(r.pdr, 0.0);
  EXPECT_LE(r.pdr, 1.0);
}

TEST(Scenario, SameSeedIsBitReproducible) {
  const auto a = Scenario::run_once(small_config(Protocol::kDsr));
  const auto b = Scenario::run_once(small_config(Protocol::kDsr));
  EXPECT_EQ(a.data_originated, b.data_originated);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
  EXPECT_EQ(a.routing_tx, b.routing_tx);
  EXPECT_EQ(a.mac_ctrl_tx, b.mac_ctrl_tx);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.delay_ms, b.delay_ms);
}

TEST(Scenario, DifferentSeedsDiffer) {
  const auto a = Scenario::run_once(small_config(Protocol::kAodv, 1));
  const auto b = Scenario::run_once(small_config(Protocol::kAodv, 2));
  EXPECT_NE(a.events, b.events);
}

TEST(Scenario, SameSeedSameTrafficAcrossProtocols) {
  // Variance reduction: the workload (packets originated) is identical for
  // every protocol under the same seed — only treatment differs.
  const auto a = Scenario::run_once(small_config(Protocol::kAodv));
  const auto d = Scenario::run_once(small_config(Protocol::kDsdv));
  EXPECT_EQ(a.data_originated, d.data_originated);
}

TEST(Scenario, StaticNodesSupported) {
  auto cfg = small_config(Protocol::kOlsr);
  cfg.static_nodes = true;
  const auto r = Scenario::run_once(cfg);
  EXPECT_GT(r.data_originated, 0u);
}

TEST(Experiment, AggregatesSeeds) {
  const SweepResult r = SweepRunner(/*seeds=*/3, /*threads=*/2)
                            .run({SweepCell{"aodv", small_config(Protocol::kAodv)}});
  const Aggregate& agg = r.cells.front().aggregate;
  EXPECT_EQ(agg.replications, 3);
  EXPECT_GT(agg.pdr.mean, 0.0);
  EXPECT_LE(agg.pdr.mean, 1.0);
  EXPECT_GE(agg.pdr.se, 0.0);
  EXPECT_GT(agg.total_events, 0u);
}

TEST(Scenario, ConnectivityOracleBoundsWellConnectedStaticNet) {
  // A dense static network is fully connected: the oracle reads 1.0 and the
  // (reliable unicast) protocols approach it.
  auto cfg = small_config(Protocol::kAodv);
  cfg.static_nodes = true;
  cfg.num_nodes = 25;
  cfg.area = {400.0, 400.0};  // everyone within ~2 hops
  const auto r = Scenario::run_once(cfg);
  EXPECT_DOUBLE_EQ(r.connectivity, 1.0);
  EXPECT_GT(r.pdr, 0.9);
}

TEST(Scenario, ConnectivityOracleSeesPartitions) {
  // Sparse static network: some flows are physically unreachable; the
  // oracle must report < 1 and PDR cannot exceed it (plus sampling slack).
  auto cfg = small_config(Protocol::kAodv, /*seed=*/3);
  cfg.static_nodes = true;
  cfg.num_nodes = 10;
  cfg.area = {2000.0, 2000.0};  // almost certainly partitioned
  const auto r = Scenario::run_once(cfg);
  EXPECT_LT(r.connectivity, 1.0);
  EXPECT_LE(r.pdr, r.connectivity + 0.05);
}

// The contract holds wherever a config comes from: a field poked after
// build() is checked where the run starts, not only by the builder.
TEST(ScenarioDeathTest, ConfigPokedAfterBuildIsCheckedWhereTheRunStarts) {
  ScenarioConfig cfg = ScenarioBuilder().nodes(15).duration(seconds(30)).build();
  cfg.fault.crash_rate = 1.0;
  cfg.fault.window_from = seconds(40);  // opens after the 30 s run ends
  EXPECT_DEATH((void)Scenario::run_once(cfg), "invalid scenario config:.*fault.window_from");
}

/// Moves a built scenario's nodes before it runs (a static field's nodes to
/// hand-picked spots); empty for none.
using Placement = std::function<void(Scenario&)>;

// The connectivity oracle recomputed independently: a second, identical
// scenario is built (not run), placed like the first, and its mobility
// models are queried at every 1 Hz sample instant in increasing time. At
// each instant the full O(N^2) radio graph (with the street-canyon NLOS
// rule in urban runs) is union-found and every flow is read off it.
// Returns connected/samples as run() does.
struct OracleReplay {
  double connectivity = 1.0;
  std::uint64_t instants = 0;
};

OracleReplay replay_oracle(const ScenarioConfig& cfg, const Scenario& ran,
                           const Placement& place = {}) {
  Scenario twin(cfg);
  twin.build();
  if (place) place(twin);
  EXPECT_EQ(twin.flows(), ran.flows());
  const PhyConfig& phy = cfg.phy;
  const double r2 = phy.rx_range_m * phy.rx_range_m;
  const double nlos_r2 = phy.nlos_rx_range_m * phy.nlos_rx_range_m;
  const std::size_t n = twin.size();

  std::vector<std::size_t> parent(n);
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<Vec2> pos(n);
  OracleReplay out;
  std::uint64_t samples = 0;
  std::uint64_t connected = 0;
  for (SimTime t = cfg.cbr_start; t <= cfg.duration; t += seconds(1)) {
    ++out.instants;
    for (std::size_t i = 0; i < n; ++i) pos[i] = twin.node(i).mobility().position_at(t);
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d2 = distance2(pos[i], pos[j]);
        if (d2 > r2) continue;
        if (phy.urban() && !phy.line_of_sight(pos[i], pos[j]) && d2 > nlos_r2) continue;
        parent[find(i)] = find(j);
      }
    }
    for (const auto& [src, dst] : twin.flows()) {
      ++samples;
      if (find(src) == find(dst)) ++connected;
    }
  }
  if (samples > 0) {
    out.connectivity = static_cast<double>(connected) / static_cast<double>(samples);
  }
  return out;
}

// Runs `cfg`, checks the sampler's result against the brute-force replay,
// and pins its cost at no more than one expansion per node per sample.
double expect_oracle_matches_replay(const ScenarioConfig& cfg, const Placement& place = {}) {
  Scenario s(cfg);
  s.build();
  if (place) place(s);
  const ScenarioResult r = s.run();
  const OracleReplay replay = replay_oracle(cfg, s, place);
  EXPECT_GT(replay.instants, 0u);
  EXPECT_EQ(r.connectivity, replay.connectivity);
  EXPECT_GT(s.connectivity_expansions(), 0u);
  EXPECT_LE(s.connectivity_expansions(), cfg.num_nodes * replay.instants);
  return r.connectivity;
}

TEST(Scenario, ConnectivityOracleMatchesBruteForceInTheCity) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(seed);
    const ScenarioConfig cfg =
        urban_scenario(200).protocol(Protocol::kAodv).seed(seed).duration(seconds(30)).build();
    const double c = expect_oracle_matches_replay(cfg);
    EXPECT_LT(c, 1.0);  // the 200-node city is partitioned
  }
}

TEST(Scenario, ConnectivityOracleMatchesBruteForceInASparseStaticField) {
  auto cfg = small_config(Protocol::kAodv, /*seed=*/3);
  cfg.static_nodes = true;
  cfg.num_nodes = 30;
  cfg.num_connections = 8;
  cfg.area = {2000.0, 2000.0};
  const double c = expect_oracle_matches_replay(cfg);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 1.0);  // some flows are unreachable
}

// The oracle buckets nodes into cells one radio range wide and links each
// cell only to itself and its eight neighbours, so its edges at exactly the
// range are the ones most at risk. Two static chains of links exactly
// rx_range_m long lie on the cells' boundaries, crossing into the E, N, NE
// and NW cells (and so, seen from the other end, W, S, SW and SE), and a gap
// of 250.001 m separates them: a flow is connected iff both its ends are on
// one chain.
TEST(Scenario, ConnectivityOracleKeepsEdgesAtExactlyTheRangeAcrossCellBoundaries) {
  auto cfg = small_config(Protocol::kAodv, /*seed=*/4);
  cfg.static_nodes = true;
  cfg.num_nodes = 9;
  cfg.num_connections = 16;
  cfg.area = {1000.0, 1200.0};
  ASSERT_EQ(cfg.phy.rx_range_m, 250.0);
  const std::vector<Vec2> spots = {
      {0.0, 0.0},         // chain A; 150-200-250 triangles give the diagonals
      {250.0, 0.0},       // E: cell (0,0) -> (1,0)
      {400.0, 200.0},     // within cell (1,0)
      {550.0, 400.0},     // NE: (1,0) -> (2,1)
      {550.0, 650.0},     // N: (2,1) -> (2,2)
      {400.0, 850.0},     // NW: (2,2) -> (1,3)
      {400.0, 1100.001},  // chain B, 250.001 m north of A's end: no edge
      {650.0, 1100.001},  // E: (1,4) -> (2,4)
      {900.0, 1100.001},  // E: (2,4) -> (3,4)
  };
  const Placement place = [&](Scenario& sc) {
    for (std::size_t i = 0; i < spots.size(); ++i) {
      dynamic_cast<StaticMobility&>(sc.node(i).mobility()).set_position(spots[i]);
    }
  };
  const double c = expect_oracle_matches_replay(cfg, place);

  Scenario probe(cfg);
  probe.build();
  std::size_t same_chain = 0;
  for (const auto& [src, dst] : probe.flows()) same_chain += (src < 6) == (dst < 6) ? 1 : 0;
  ASSERT_GT(same_chain, 0u);
  ASSERT_LT(same_chain, probe.flows().size());
  EXPECT_DOUBLE_EQ(c, static_cast<double>(same_chain) / static_cast<double>(probe.flows().size()));
}

TEST(Scenario, ConnectivityOracleMatchesBruteForceWithSharedSources) {
  auto cfg = small_config(Protocol::kDsr, /*seed=*/5);
  cfg.num_nodes = 20;
  cfg.num_connections = 15;
  cfg.area = {1500.0, 1500.0};
  cfg.v_max = 10.0;
  Scenario probe(cfg);
  probe.build();
  std::set<NodeId> sources;
  for (const auto& flow : probe.flows()) sources.insert(flow.first);
  EXPECT_LT(sources.size(), probe.flows().size());  // several flows share a source
  expect_oracle_matches_replay(cfg);
}

}  // namespace
}  // namespace manet
