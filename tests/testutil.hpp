// Shared test fixtures: deterministic static-topology networks, the
// 14-node field and fault mix the golden table and the fault suite share,
// the replay comparison, the peak-RSS probe of the memory bounds, field
// table lookup by path, and the field-by-field printing of a ScenarioConfig
// in failed comparisons.
//
// TestNet builds a complete stack (channel, nodes at fixed positions, a
// chosen routing protocol) so protocol tests can assert on delivery, route
// shape, and control traffic over hand-crafted topologies (lines, grids,
// stars) instead of random scenarios.
//
// A run's outcome splits into behaviour and cost. Behaviour is
// model_digest() (src/scenario/scenario.hpp): what the model did, bit for
// bit. Cost is the kernel's work: events executed and peak queue depth.
// Every pinned run lives in one table, tests/test_goldens.cpp, with one
// column for each; expect_same_run() compares two runs on both.
#pragma once

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulator.hpp"
#include "mobility/mobility_pool.hpp"
#include "mobility/static_mobility.hpp"
#include "net/node.hpp"
#include "phy/channel.hpp"
#include "scenario/fields.hpp"
#include "scenario/scenario.hpp"
#include "stats/stats.hpp"

namespace manet {

/// gtest prints a ScenarioConfig as describe()'s lines, so a failing
/// EXPECT_EQ of two configs shows the field that differs.
inline void PrintTo(const ScenarioConfig& cfg, std::ostream* os) { *os << '\n' << describe(cfg); }

}  // namespace manet

namespace manet::test {

/// The field table row of member path `path`; nullptr when no row has it.
inline const Field* find_field(std::string_view path) {
  const auto row = std::ranges::find_if(kFields, [&](const Field& f) { return path == f.path; });
  return row != std::end(kFields) ? row : nullptr;
}

/// Two runs of one config must agree on behaviour and on cost: any
/// difference means hidden global state (a static RNG, a leaked cache) or a
/// thread-count dependence.
inline void expect_same_run(const ScenarioResult& a, const ScenarioResult& b,
                            const std::string& context) {
  EXPECT_EQ(model_digest(a), model_digest(b)) << context;
  EXPECT_EQ(a.events, b.events) << context;
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth) << context;
}

/// The dense 14-node field most pinned runs use: 650 m x 650 m, 6 m/s,
/// 4 CBR flows, 25 s.
inline ScenarioConfig dense_field(Protocol p, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.seed = seed;
  cfg.num_nodes = 14;
  cfg.area = {650.0, 650.0};
  cfg.v_max = 6.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(25);
  return cfg;
}

/// Every fault kind at once: crashes, link blackouts, a corruption window
/// and a partition, all after a 5 s quiet warm-up.
inline FaultConfig rich_fault_config() {
  FaultConfig f;
  f.crash_rate = 1.0;
  f.downtime_mean = seconds(5);
  f.link_blackouts = 2;
  f.blackout_mean = seconds(3);
  f.corrupt_rate = 0.05;
  f.corrupt_from = seconds(8);
  f.corrupt_until = seconds(16);
  f.partition = true;
  f.partition_from = seconds(10);
  f.partition_until = seconds(15);
  f.window_from = seconds(5);
  return f;
}

/// dense_field() under rich_fault_config().
inline ScenarioConfig faulted_field(Protocol p, std::uint64_t seed) {
  ScenarioConfig cfg = dense_field(p, seed);
  cfg.fault = rich_fault_config();
  return cfg;
}

/// Process-wide peak resident set size in bytes (0 if getrusage fails).
inline std::uint64_t process_peak_rss_bytes() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
}

class TestNet {
 public:
  using ProtocolFactory =
      std::function<std::unique_ptr<RoutingProtocol>(Node&, std::uint64_t seed)>;

  /// Nodes at `positions`; node i gets id i. The default radio (250 m rx,
  /// 550 m cs) applies unless `phy` is customized before construction.
  TestNet(std::vector<Vec2> positions, const ProtocolFactory& factory,
          std::uint64_t seed = 1, PhyConfig phy = {}, MacConfig mac = {},
          Area area = {2500.0, 2500.0}) {
    channel_ = std::make_unique<Channel>(sim_, phy, area);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      StaticMobility* mob = pool_.make<StaticMobility>(positions[i]);
      mobilities_.push_back(mob);
      nodes_.push_back(std::make_unique<Node>(sim_, stats_, *channel_,
                                              static_cast<NodeId>(i), mob, mac, seed));
    }
    for (auto& n : nodes_) {
      protocols_.push_back(factory(*n, seed));
      n->set_routing(protocols_.back().get());
    }
    channel_->start();
    for (auto& p : protocols_) p->start();
  }

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] StatsCollector& stats() { return stats_; }
  [[nodiscard]] Channel& channel() { return *channel_; }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] RoutingProtocol& routing(std::size_t i) { return *protocols_[i]; }
  [[nodiscard]] StaticMobility& mobility(std::size_t i) { return *mobilities_[i]; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Advance simulated time by `dt`.
  void run_for(SimTime dt) { sim_.run_until(sim_.now() + dt); }

  /// Originate one data packet at `src` towards `dst`.
  void send_data(NodeId src, NodeId dst, std::uint32_t flow = 0, std::uint32_t seq = 0) {
    Packet pkt;
    pkt.ip.dst = dst;
    pkt.payload_bytes = 512;
    pkt.app = AppHeader{.flow = flow, .seq = seq, .sent_at = sim_.now()};
    node(src).originate(std::move(pkt));
  }

 private:
  Simulator sim_;
  StatsCollector stats_;
  MobilityPool pool_;  ///< before channel_/nodes_: they point into it
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<RoutingProtocol>> protocols_;
  std::vector<StaticMobility*> mobilities_;
};

/// Positions for a line of `n` nodes spaced `gap` metres apart.
inline std::vector<Vec2> line_positions(std::size_t n, double gap = 200.0) {
  std::vector<Vec2> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back({gap * static_cast<double>(i), 50.0});
  return out;
}

/// Positions for an r x c grid with `gap` spacing.
inline std::vector<Vec2> grid_positions(std::size_t rows, std::size_t cols, double gap = 200.0) {
  std::vector<Vec2> out;
  out.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out.push_back({gap * static_cast<double>(c), gap * static_cast<double>(r)});
    }
  }
  return out;
}

}  // namespace manet::test
