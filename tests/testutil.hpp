// Shared test fixtures: deterministic static-topology networks, the
// golden-fingerprint helpers and the peak-RSS probe of the memory bounds.
//
// TestNet builds a complete stack (channel, nodes at fixed positions, a
// chosen routing protocol) so protocol tests can assert on delivery, route
// shape, and control traffic over hand-crafted topologies (lines, grids,
// stars) instead of random scenarios.
//
// result_fingerprint() + expect_golden() are the one shared vocabulary for
// the pinned byte-exact determinism suites (test_flow_monitor, test_scale,
// test_fault): every observable a run produces rendered as one exact-match
// string, and one regeneration protocol (MANET_PRINT_GOLDENS=1) for all of
// them.
#pragma once

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulator.hpp"
#include "mobility/mobility_pool.hpp"
#include "mobility/static_mobility.hpp"
#include "net/node.hpp"
#include "phy/channel.hpp"
#include "scenario/scenario.hpp"
#include "stats/stats.hpp"

namespace manet::test {

/// True when the run should print fresh golden literals instead of asserting
/// (deliberate model changes: MANET_PRINT_GOLDENS=1 ./test_x, then paste).
inline bool print_goldens() { return std::getenv("MANET_PRINT_GOLDENS") != nullptr; }

/// Byte-compare `got` against a pinned golden literal; under
/// MANET_PRINT_GOLDENS, print the fresh literal (tagged with `context` so it
/// can be pasted back into the right table row) and skip the assertion.
inline void expect_golden(const std::string& got, std::string_view golden,
                          const std::string& context) {
  if (print_goldens()) {
    std::printf("\"%s\",  // %s\n", got.c_str(), context.c_str());
    return;
  }
  EXPECT_EQ(got, std::string(golden))
      << context << " (deliberate change? MANET_PRINT_GOLDENS=1 prints fresh literals)";
}

/// Everything observable a run produces, as one exact-match string — the
/// shared fingerprint of the transport, urban, and fault determinism
/// suites. Includes the transport counters; transport-off runs render them
/// as tretx=0 flows=0, so pre-transport fingerprints extend, not fork.
inline std::string result_fingerprint(const ScenarioResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "events=%llu orig=%llu deliv=%llu rtx=%llu mac=%llu tretx=%llu flows=%zu "
                "pdr=%.12g delay=%.12g nrl=%.12g hops=%.12g conn=%.12g",
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.data_originated),
                static_cast<unsigned long long>(r.data_delivered),
                static_cast<unsigned long long>(r.routing_tx),
                static_cast<unsigned long long>(r.mac_ctrl_tx),
                static_cast<unsigned long long>(r.retransmissions), r.flows.size(), r.pdr,
                r.delay_ms, r.nrl, r.avg_hops, r.connectivity);
  return buf;
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
