// Recovery-invariant suite for the fault-injection subsystem.
//
// Three layers of proof:
//   1. The compiled FaultPlan is a pure function of (config, seed): same
//      seed => byte-identical schedule; events are sorted, crash/restart
//      strictly alternate, and the quiet warm-up window is respected.
//   2. A faulted run is deterministic end to end: full per-seed metric
//      fingerprints (the test_order_independence pattern) are pinned for
//      every protocol, and the same grid aggregates bit-identically under
//      1, 2 and 8 sweep workers.
//   3. The invariants faults must preserve: a crashed node neither sends,
//      forwards nor receives (proved from the event trace against the
//      plan's own down windows); a restarted node comes back with cold
//      routing state; injected crashes strictly lower PDR versus the
//      crash-free control for every protocol.
//
// Regenerate the fingerprints after an intentional behaviour change:
//   MANET_PRINT_GOLDENS=1 ./build/tests/test_fault
// and paste the printed table over kGoldens below.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "routing/aodv/aodv.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

using test::TestNet;
using test::line_positions;

// ---------------------------------------------------------------------------
// 1. Plan compilation
// ---------------------------------------------------------------------------

FaultConfig rich_fault_config() {
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

TEST(FaultPlan, SameSeedCompilesByteIdenticalSchedule) {
  const FaultConfig f = rich_fault_config();
  const Area area{650.0, 650.0};
  const auto a = FaultPlan::compile(f, 14, area, seconds(25), 42);
  const auto b = FaultPlan::compile(f, 14, area, seconds(25), 42);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.to_string(), b.to_string());
  const auto c = FaultPlan::compile(f, 14, area, seconds(25), 43);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(FaultPlan, DisabledConfigCompilesEmpty) {
  const FaultConfig off;
  EXPECT_FALSE(off.enabled());
  const auto plan = FaultPlan::compile(off, 20, {1000.0, 1000.0}, seconds(100), 1);
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.to_string().empty());
}

TEST(FaultPlan, EventsSortedAndCrashRestartAlternate) {
  FaultConfig f;
  f.crash_rate = 2.0;
  f.downtime_mean = seconds(4);
  f.window_from = seconds(5);
  const SimTime duration = seconds(60);
  const auto plan = FaultPlan::compile(f, 10, {500.0, 500.0}, duration, 7);
  ASSERT_FALSE(plan.empty());

  SimTime prev = SimTime::zero();
  std::vector<int> open(10, 0);
  for (const FaultEvent& ev : plan.events()) {
    EXPECT_GE(ev.at, prev);
    prev = ev.at;
    EXPECT_GE(ev.at, f.window_from);
    EXPECT_LT(ev.at, duration);
    if (ev.kind == FaultEventKind::kCrash) {
      EXPECT_EQ(open[ev.a], 0) << "node " << ev.a << " crashed while already down";
      open[ev.a] = 1;
    } else if (ev.kind == FaultEventKind::kRestart) {
      EXPECT_EQ(open[ev.a], 1) << "node " << ev.a << " restarted while up";
      open[ev.a] = 0;
    }
  }
}

TEST(FaultPlan, DownWindowsAreOrderedAndDisjoint) {
  FaultConfig f;
  f.crash_rate = 3.0;
  f.downtime_mean = seconds(2);
  const auto plan = FaultPlan::compile(f, 8, {500.0, 500.0}, seconds(120), 3);
  for (NodeId id = 0; id < 8; ++id) {
    SimTime prev_end = SimTime::zero();
    for (const auto& [start, end] : plan.down_windows(id)) {
      EXPECT_LT(start, end);
      EXPECT_GE(start, prev_end);
      prev_end = end;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Runtime masks
// ---------------------------------------------------------------------------

TEST(FaultRuntime, CrashAndRestartMaintainDownSet) {
  FaultRuntime rt;
  EXPECT_FALSE(rt.any_node_down());
  rt.apply({seconds(1), FaultEventKind::kCrash, 3});
  EXPECT_TRUE(rt.node_down(3));
  EXPECT_FALSE(rt.node_down(4));
  EXPECT_TRUE(rt.any_node_down());
  rt.apply({seconds(2), FaultEventKind::kRestart, 3});
  EXPECT_FALSE(rt.node_down(3));
  EXPECT_FALSE(rt.any_node_down());
}

TEST(FaultRuntime, LinkBlackoutBlocksBothDirections) {
  FaultRuntime rt;
  const Vec2 p{0.0, 0.0};
  EXPECT_FALSE(rt.link_blocked(1, 2, p, p));
  rt.apply({seconds(1), FaultEventKind::kLinkDown, 2, 1});
  EXPECT_TRUE(rt.link_blocked(1, 2, p, p));
  EXPECT_TRUE(rt.link_blocked(2, 1, p, p));
  EXPECT_FALSE(rt.link_blocked(1, 3, p, p));
  rt.apply({seconds(2), FaultEventKind::kLinkUp, 2, 1});
  EXPECT_FALSE(rt.link_blocked(1, 2, p, p));
}

TEST(FaultRuntime, PartitionBlocksOnlyStraddlingPairs) {
  FaultRuntime rt;
  rt.apply({seconds(1), FaultEventKind::kPartitionStart, 0, 0, /*x=*/500.0});
  const Vec2 west{100.0, 50.0}, east{900.0, 50.0}, east2{600.0, 400.0};
  EXPECT_TRUE(rt.link_blocked(0, 1, west, east));
  EXPECT_TRUE(rt.link_blocked(1, 0, east, west));
  EXPECT_FALSE(rt.link_blocked(1, 2, east, east2));
  rt.apply({seconds(2), FaultEventKind::kPartitionEnd, 0, 0, 500.0});
  EXPECT_FALSE(rt.link_blocked(0, 1, west, east));
}

TEST(FaultRuntime, CorruptWindowSetsAndClearsRate) {
  FaultRuntime rt;
  EXPECT_DOUBLE_EQ(rt.corrupt_rate(), 0.0);
  rt.apply({seconds(1), FaultEventKind::kCorruptStart, 0, 0, 0.25});
  EXPECT_DOUBLE_EQ(rt.corrupt_rate(), 0.25);
  rt.apply({seconds(2), FaultEventKind::kCorruptEnd, 0, 0, 0.0});
  EXPECT_DOUBLE_EQ(rt.corrupt_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// 3. Deterministic faulted runs: per-seed golden fingerprints
// ---------------------------------------------------------------------------

ScenarioConfig faulted_config(Protocol p, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.seed = seed;
  cfg.num_nodes = 14;
  cfg.area = {650.0, 650.0};
  cfg.v_max = 6.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(25);
  cfg.fault = rich_fault_config();
  return cfg;
}

std::string fingerprint(Protocol p, std::uint64_t seed) {
  const auto r = Scenario::run_once(faulted_config(p, seed));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s seed=%llu events=%llu orig=%llu deliv=%llu crashes=%llu corrupt=%llu "
                "during=%llu after=%llu pdr=%.12g repair=%.12g",
                to_string(p), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.data_originated),
                static_cast<unsigned long long>(r.data_delivered),
                static_cast<unsigned long long>(r.crashes),
                static_cast<unsigned long long>(r.fault_corrupted),
                static_cast<unsigned long long>(r.delivered_during_fault),
                static_cast<unsigned long long>(r.delivered_after_fault), r.pdr,
                r.repair_latency_ms);
  return buf;
}

const char* const kGoldens[] = {
    "AODV seed=1 events=6571 orig=155 deliv=103 crashes=14 corrupt=43 during=103 after=0 pdr=0.664516129032 repair=174.691716286",
    "DSR seed=1 events=7182 orig=155 deliv=103 crashes=14 corrupt=45 during=103 after=0 pdr=0.664516129032 repair=163.187730071",
    "CBRP seed=1 events=5467 orig=155 deliv=76 crashes=14 corrupt=43 during=76 after=0 pdr=0.490322580645 repair=185.7412915",
    "DSDV seed=1 events=9373 orig=155 deliv=99 crashes=14 corrupt=66 during=99 after=0 pdr=0.638709677419 repair=221.587281357",
    "OLSR seed=1 events=7979 orig=155 deliv=94 crashes=14 corrupt=38 during=94 after=0 pdr=0.606451612903 repair=210.127528143",
    "LAR seed=1 events=6998 orig=155 deliv=103 crashes=14 corrupt=45 during=103 after=0 pdr=0.664516129032 repair=159.491294643",
    "TORA seed=1 events=9438 orig=155 deliv=102 crashes=14 corrupt=62 during=102 after=0 pdr=0.658064516129 repair=158.838976143",
};

TEST(FaultDeterminism, PerSeedFingerprintsMatchGoldens) {
  static_assert(std::size(kProtocols) == std::size(kGoldens));
  for (std::size_t i = 0; i < std::size(kProtocols); ++i) {
    test::expect_golden(fingerprint(kProtocols[i].id, 1), kGoldens[i],
                        std::string(kProtocols[i].name) + " faulted run");
  }
}

TEST(FaultDeterminism, RepeatFaultedRunIsBitIdentical) {
  EXPECT_EQ(fingerprint(Protocol::kAodv, 9), fingerprint(Protocol::kAodv, 9));
}

// The reliable transport under fire: crashes mid-flow exercise the
// cold-reset + epoch machinery inside a full scenario (RTO timers firing on
// down nodes, aborted incarnations, receivers adopting fresh epochs), and
// the whole thing must still be a pure function of (scenario, seed).
ScenarioConfig transport_faulted_config(Protocol p, std::uint64_t seed) {
  ScenarioConfig cfg = faulted_config(p, seed);
  cfg.transport.enabled = true;
  return cfg;
}

std::string transport_fault_fingerprint(Protocol p, std::uint64_t seed) {
  const auto r = Scenario::run_once(transport_faulted_config(p, seed));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "events=%llu orig=%llu deliv=%llu tretx=%llu flows=%zu crashes=%llu "
                "pdr=%.12g",
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.data_originated),
                static_cast<unsigned long long>(r.data_delivered),
                static_cast<unsigned long long>(r.retransmissions), r.flows.size(),
                static_cast<unsigned long long>(r.crashes), r.pdr);
  return buf;
}

TEST(FaultDeterminism, TransportFaultedRunsDeterministicAndPinned) {
  const struct {
    Protocol protocol;
    const char* golden;
  } kTransportGoldens[] = {
      {Protocol::kAodv,
       "events=11644 orig=155 deliv=103 tretx=7 flows=4 crashes=14 pdr=0.664516129032"},
      {Protocol::kDsdv,
       "events=15352 orig=155 deliv=99 tretx=13 flows=4 crashes=14 pdr=0.638709677419"},
  };
  for (const auto& g : kTransportGoldens) {
    const std::string fp = transport_fault_fingerprint(g.protocol, 1);
    test::expect_golden(fp, g.golden,
                        std::string(to_string(g.protocol)) + " transport faulted run");
    // Bit-identical on replay: timers, aborts and epochs are all replayable.
    EXPECT_EQ(transport_fault_fingerprint(g.protocol, 1), fp) << to_string(g.protocol);
    // Non-vacuous: the run really crashed nodes while flows were up, and the
    // transport really retransmitted around the outages.
    const auto r = Scenario::run_once(transport_faulted_config(g.protocol, 1));
    EXPECT_GT(r.crashes, 0u);
    EXPECT_GT(r.retransmissions, 0u);
    EXPECT_FALSE(r.flows.empty());
  }
}

TEST(FaultDeterminism, SweepAggregatesIdenticalUnder1And2And8Workers) {
  std::vector<SweepCell> cells;
  for (const Protocol p : {Protocol::kAodv, Protocol::kDsdv}) {
    for (const double crash : {0.0, 1.0}) {
      auto cfg = faulted_config(p, 1);
      cfg.duration = seconds(20);
      cfg.fault.crash_rate = crash;
      char label[48];
      std::snprintf(label, sizeof(label), "%s/crash:%g", to_string(p), crash);
      cells.push_back({label, cfg});
    }
  }
  const SweepResult one = SweepRunner(/*seeds=*/2, /*threads=*/1).run(cells);
  const SweepResult two = SweepRunner(2, 2).run(cells);
  const SweepResult eight = SweepRunner(2, 8).run(cells);
  ASSERT_EQ(one.cells.size(), cells.size());
  for (const SweepResult* other : {&two, &eight}) {
    ASSERT_EQ(other->cells.size(), one.cells.size());
    for (std::size_t i = 0; i < one.cells.size(); ++i) {
      EXPECT_EQ(one.cells[i].label, other->cells[i].label);
      EXPECT_EQ(one.cells[i].aggregate.total_events, other->cells[i].aggregate.total_events);
      const Aggregate& a = one.cells[i].aggregate;
      const Aggregate& b = other->cells[i].aggregate;
      a.for_each([&](const char* name, const Metric& ma) {
        b.for_each([&](const char* bname, const Metric& mb) {
          if (std::string_view(name) != bname) return;
          EXPECT_DOUBLE_EQ(ma.mean, mb.mean) << name;
          EXPECT_DOUBLE_EQ(ma.se, mb.se) << name;
        });
      });
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Recovery invariants
// ---------------------------------------------------------------------------

// A crashed node is silent and deaf: the event trace of a faulted run must
// contain no send/forward/receive record for a node strictly inside any of
// its own down windows. The windows come from the compiled plan itself, so
// the test cross-checks two independent code paths (plan compilation vs the
// node/channel gating).
TEST(FaultInvariant, NoTraceActivityFromCrashedNodes) {
  const std::string path = testing::TempDir() + "fault_invariant.tr";
  ScenarioConfig cfg = faulted_config(Protocol::kAodv, 11);
  cfg.trace_path = path;
  Scenario s(cfg);
  const auto r = s.run();
  ASSERT_GT(r.crashes, 0u);

  std::vector<std::vector<std::pair<double, double>>> windows(cfg.num_nodes);
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    for (const auto& [start, end] : s.fault_plan().down_windows(id)) {
      windows[id].emplace_back(start.sec(), end.sec());
    }
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::uint64_t checked = 0;
  while (std::getline(in, line)) {
    char ev = '\0';
    double t = 0.0;
    unsigned node = 0;
    if (std::sscanf(line.c_str(), "%c %lf _%u_", &ev, &t, &node) != 3) continue;
    if (ev != 's' && ev != 'f' && ev != 'r') continue;
    ASSERT_LT(node, cfg.num_nodes) << line;
    ++checked;
    for (const auto& [start, end] : windows[node]) {
      EXPECT_FALSE(t > start && t < end)
          << "node " << node << " was active at " << t << " s inside its down window ["
          << start << ", " << end << "): " << line;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(FaultInvariant, RestartComesBackWithColdRoutingState) {
  TestNet net(line_positions(3), [](Node& n, std::uint64_t seed) {
    return std::make_unique<aodv::Aodv>(n, aodv::Config{}, RngStream(seed, "routing", n.id()));
  });
  net.send_data(0, 2);
  net.run_for(seconds(3));
  auto& aodv0 = dynamic_cast<aodv::Aodv&>(net.routing(0));
  ASSERT_TRUE(aodv0.route_to(2).has_value());
  EXPECT_EQ(net.stats().data_delivered(), 1u);

  net.node(0).crash();
  EXPECT_TRUE(net.node(0).down());
  // Offered while down: counted against PDR, dropped at the node boundary.
  net.send_data(0, 2, 0, 1);
  EXPECT_EQ(net.stats().drops(DropReason::kNodeDown), 1u);

  net.node(0).restart();
  EXPECT_FALSE(net.node(0).down());
  EXPECT_FALSE(aodv0.route_to(2).has_value()) << "routes must not survive a restart";
  EXPECT_FALSE(aodv0.route_to(1).has_value());
  EXPECT_EQ(aodv0.buffered_packets(), 0u);

  // And the cold node can rebuild the route from scratch.
  net.send_data(0, 2, 0, 2);
  net.run_for(seconds(3));
  EXPECT_EQ(net.stats().data_delivered(), 2u);
}

TEST(FaultInvariant, CorruptionWindowCorruptsFramesAndIsCounted) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kAodv;
  cfg.seed = 2;
  cfg.num_nodes = 14;
  cfg.area = {650.0, 650.0};
  cfg.v_max = 6.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(25);
  cfg.fault.corrupt_rate = 0.2;
  const auto r = Scenario::run_once(cfg);
  EXPECT_GT(r.fault_corrupted, 0u);
  EXPECT_EQ(r.crashes, 0u);
}

// The acceptance check of the whole subsystem: against a crash-free control,
// injected crashes measurably lower PDR for every protocol (sources keep
// offering load while down, and forwarding nodes disappear mid-route).
TEST(FaultInvariant, CrashesLowerPdrForEveryProtocol) {
  for (const ProtocolEntry& e : kProtocols) {
    ScenarioConfig cfg;
    cfg.protocol = e.id;
    cfg.seed = 1;
    cfg.num_nodes = 20;
    cfg.area = {800.0, 800.0};
    cfg.v_max = 5.0;
    cfg.num_connections = 5;
    cfg.duration = seconds(60);
    const auto base = Scenario::run_once(cfg);

    cfg.fault.crash_rate = 2.0;
    cfg.fault.downtime_mean = seconds(10);
    cfg.fault.window_from = seconds(10);
    const auto faulted = Scenario::run_once(cfg);

    EXPECT_GT(faulted.crashes, 0u) << e.name;
    EXPECT_LT(faulted.pdr, base.pdr) << e.name << ": crash faults must lower PDR";
    EXPECT_GT(faulted.pdr, 0.0) << e.name << ": the network must still deliver";
  }
}

}  // namespace
}  // namespace manet
