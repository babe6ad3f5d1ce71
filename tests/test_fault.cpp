// Recovery-invariant suite for the fault-injection subsystem.
//
// Crashes are the only fault kind. Four layers of proof:
//   1. The compiled FaultPlan is a pure function of (config, seed): same
//      seed => byte-identical schedule; events are sorted, crash/restart
//      strictly alternate, and the quiet warm-up window is respected.
//   2. A node's down state is its radio's flag, and the channel reads it: a
//      crashed receiver consumes nothing of the channel.
//   3. A faulted run is deterministic end to end: a repeat run matches in
//      behaviour and cost, with and without the transport, and the same grid
//      writes a byte-identical artifact under 1, 2 and 8 sweep workers. The
//      per-protocol outcomes are pinned in the golden table
//      (tests/test_goldens.cpp).
//   4. The invariants faults must preserve: a crashed node neither sends,
//      forwards nor receives (proved from the event trace against the
//      plan's own down windows); a restarted node comes back with cold
//      routing state; injected crashes strictly lower PDR versus the
//      crash-free control for every protocol.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "routing/aodv/aodv.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

using test::TestNet;
using test::faulted_field;
using test::line_positions;
using test::rich_fault_config;

// ---------------------------------------------------------------------------
// 1. Plan compilation
// ---------------------------------------------------------------------------

TEST(FaultPlan, SameSeedCompilesByteIdenticalSchedule) {
  const FaultConfig f = rich_fault_config();
  const auto a = FaultPlan::compile(f, 14, seconds(25), 42);
  const auto b = FaultPlan::compile(f, 14, seconds(25), 42);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.to_string(), b.to_string());
  const auto c = FaultPlan::compile(f, 14, seconds(25), 43);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(FaultPlan, DisabledConfigCompilesEmpty) {
  const FaultConfig off;
  EXPECT_FALSE(off.enabled());
  const auto plan = FaultPlan::compile(off, 20, seconds(100), 1);
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.to_string().empty());
}

TEST(FaultPlan, EventsSortedAndCrashRestartAlternate) {
  FaultConfig f;
  f.crash_rate = 2.0;
  f.downtime_mean = seconds(4);
  f.window_from = seconds(5);
  const SimTime duration = seconds(60);
  const auto plan = FaultPlan::compile(f, 10, duration, 7);
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
  const auto plan = FaultPlan::compile(f, 8, seconds(120), 3);
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
// 2. The radio's down flag
// ---------------------------------------------------------------------------

/// Sends nothing and records the sequence number of every control frame it
/// hears, so the channel test below drives the radios by hand.
class Listener final : public RoutingProtocol {
 public:
  explicit Listener(Node& n) : RoutingProtocol(n) {}
  void start() override {}
  void route_packet(Packet /*pkt*/) override {}
  void on_control(const Packet& pkt, NodeId /*from*/) override { heard.push_back(pkt.app.seq); }
  void on_node_restart() override {}
  [[nodiscard]] const char* name() const override { return "LISTENER"; }

  std::vector<std::uint32_t> heard;
};

// A crash lives only in the node's radio, and the channel reads it there: a
// receiver crashed through Node::crash() takes no arrival and no loss draw.
// So a third node hears exactly the frames it hears in a twin run where the
// crashed node stands out of range, one loss draw per frame for the third
// node alone.
TEST(FaultInvariant, CrashedReceiverTakesNoArrivalAndNoLossDraw) {
  PhyConfig phy;
  phy.frame_loss_rate = 0.3;
  const auto heard_by_third_node = [&phy](bool crash_middle) {
    const std::vector<Vec2> at{
        {0.0, 50.0}, crash_middle ? Vec2{100.0, 50.0} : Vec2{2400.0, 2400.0}, {200.0, 50.0}};
    TestNet net(at, [](Node& n, std::uint64_t) { return std::make_unique<Listener>(n); },
                /*seed=*/1, phy);
    if (crash_middle) net.node(1).crash();
    for (std::uint32_t seq = 0; seq < 200; ++seq) {
      Packet frame;
      frame.kind = PacketKind::kRoutingControl;
      frame.mac.type = MacFrameType::kData;
      frame.mac.dst = kBroadcast;
      frame.payload_bytes = 100;
      frame.app.seq = seq;
      net.channel().transmit(0, frame);
      EXPECT_EQ(net.node(1).transceiver().ledger_size(), 0u) << "frame " << seq;
      net.run_for(milliseconds(10));
    }
    return dynamic_cast<Listener&>(net.routing(2)).heard;
  };
  const std::vector<std::uint32_t> crashed = heard_by_third_node(true);
  EXPECT_GT(crashed.size(), 100u);
  EXPECT_LT(crashed.size(), 200u);  // non-vacuous: some frames were lost
  EXPECT_EQ(crashed, heard_by_third_node(false));
}

// ---------------------------------------------------------------------------
// 3. Deterministic faulted runs (their pinned outcomes are rows of the golden
//    table, tests/test_goldens.cpp)
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, RepeatFaultedRunIsBitIdentical) {
  const ScenarioConfig cfg = faulted_field(Protocol::kAodv, 9);
  test::expect_same_run(Scenario::run_once(cfg), Scenario::run_once(cfg), "AODV seed 9");
}

// The reliable transport under fire: crashes mid-flow exercise the
// cold-reset + epoch machinery inside a full scenario (RTO timers firing on
// down nodes, aborted incarnations, receivers adopting fresh epochs), and
// the whole thing must still be a pure function of (scenario, seed).
TEST(FaultDeterminism, TransportFaultedRunsReplayIdentically) {
  for (const Protocol p : {Protocol::kAodv, Protocol::kDsdv}) {
    ScenarioConfig cfg = faulted_field(p, 1);
    cfg.transport.enabled = true;
    const ScenarioResult first = Scenario::run_once(cfg);
    // Bit-identical on replay: timers, aborts and epochs are all replayable.
    test::expect_same_run(first, Scenario::run_once(cfg), to_string(p));
    // Non-vacuous: the run really crashed nodes while flows were up, and the
    // transport really retransmitted around the outages.
    EXPECT_GT(first.crashes, 0u) << to_string(p);
    EXPECT_GT(first.retransmissions, 0u) << to_string(p);
    EXPECT_FALSE(first.flows.empty()) << to_string(p);
  }
}

// The artifact carries every run's digest and cost, so byte equality of the
// JSON is the whole determinism claim.
TEST(FaultDeterminism, SweepArtifactIdenticalUnder1And2And8Workers) {
  std::vector<SweepCell> cells;
  for (const Protocol p : {Protocol::kAodv, Protocol::kDsdv}) {
    for (const double crash : {0.0, 1.0}) {
      auto cfg = faulted_field(p, 1);
      cfg.duration = seconds(20);
      cfg.fault.crash_rate = crash;
      char label[48];
      std::snprintf(label, sizeof(label), "%s/crash:%g", to_string(p), crash);
      cells.push_back({label, cfg});
    }
  }
  const std::string one = SweepRunner(/*seeds=*/2, /*threads=*/1).run(cells).to_json();
  EXPECT_EQ(SweepRunner(2, 2).run(cells).to_json(), one);
  EXPECT_EQ(SweepRunner(2, 8).run(cells).to_json(), one);
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
  ScenarioConfig cfg = faulted_field(Protocol::kAodv, 11);
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
