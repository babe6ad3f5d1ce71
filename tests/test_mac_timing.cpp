// DCF timing conformance: the simulator is deterministic, so end-to-end
// latencies of isolated exchanges can be checked against the 802.11 timing
// budget computed by hand from the same constants.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/simulator.hpp"
#include "mac/wifi_mac.hpp"
#include "mobility/static_mobility.hpp"
#include "phy/channel.hpp"

namespace manet {
namespace {

class TimestampListener : public MacListener {
 public:
  explicit TimestampListener(Simulator& sim) : sim_(sim) {}
  void mac_deliver(const Packet&) override { deliveries.push_back(sim_.now()); }
  void mac_link_failure(const Packet&, NodeId) override { failures.push_back(sim_.now()); }
  std::vector<SimTime> deliveries;
  std::vector<SimTime> failures;

 private:
  Simulator& sim_;
};

struct TimingNet {
  explicit TimingNet(double gap_m, MacConfig cfg = {}) : mac_cfg(cfg) {
    channel = std::make_unique<Channel>(sim, phy, Area{3000.0, 3000.0});
    for (int i = 0; i < 2; ++i) {
      mobs.push_back(std::make_unique<StaticMobility>(Vec2{gap_m * i, 0.0}));
      trx.push_back(std::make_unique<Transceiver>(sim, phy, static_cast<NodeId>(i)));
      macs.push_back(std::make_unique<WifiMac>(sim, mac_cfg, *trx.back(), stats,
                                               RngStream(1, "mac", static_cast<std::uint64_t>(i))));
      listeners.push_back(std::make_unique<TimestampListener>(sim));
      macs.back()->set_listener(listeners.back().get());
      channel->add(trx.back().get(), mobs.back().get());
    }
    channel->start();
  }

  Packet data(std::size_t payload, NodeId dst) {
    Packet p;
    p.kind = PacketKind::kData;
    p.mac.dst = dst;
    p.ip.dst = dst;
    p.payload_bytes = payload;
    return p;
  }

  PhyConfig phy;
  MacConfig mac_cfg;
  Simulator sim;
  StatsCollector stats;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<StaticMobility>> mobs;
  std::vector<std::unique_ptr<Transceiver>> trx;
  std::vector<std::unique_ptr<WifiMac>> macs;
  std::vector<std::unique_ptr<TimestampListener>> listeners;
};

constexpr SimTime kSlack = microseconds(2);  // propagation + rounding headroom

TEST(MacTiming, BroadcastLatencyIsDifsPlusAirtime) {
  TimingNet net(200.0);
  const std::size_t payload = 512;
  Packet p = net.data(payload, kBroadcast);
  const std::size_t frame_bytes = p.size_bytes();
  net.macs[0]->enqueue(std::move(p));
  net.sim.run_until(seconds(1));
  ASSERT_EQ(net.listeners[1]->deliveries.size(), 1u);
  // Idle medium, first frame: no backoff. Delivery at DIFS + airtime + prop.
  const SimTime expected = WifiMac::kDifs + net.phy.airtime(frame_bytes);
  const SimTime got = net.listeners[1]->deliveries[0];
  EXPECT_GE(got, expected);
  EXPECT_LE(got, expected + kSlack);
}

TEST(MacTiming, UnicastLatencyMatchesRtsCtsBudget) {
  TimingNet net(200.0);
  Packet p = net.data(512, 1);
  const std::size_t frame_bytes = p.size_bytes();
  net.macs[0]->enqueue(std::move(p));
  net.sim.run_until(seconds(1));
  ASSERT_EQ(net.listeners[1]->deliveries.size(), 1u);
  // DIFS + RTS + SIFS + CTS + SIFS + DATA (delivery happens at DATA rx end).
  const SimTime expected = WifiMac::kDifs + net.phy.airtime(kMacRtsBytes) +
                           WifiMac::kSifs + net.phy.airtime(kMacCtsBytes) +
                           WifiMac::kSifs + net.phy.airtime(frame_bytes);
  const SimTime got = net.listeners[1]->deliveries[0];
  EXPECT_GE(got, expected);
  EXPECT_LE(got, expected + 2 * kSlack);
}

TEST(MacTiming, NoRtsPathIsFaster) {
  MacConfig no_rts;
  no_rts.use_rts = false;
  TimingNet with_rts(200.0);
  TimingNet without_rts(200.0, no_rts);
  Packet a = with_rts.data(512, 1);
  Packet b = without_rts.data(512, 1);
  with_rts.macs[0]->enqueue(std::move(a));
  without_rts.macs[0]->enqueue(std::move(b));
  with_rts.sim.run_until(seconds(1));
  without_rts.sim.run_until(seconds(1));
  ASSERT_EQ(with_rts.listeners[1]->deliveries.size(), 1u);
  ASSERT_EQ(without_rts.listeners[1]->deliveries.size(), 1u);
  const SimTime saved =
      with_rts.listeners[1]->deliveries[0] - without_rts.listeners[1]->deliveries[0];
  // Savings = RTS + CTS airtime + 2 SIFS (modulo the random post-backoff,
  // absent here since it is the first frame).
  const SimTime expected_saving = with_rts.phy.airtime(kMacRtsBytes) +
                                  with_rts.phy.airtime(kMacCtsBytes) + 2 * WifiMac::kSifs;
  EXPECT_GE(saved, expected_saving - kSlack);
  EXPECT_LE(saved, expected_saving + kSlack);
}

TEST(MacTiming, SecondFrameWaitsForPostBackoff) {
  TimingNet net(200.0);
  net.macs[0]->enqueue(net.data(100, 1));
  net.macs[0]->enqueue(net.data(100, 1));
  net.sim.run_until(seconds(1));
  ASSERT_EQ(net.listeners[1]->deliveries.size(), 2u);
  const SimTime gap = net.listeners[1]->deliveries[1] - net.listeners[1]->deliveries[0];
  // At least ACK turnaround + DIFS; at most plus cw_min slots of backoff.
  const SimTime floor = WifiMac::kSifs + net.phy.airtime(kMacAckBytes) + WifiMac::kDifs;
  const SimTime ceiling = floor +
                          WifiMac::kSlot * static_cast<std::int64_t>(WifiMac::kCwMin) +
                          net.phy.airtime(100 + kMacDataHeaderBytes + kIpHeaderBytes +
                                          kUdpHeaderBytes) +
                          net.phy.airtime(kMacRtsBytes) + net.phy.airtime(kMacCtsBytes) +
                          2 * WifiMac::kSifs + kSlack;
  EXPECT_GE(gap, floor);
  EXPECT_LE(gap, ceiling);
}

TEST(MacTiming, RetryFailureTimeIsBounded) {
  // All 7 RTS attempts with growing backoff: failure must land within the
  // worst-case budget and after the best-case one.
  TimingNet net(200.0);
  net.macs[0]->enqueue(net.data(100, 42));  // absent peer
  net.sim.run_until(seconds(5));
  ASSERT_EQ(net.listeners[0]->failures.size(), 1u);
  const SimTime failed_at = net.listeners[0]->failures[0];
  const SimTime rts_air = net.phy.airtime(kMacRtsBytes);
  const SimTime cts_air = net.phy.airtime(kMacCtsBytes);
  const SimTime per_try_floor = WifiMac::kDifs + rts_air + WifiMac::kSifs + cts_air;
  EXPECT_GE(failed_at, 7 * per_try_floor);
  // Worst case: every backoff draw maxes out (CW doubles 31 -> 1023).
  SimTime worst = SimTime::zero();
  std::uint32_t cw = WifiMac::kCwMin;
  for (int attempt = 0; attempt < 7; ++attempt) {
    worst += per_try_floor + milliseconds(1) /* timeout margin */ +
             WifiMac::kSlot * static_cast<std::int64_t>(cw);
    cw = std::min(cw * 2 + 1, WifiMac::kCwMax);
  }
  EXPECT_LE(failed_at, worst);
}

TEST(MacTiming, DeterministicLatencies) {
  TimingNet a(200.0), b(200.0);
  a.macs[0]->enqueue(a.data(512, 1));
  b.macs[0]->enqueue(b.data(512, 1));
  a.sim.run_until(seconds(1));
  b.sim.run_until(seconds(1));
  ASSERT_EQ(a.listeners[1]->deliveries.size(), 1u);
  ASSERT_EQ(b.listeners[1]->deliveries.size(), 1u);
  EXPECT_EQ(a.listeners[1]->deliveries[0], b.listeners[1]->deliveries[0]);
}

}  // namespace
}  // namespace manet
