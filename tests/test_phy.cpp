#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "mobility/static_mobility.hpp"
#include "phy/channel.hpp"
#include "phy/transceiver.hpp"

namespace manet {
namespace {

/// Records everything the PHY reports upward.
class RecordingListener : public PhyListener {
 public:
  void phy_busy_start() override { ++busy_starts; }
  void phy_busy_end() override { ++busy_ends; }
  void phy_rx(const Packet& f) override { frames.push_back(f); }

  int busy_starts = 0;
  int busy_ends = 0;
  std::vector<Packet> frames;
};

/// N static transceivers on a channel, with recording listeners.
struct PhyNet {
  explicit PhyNet(const std::vector<Vec2>& positions, PhyConfig cfg = {}) {
    channel = std::make_unique<Channel>(sim, cfg, Area{3000.0, 3000.0});
    for (std::size_t i = 0; i < positions.size(); ++i) {
      mobs.push_back(std::make_unique<StaticMobility>(positions[i]));
      trx.push_back(std::make_unique<Transceiver>(sim, cfg, static_cast<NodeId>(i)));
      listeners.push_back(std::make_unique<RecordingListener>());
      trx.back()->set_listener(listeners.back().get());
      channel->add(trx.back().get(), mobs.back().get());
    }
    channel->start();
  }

  Packet data_frame(NodeId src, NodeId dst, std::size_t payload = 100) {
    Packet p;
    p.kind = PacketKind::kData;
    p.mac.type = MacFrameType::kData;
    p.mac.src = src;
    p.mac.dst = dst;
    p.payload_bytes = payload;
    return p;
  }

  Simulator sim;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<StaticMobility>> mobs;
  std::vector<std::unique_ptr<Transceiver>> trx;
  std::vector<std::unique_ptr<RecordingListener>> listeners;
};

/// Logs which node reported each PHY edge, in the order they happened.
class OrderLog : public PhyListener {
 public:
  OrderLog(NodeId id, std::vector<NodeId>* starts, std::vector<NodeId>* frames)
      : id_(id), starts_(starts), frames_(frames) {}
  void phy_busy_start() override { starts_->push_back(id_); }
  void phy_busy_end() override {}
  void phy_rx(const Packet& /*frame*/) override { frames_->push_back(id_); }

 private:
  NodeId id_;
  std::vector<NodeId>* starts_;
  std::vector<NodeId>* frames_;
};

TEST(Phy, AirtimeMath) {
  PhyConfig cfg;  // 2 Mbit/s, 192 us preamble
  // 500 bytes = 4000 bits = 2 ms at 2 Mbit/s, plus preamble.
  EXPECT_EQ(cfg.airtime(500), microseconds(192) + milliseconds(2));
}

TEST(Phy, PropagationDelay) {
  PhyConfig cfg;
  EXPECT_EQ(cfg.propagation(300.0), microseconds(1));
  EXPECT_GT(cfg.max_propagation(), SimTime::zero());
}

TEST(Phy, InRangeReceiverGetsFrame) {
  PhyNet net({{0.0, 0.0}, {200.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.sim.run_until(net.sim.now() + seconds(30));
  ASSERT_EQ(net.listeners[1]->frames.size(), 1u);
  EXPECT_EQ(net.listeners[1]->frames[0].mac.src, 0u);
}

TEST(Phy, CarrierOnlyBetweenRxAndCsRange) {
  PhyNet net({{0.0, 0.0}, {400.0, 0.0}});  // 400 m: beyond 250, inside 550
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  EXPECT_EQ(net.listeners[1]->busy_starts, 1);
  EXPECT_EQ(net.listeners[1]->busy_ends, 1);
}

TEST(Phy, BeyondCsRangeHearsNothing) {
  PhyNet net({{0.0, 0.0}, {600.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  EXPECT_EQ(net.listeners[1]->busy_starts, 0);
}

TEST(Phy, SenderSelfBusyDuringTransmit) {
  PhyNet net({{0.0, 0.0}, {200.0, 0.0}});
  EXPECT_FALSE(net.trx[0]->medium_busy());
  net.trx[0]->transmit(net.data_frame(0, 1));
  EXPECT_TRUE(net.trx[0]->medium_busy());
  EXPECT_TRUE(net.trx[0]->transmitting());
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_FALSE(net.trx[0]->medium_busy());
}

TEST(Phy, FrameArrivesAfterPropagationDelay) {
  PhyNet net({{0.0, 0.0}, {240.0, 0.0}});  // 0.8 us propagation, within range
  const SimTime air = net.trx[0]->transmit(net.data_frame(0, 1));
  // The frame completes at air + 0.8 us at the receiver.
  net.sim.run_until(air);
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  net.sim.run_until(air + microseconds(2));
  EXPECT_EQ(net.listeners[1]->frames.size(), 1u);
}

TEST(Phy, OverlappingTransmissionsCollideAtReceiver) {
  // 0 and 2 both in range of 1 but out of range of each other.
  PhyNet net({{0.0, 0.0}, {240.0, 0.0}, {480.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.trx[2]->transmit(net.data_frame(2, 1));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  EXPECT_EQ(net.trx[1]->frames_corrupted(), 2u);
}

TEST(Phy, StaggeredNonOverlappingFramesBothArrive) {
  PhyNet net({{0.0, 0.0}, {240.0, 0.0}, {480.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1, 50));
  const SimTime gap = net.channel->config().airtime(50 + kMacDataHeaderBytes +
                                                    kIpHeaderBytes + kUdpHeaderBytes) +
                      milliseconds(1);
  net.sim.schedule(gap, [&] { net.trx[2]->transmit(net.data_frame(2, 1, 50)); });
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_EQ(net.listeners[1]->frames.size(), 2u);
}

TEST(Phy, HalfDuplexReceiverLosesFrameWhileTransmitting) {
  PhyNet net({{0.0, 0.0}, {200.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1, 200));
  // Node 1 starts its own transmission while 0's frame is in flight.
  net.sim.schedule(microseconds(50), [&] { net.trx[1]->transmit(net.data_frame(1, 0, 10)); });
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  EXPECT_EQ(net.trx[1]->frames_corrupted(), 1u);
  // Node 0 also loses 1's frame: it was transmitting when it started arriving.
  EXPECT_TRUE(net.listeners[0]->frames.empty());
}

TEST(Phy, InterferenceFromCarrierOnlyCorruptsFrame) {
  // 1 receives from 0 (in range); 2 is at 500 m from 1 — carrier only —
  // and transmits concurrently, destroying the frame.
  PhyNet net({{0.0, 0.0}, {240.0, 0.0}, {740.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.trx[2]->transmit(net.data_frame(2, kBroadcast));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
}

TEST(Phy, BroadcastReachesAllInRange) {
  PhyNet net({{0.0, 0.0}, {200.0, 0.0}, {0.0, 200.0}, {2000.0, 2000.0}});
  net.trx[0]->transmit(net.data_frame(0, kBroadcast));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_EQ(net.listeners[1]->frames.size(), 1u);
  EXPECT_EQ(net.listeners[2]->frames.size(), 1u);
  EXPECT_TRUE(net.listeners[3]->frames.empty());
}

TEST(Phy, NeighborsOfUsesExactPositions) {
  PhyNet net({{0.0, 0.0}, {249.0, 0.0}, {251.0, 0.0}});
  const auto nbrs = net.channel->neighbors_of(0, 250.0);
  EXPECT_EQ(nbrs, (std::vector<NodeId>{1}));
}

TEST(Phy, MovingNodeChangesConnectivity) {
  PhyNet net({{0.0, 0.0}, {200.0, 0.0}});
  net.mobs[1]->set_position({1000.0, 1000.0});
  net.sim.run_until(seconds(1));  // allow a refresh
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
}

// Receivers at one distance get their arrivals at one instant. They must
// run in candidate-scan order, the order the channel found them in, which
// is also the order of their intact frames at the shared end instant.
TEST(Phy, EquidistantReceiversRunInCandidateScanOrder) {
  // Ids deliberately not in spatial order around the sender (node 2).
  PhyNet net({{1200.0, 1000.0}, {1000.0, 800.0}, {1000.0, 1000.0}, {800.0, 1000.0},
              {1000.0, 1200.0}});
  std::vector<NodeId> starts;
  std::vector<NodeId> frames;
  std::vector<std::unique_ptr<OrderLog>> logs;
  for (NodeId i = 0; i < 5; ++i) {
    logs.push_back(std::make_unique<OrderLog>(i, &starts, &frames));
    net.trx[i]->set_listener(logs.back().get());
  }
  const std::vector<NodeId> scan = net.channel->neighbors_of(2, 550.0);
  ASSERT_EQ(scan.size(), 4u);
  net.channel->transmit(2, net.data_frame(2, kBroadcast));
  net.sim.run_until(seconds(1));
  EXPECT_EQ(starts, scan);
  EXPECT_EQ(frames, scan);
}

// An arrival runs exactly where its own event would have: after a
// same-instant event scheduled before transmit(), before one scheduled
// after it. Its end sorts the same way against the instant its start ran.
TEST(Phy, ArrivalTiesWithOtherEventsFollowSchedulingOrder) {
  PhyNet net({{0.0, 0.0}, {150.0, 0.0}});
  const PhyConfig& cfg = net.channel->config();
  const Packet frame = net.data_frame(0, 1);
  const SimTime arrive = cfg.propagation(150.0);
  const SimTime end = arrive + cfg.airtime(frame.size_bytes());
  Transceiver& rx = *net.trx[1];
  std::vector<std::string> seen;
  auto probe = [&](const char* name) {
    return [&seen, &rx, name] {
      seen.push_back(std::string(name) + (rx.medium_busy() ? ":busy" : ":idle"));
    };
  };
  net.sim.schedule_at(arrive, probe("arrive-before"));
  net.sim.schedule_at(end, probe("end-before"));
  EXPECT_EQ(net.channel->transmit(0, frame), end - arrive);
  net.sim.schedule_at(arrive, [&] {
    seen.push_back(rx.medium_busy() ? "arrive-after:busy" : "arrive-after:idle");
    // Scheduled after rx_start ran, so after the rx_end it reserved.
    net.sim.schedule_at(end, probe("end-after"));
  });
  net.sim.run_until(seconds(1));
  EXPECT_EQ(seen, (std::vector<std::string>{"arrive-before:idle", "arrive-after:busy",
                                            "end-before:busy", "end-after:idle"}));
  EXPECT_EQ(net.listeners[1]->frames.size(), 1u);
}

// A radio that is down when energy arrives ignores it, and no rx_end runs
// for it even if the radio comes back up before the frame would have ended.
TEST(Phy, ReceiverDownAtArrivalGetsNoEnd) {
  PhyNet net({{0.0, 0.0}, {150.0, 0.0}, {100.0, 0.0}});
  net.trx[1]->set_down(true);
  const SimTime air = net.channel->transmit(0, net.data_frame(0, kBroadcast));
  net.sim.schedule(nanoseconds(air.ns() / 2), [&] { net.trx[1]->set_down(false); });
  net.sim.run_until(seconds(1));
  EXPECT_EQ(net.listeners[1]->busy_starts, 0);
  EXPECT_EQ(net.listeners[1]->busy_ends, 0);
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  EXPECT_FALSE(net.trx[1]->medium_busy());
  // The receiver that was up is unaffected.
  EXPECT_EQ(net.listeners[2]->frames.size(), 1u);
  EXPECT_EQ(net.channel->transmissions_in_flight(), 0u);
}

// Every per-transmission record goes back to the pool once its arrivals
// have run, including transmissions nobody hears.
TEST(Phy, TransmissionRecordsReturnToPoolWhenDrained) {
  Simulator sim;
  PhyConfig cfg;
  Channel channel(sim, cfg, Area{3000.0, 3000.0});
  std::vector<std::unique_ptr<StaticMobility>> mobs;
  std::vector<std::unique_ptr<Transceiver>> trx;
  const std::vector<Vec2> at{{0.0, 0.0}, {200.0, 0.0}, {400.0, 0.0}, {2500.0, 2500.0}};
  for (std::size_t i = 0; i < at.size(); ++i) {
    mobs.push_back(std::make_unique<StaticMobility>(at[i]));
    trx.push_back(std::make_unique<Transceiver>(sim, cfg, static_cast<NodeId>(i)));
    channel.add(trx.back().get(), mobs.back().get());
  }
  Packet frame;
  frame.mac.dst = kBroadcast;
  channel.transmit(0, frame);
  channel.transmit(1, frame);
  channel.transmit(3, frame);  // out of everyone's range: no arrivals at all
  EXPECT_EQ(channel.transmissions_in_flight(), 2u);
  sim.run();
  EXPECT_EQ(channel.transmissions_in_flight(), 0u);
  // Reused records behave like fresh ones.
  channel.transmit(2, frame);
  sim.run();
  EXPECT_EQ(channel.transmissions_in_flight(), 0u);
  EXPECT_EQ(trx[1]->frames_received() + trx[1]->frames_corrupted(), 2u);
}

}  // namespace
}  // namespace manet
