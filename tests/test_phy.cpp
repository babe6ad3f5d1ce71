#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "mac/wifi_mac.hpp"
#include "mobility/random_walk.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_mobility.hpp"
#include "phy/channel.hpp"
#include "phy/transceiver.hpp"
#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"

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
  std::vector<NodeId> nbrs;
  net.channel->neighbors_of(0, 250.0, nbrs);
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
  std::vector<NodeId> scan;
  net.channel->neighbors_of(2, 550.0, scan);
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


// A static sender keeps its reach once it has sent twice. A node moved into
// its range must still hear its next frame once a refresh has seen the move:
// the inward counterpart of MovingNodeChangesConnectivity.
TEST(Phy, NodeMovedIntoRangeHearsSenderWithKeptReach) {
  PhyNet net({{0.0, 0.0}, {2000.0, 2000.0}});
  for (int i = 0; i < 3; ++i) {
    net.trx[0]->transmit(net.data_frame(0, kBroadcast));
    net.sim.run_until(net.sim.now() + milliseconds(10));
  }
  EXPECT_EQ(net.listeners[1]->busy_starts, 0);
  net.mobs[1]->set_position({200.0, 0.0});
  net.sim.run_until(seconds(1));  // allow a refresh
  net.trx[0]->transmit(net.data_frame(0, kBroadcast));
  net.sim.run_until(net.sim.now() + seconds(1));
  EXPECT_EQ(net.listeners[1]->frames.size(), 1u);
}

// ---------------------------------------------------------------------------
// Reach oracle: every transmission's arrivals against an O(N) scan
// ---------------------------------------------------------------------------

using Heard = std::vector<std::pair<NodeId, SimTime>>;

/// Logs each busy edge with its node and instant. With one frame on the air
/// at a time, every arrival raises exactly one edge, in event order.
class ArrivalLog : public PhyListener {
 public:
  ArrivalLog(const Simulator& sim, NodeId id, Heard* log) : sim_(sim), id_(id), log_(log) {}
  void phy_busy_start() override { log_->emplace_back(id_, sim_.now()); }
  void phy_busy_end() override {}
  void phy_rx(const Packet& /*frame*/) override {}

 private:
  const Simulator& sim_;
  NodeId id_;
  Heard* log_;
};

/// A channel over caller-owned mobility models whose transmissions are
/// checked against brute force: send() appends what an O(N) scan of exact
/// positions says the frame must reach, ordered by (propagation, id), and
/// the listeners record what it did reach.
struct OracleNet {
  OracleNet(std::vector<MobilityModel*> models, Area area) : mobs(std::move(models)) {
    channel = std::make_unique<Channel>(sim, cfg, area);
    for (std::size_t i = 0; i < mobs.size(); ++i) {
      const auto id = static_cast<NodeId>(i);
      trx.push_back(std::make_unique<Transceiver>(sim, cfg, id));
      logs.push_back(std::make_unique<ArrivalLog>(sim, id, &heard));
      trx.back()->set_listener(logs.back().get());
      channel->add(trx.back().get(), mobs[i]);
    }
    channel->start();
  }

  void send(NodeId s) {
    const Vec2 src = mobs[s]->position_at(sim.now());
    const double cs2 = cfg.cs_range_m * cfg.cs_range_m;
    Heard want;
    for (NodeId j = 0; j < mobs.size(); ++j) {
      const double d2 = distance2(src, mobs[j]->position_at(sim.now()));
      if (j != s && d2 <= cs2) want.emplace_back(j, sim.now() + cfg.propagation(std::sqrt(d2)));
    }
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) { return a.second < b.second; });
    expected.insert(expected.end(), want.begin(), want.end());
    Packet frame;
    frame.mac.dst = kBroadcast;
    channel->transmit(s, frame);
    ++sent;
  }

  Simulator sim;
  PhyConfig cfg;
  std::vector<MobilityModel*> mobs;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<Transceiver>> trx;
  std::vector<std::unique_ptr<ArrivalLog>> logs;
  Heard heard;
  Heard expected;
  int sent = 0;
};

// A mobile field at v_max, where every refresh ends the epoch. Two senders
// share eight transmissions an epoch, so most frames reuse a reach kept
// earlier in the epoch, late in it where the reach is stalest. At every
// refresh instant one frame goes out at the refresh's own time: scheduled at
// set-up for odd refreshes, so it runs before the refresh event, and by an
// event in the previous epoch for even ones, so it runs after. At 400 m/s
// the slack is 201 m, and a reach sized for one moving end only (half the
// slack) misses receivers here. `make(i)` builds node i's model.
template <typename Make>
void check_mobile_field(const Area& area, Make make) {
  std::vector<MobilityPtr> models;
  std::vector<MobilityModel*> mobs;
  for (std::uint64_t i = 0; i < 60; ++i) {
    models.push_back(make(i));
    mobs.push_back(models.back().get());
  }
  OracleNet net(mobs, area);
  const SimTime refresh = milliseconds(250);
  RngStream rng(9, "oracle-senders");
  auto sender = [&rng] { return static_cast<NodeId>(rng.uniform_int(0, 1)); };
  for (int k = 0; k < 60; ++k) {
    const SimTime epoch = refresh * k;
    if (k >= 3 && k % 2 == 1) {
      net.sim.schedule_at(epoch, [&net, s = sender()] { net.send(s); });
    } else if (k >= 2) {
      net.sim.schedule_at(epoch - milliseconds(100), [&net, epoch, s = sender()] {
        net.sim.schedule_at(epoch, [&net, s] { net.send(s); });
      });
    }
    for (const int offset : {15, 45, 75, 105, 135, 165, 195, 225}) {
      const SimTime at = epoch + milliseconds(offset) +
                         microseconds(static_cast<std::int64_t>(rng.uniform(0.0, 10000.0)));
      net.sim.schedule_at(at, [&net, s = sender()] { net.send(s); });
    }
  }
  net.sim.run_until(refresh * 61);
  EXPECT_EQ(net.sent, 60 * 8 + 58);
  ASSERT_GT(net.expected.size(), 2000u);
  ASSERT_EQ(net.heard.size(), net.expected.size());
  for (std::size_t i = 0; i < net.expected.size(); ++i) {
    ASSERT_EQ(net.heard[i], net.expected[i]) << "arrival " << i;
  }
}

void check_waypoint_field(double v_max) {
  RandomWaypointConfig rwp;
  rwp.area = {1500.0, 1500.0};
  rwp.v_min = 0.95 * v_max;
  rwp.v_max = v_max;
  check_mobile_field(rwp.area, [&rwp](std::uint64_t i) -> MobilityPtr {
    return std::make_unique<RandomWaypoint>(rwp, RngStream(5, "mobility", i));
  });
}

TEST(PhyReachOracle, MobileFieldMatchesBruteForceEveryFrame) { check_waypoint_field(20.0); }

TEST(PhyReachOracle, FastMobileFieldMatchesBruteForceEveryFrame) { check_waypoint_field(400.0); }

// Random walk reflects off the walls and turns every 1.1 s, so legs end
// mid-epoch, often after a reflection. (That a leg hands the next one its
// reflected end point, with no jump, is RandomWalkProperty's job.)
TEST(PhyReachOracle, RandomWalkFieldMatchesBruteForceEveryFrame) {
  RandomWalkConfig rw;
  rw.area = {1500.0, 1500.0};
  rw.v_min = 300.0;
  rw.v_max = 400.0;
  rw.step = milliseconds(1100);
  check_mobile_field(rw.area, [&rw](std::uint64_t i) -> MobilityPtr {
    return std::make_unique<RandomWalk>(rw, RngStream(5, "mobility", i));
  });
}

// A static field keeps one epoch until a node is seen at a new position.
// Nodes are teleported into a sender's range and out of everyone's; each
// move is seen either by position_of() (as when the moved node sends) or by
// the next refresh, and the next frame after that must match brute force.
TEST(PhyReachOracle, StaticFieldWithTeleportsMatchesBruteForce) {
  const Area area{1500.0, 1500.0};
  RngStream rng(3, "oracle-static");
  std::vector<std::unique_ptr<StaticMobility>> models;
  std::vector<MobilityModel*> mobs;
  for (int i = 0; i < 30; ++i) {
    models.push_back(std::make_unique<StaticMobility>(
        Vec2{rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)}));
    mobs.push_back(models.back().get());
  }
  OracleNet net(mobs, area);
  const SimTime refresh = milliseconds(250);
  auto send_at = [&net](SimTime at, NodeId s) {
    net.sim.schedule_at(at, [&net, s] { net.send(s); });
    net.sim.run_until(at + milliseconds(10));
  };
  int moves = 0;
  for (int step = 0; step < 200; ++step) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, 5));
    if (step % 5 != 4) {
      send_at(net.sim.now() + milliseconds(rng.uniform_int(5, 60)), s);
      continue;
    }
    // Teleport a node other than the sender: half the time into the
    // sender's decode range, else to a far corner, out of range of all.
    auto x = static_cast<NodeId>(rng.uniform_int(6, 29));
    const Vec2 here = models[s]->position_at(net.sim.now());
    const bool inward = step % 10 == 4;
    const Vec2 to = inward ? area.clamp({here.x + rng.uniform(-150.0, 150.0),
                                         here.y + rng.uniform(-150.0, 150.0)})
                           : Vec2{area.width * 4.0, area.height * 4.0};
    models[x]->set_position(to);
    ++moves;
    if (rng.chance(0.5)) {
      (void)net.channel->position_of(x);
      send_at(net.sim.now(), s);
    } else {
      // The next refresh instant: the refresh was scheduled in the previous
      // epoch, so it runs before this frame.
      const SimTime next = refresh * (net.sim.now().ns() / refresh.ns() + 1);
      send_at(next, s);
    }
  }
  EXPECT_EQ(moves, 40);
  ASSERT_GT(net.expected.size(), 500u);
  ASSERT_EQ(net.heard.size(), net.expected.size());
  for (std::size_t i = 0; i < net.expected.size(); ++i) {
    ASSERT_EQ(net.heard[i], net.expected[i]) << "arrival " << i;
  }
}

// ---------------------------------------------------------------------------
// The energy ledger
// ---------------------------------------------------------------------------

// The set-up of the benchmark's `channel_transmit` cost probe: transceivers
// with no listener, one transmission at a time, the queue drained after
// each. Nothing observes a carrier-only arrival, so none is an event; the
// ledger still holds no more than the arrivals on the air, and nothing once
// the clock has passed them.
TEST(PhyLedger, DrainedLedgerHoldsOnlyArrivalsOnTheAir) {
  Simulator sim;
  PhyConfig cfg;
  Channel channel(sim, cfg, Area{1000.0, 1000.0});
  std::vector<std::unique_ptr<StaticMobility>> mobs;
  std::vector<std::unique_ptr<Transceiver>> trx;
  RngStream rng(4, "ledger-drain");
  for (NodeId i = 0; i < 30; ++i) {
    mobs.push_back(std::make_unique<StaticMobility>(
        Vec2{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)}));
    trx.push_back(std::make_unique<Transceiver>(sim, cfg, i));
    channel.add(trx.back().get(), mobs.back().get());
  }
  Packet frame;
  frame.mac.dst = kBroadcast;
  std::uint64_t heard = 0;
  for (int k = 0; k < 300; ++k) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, 29));
    std::vector<NodeId> reach;
    channel.neighbors_of(s, cfg.cs_range_m, reach);
    channel.transmit(s, frame);
    sim.run();
    std::size_t held = 0;
    for (const auto& t : trx) held += t->ledger_size();
    // Every earlier arrival was dropped when this frame's were appended.
    ASSERT_LE(held, reach.size()) << "frame " << k;
    sim.run_until(sim.now() + milliseconds(5));
    for (const auto& t : trx) {
      t->settle();
      ASSERT_EQ(t->ledger_size(), 0u) << "frame " << k << " node " << t->id();
      ASSERT_FALSE(t->medium_busy());
    }
    heard += reach.size();
  }
  EXPECT_GT(heard, 1000u);
  EXPECT_EQ(channel.transmissions_in_flight(), 0u);
  // Only decodable ends ran as events: far fewer than one per arrival.
  EXPECT_LT(sim.events_executed(), heard);
}

// A MAC that starts contending while a carrier-only arrival is on the air
// sees the medium go idle exactly at that arrival's end, and its first frame
// (no backoff) goes out one DIFS later. So does one that starts contending
// at the end's instant, in an event ordered just before the end or just
// after it.
TEST(PhyLedger, ContentionEnteredMidReceptionStartsDifsAtTheEnd) {
  const PhyConfig phy;
  const MacConfig mac_cfg;
  const Packet frame = [] {
    Packet p;
    p.kind = PacketKind::kData;
    p.mac.type = MacFrameType::kData;
    p.mac.dst = kBroadcast;
    p.payload_bytes = 500;
    return p;
  }();
  const SimTime air = phy.airtime(frame.size_bytes());
  const SimTime end = phy.propagation(400.0) + air;

  struct SentAt final : TransmitObserver {
    explicit SentAt(const Simulator& sim) : sim_(sim) {}
    void on_transmit(NodeId sender, const Packet& /*frame*/) override {
      if (sender == 1) at.push_back(sim_.now());
    }
    const Simulator& sim_;
    std::vector<SimTime> at;
  };

  enum class When { kMidReception, kAtEndBefore, kAtEndAfter };
  for (const When when : {When::kMidReception, When::kAtEndBefore, When::kAtEndAfter}) {
    Simulator sim;
    StatsCollector stats;
    Channel channel(sim, phy, Area{3000.0, 3000.0});
    StaticMobility m0({0.0, 0.0});
    StaticMobility m1({400.0, 0.0});  // carrier only from node 0
    Transceiver t0(sim, phy, 0);
    Transceiver t1(sim, phy, 1);
    WifiMac mac(sim, mac_cfg, t1, stats, RngStream(1, "mac", 1));
    channel.add(&t0, &m0);
    channel.add(&t1, &m1);
    SentAt sent(sim);
    channel.set_observer(&sent);
    std::vector<std::string> seen;
    auto enqueue = [&] {
      Packet p = frame;
      mac.enqueue(std::move(p));
    };
    auto probe = [&](const char* name) {
      seen.push_back(std::string(name) + (t1.medium_busy() ? ":busy" : ":idle"));
      if (!t1.medium_busy()) {
        EXPECT_EQ(t1.idle_since(), end) << name;
      }
    };
    sim.schedule_at(end, [&] {
      probe("before");
      if (when == When::kAtEndBefore) enqueue();
    });
    t0.transmit(frame);
    sim.schedule_at(end, [&] {
      probe("after");
      if (when == When::kAtEndAfter) enqueue();
    });
    if (when == When::kMidReception) sim.schedule_at(end - nanoseconds(air.ns() / 2), enqueue);
    sim.run();
    EXPECT_EQ(seen, (std::vector<std::string>{"before:busy", "after:idle"}));
    ASSERT_EQ(sent.at.size(), 1u) << static_cast<int>(when);
    EXPECT_EQ(sent.at[0], end + WifiMac::kDifs) << static_cast<int>(when);
  }
}

// The ledger against an offline model. Every transmission of a run is
// recorded with every node's position at that instant; afterwards each
// receiver's arrivals, its own transmissions and its radio's down windows
// give, as plain time intervals, which frames must be delivered or lost,
// whether the medium is busy at sampled instants, when it last went idle,
// and the rx energy at the horizon. Steps of two arrivals at one instant
// run in the order their frames were sent: that is the order in which the
// channel reserved their numbers. Such ties are common on the strip: a relay
// that forwards a frame the instant it ends (the MAC contention defect)
// starts its frame at a third node exactly when the first ends there, when
// the three stand in line to within the nanosecond rounding.
struct OracleArrival {
  NodeId from;
  std::size_t tx;  ///< the transmission's index in the log
  SimTime sent;
  SimTime start;
  SimTime end;
  bool decodable;
};

struct Delivery {
  NodeId rx;
  SimTime at;
  NodeId from;
  auto operator<=>(const Delivery&) const = default;
};

/// Forwards to the MAC and logs each intact frame.
class DeliveryTap final : public PhyListener {
 public:
  DeliveryTap(PhyListener& mac, const Simulator& sim, NodeId id, std::vector<Delivery>* log)
      : mac_(mac), sim_(sim), id_(id), log_(log) {}
  void phy_busy_start() override { mac_.phy_busy_start(); }
  void phy_busy_end() override { mac_.phy_busy_end(); }
  void phy_rx(const Packet& f) override {
    log_->push_back({id_, sim_.now(), f.mac.src});
    mac_.phy_rx(f);
  }

 private:
  PhyListener& mac_;
  const Simulator& sim_;
  NodeId id_;
  std::vector<Delivery>* log_;
};

/// Every transmission: the sender's on-air interval, and an arrival at
/// every node within carrier-sense range, from exact positions.
class TransmissionLog final : public TransmitObserver {
 public:
  TransmissionLog(Scenario& sc, const PhyConfig& phy)
      : sc_(sc), phy_(phy), arrivals(sc.size()), sends(sc.size()) {}

  void on_transmit(NodeId sender, const Packet& frame) override {
    const SimTime now = sc_.sim().now();
    const SimTime air = phy_.airtime(frame.size_bytes());
    const std::size_t tx = count_++;
    sends[sender].emplace_back(now, now + air);
    const Vec2 src = sc_.node(sender).mobility().position_at(now);
    for (NodeId j = 0; j < sc_.size(); ++j) {
      const double d2 = distance2(src, sc_.node(j).mobility().position_at(now));
      if (j == sender || d2 > phy_.cs_range_m * phy_.cs_range_m) continue;
      const SimTime start = now + phy_.propagation(std::sqrt(d2));
      arrivals[j].push_back(
          {sender, tx, now, start, start + air, d2 <= phy_.rx_range_m * phy_.rx_range_m});
    }
  }

 private:
  Scenario& sc_;
  PhyConfig phy_;
  std::size_t count_ = 0;

 public:
  std::vector<std::vector<OracleArrival>> arrivals;             ///< per receiver
  std::vector<std::vector<std::pair<SimTime, SimTime>>> sends;  ///< per sender
};

struct Sample {
  NodeId node;
  SimTime at;
  bool busy;
  SimTime idle_since;
};

void check_against_oracle(const ScenarioConfig& cfg) {
  SCOPED_TRACE(std::string(to_string(cfg.protocol)) + " seed " + std::to_string(cfg.seed));
  const ScenarioResult plain = Scenario::run_once(cfg);

  Scenario sc(cfg);
  sc.build();
  TransmissionLog tx(sc, cfg.phy);
  sc.channel().set_observer(&tx);
  std::vector<Delivery> delivered;
  std::vector<std::unique_ptr<DeliveryTap>> taps;
  for (NodeId i = 0; i < sc.size(); ++i) {
    taps.push_back(std::make_unique<DeliveryTap>(sc.node(i).mac(), sc.sim(), i, &delivered));
    sc.node(i).transceiver().set_listener(taps.back().get());
  }
  constexpr int kSamples = 3000;
  std::vector<Sample> samples;
  RngStream rng(cfg.seed, "ledger-oracle-probes");
  for (int k = 0; k < kSamples; ++k) {
    const SimTime at = nanoseconds(rng.uniform_int(1, cfg.duration.ns() - 1));
    const auto node = static_cast<NodeId>(rng.uniform_int(0, cfg.num_nodes - 1));
    sc.sim().schedule_at(at, [&sc, &samples, node] {
      Transceiver& t = sc.node(node).transceiver();
      samples.push_back({node, sc.sim().now(), t.medium_busy(), t.idle_since()});
    });
  }
  const ScenarioResult r = sc.run();

  // Looking at the ledger changes nothing: the probed run is the plain one
  // plus the probes' own events.
  EXPECT_EQ(r.events, plain.events + kSamples);
  EXPECT_EQ(r.data_delivered, plain.data_delivered);
  EXPECT_EQ(r.routing_tx, plain.routing_tx);
  EXPECT_EQ(r.mac_ctrl_tx, plain.mac_ctrl_tx);
  EXPECT_EQ(r.delay_ms, plain.delay_ms);

  // Instants at which the oracle cannot tell what the run's order numbers
  // decide: a transmission, a probe or a crash at the instant of another
  // step. The runs below have none.
  std::size_t ties = 0;
  auto before = [&ties](SimTime a, SimTime b) {
    if (a == b) ++ties;
    return a < b;
  };
  auto down_at = [&](NodeId j, SimTime t) {
    for (const auto& [from, to] : sc.fault_plan().down_windows(j)) {
      if (!before(t, from) && before(t, to)) return true;
    }
    return false;
  };

  std::vector<Delivery> want_rx;
  double want_rx_air_s = 0.0;
  std::uint64_t corrupt_total = 0;
  for (NodeId j = 0; j < sc.size(); ++j) {
    // Nothing radiates from a down sender or reaches a down receiver, and a
    // receiver down at an arrival's start ignores it.
    std::vector<OracleArrival> acc;
    for (const OracleArrival& a : tx.arrivals[j]) {
      if (down_at(a.from, a.sent) || down_at(j, a.sent) || down_at(j, a.start)) continue;
      acc.push_back(a);
    }
    const auto& own = tx.sends[j];
    auto step_before = [](SimTime t, const OracleArrival& x, SimTime u, const OracleArrival& y) {
      return t != u ? t < u : x.tx < y.tx;
    };
    std::sort(acc.begin(), acc.end(), [&](const OracleArrival& x, const OracleArrival& y) {
      return step_before(x.start, x, y.start, y);
    });
    SimTime longest = SimTime::zero();
    for (const OracleArrival& a : acc) longest = std::max(longest, a.end - a.start);
    std::uint64_t want_corrupt = 0;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      const OracleArrival& a = acc[i];
      if (before(cfg.duration, a.end)) continue;
      want_rx_air_s += (a.end - a.start).sec();
      if (!a.decodable) continue;
      // Overlap with another accepted arrival: only neighbours in start
      // order that begin less than the longest airtime apart can.
      bool lost = false;
      for (std::size_t k = i; k-- > 0 && acc[k].start + longest >= a.start;) {
        if (step_before(a.start, a, acc[k].end, acc[k])) lost = true;
      }
      if (i + 1 < acc.size() && step_before(acc[i + 1].start, acc[i + 1], a.end, a)) lost = true;
      // Our own transmissions, in time order: the first that ends after the
      // start must not begin before the end. One that begins inside the
      // end's own event (the MAC's reply to the frame) comes after it.
      const auto first = std::partition_point(
          own.begin(), own.end(), [&](const auto& t) { return !before(a.start, t.second); });
      if (first != own.end() && first->first < a.end) lost = true;
      for (const auto& [from, to] : sc.fault_plan().down_windows(j)) {
        if (before(a.start, from) && before(from, a.end)) lost = true;
      }
      if (lost) {
        ++want_corrupt;
      } else {
        want_rx.push_back({j, a.end, a.from});
      }
    }
    EXPECT_EQ(sc.node(j).transceiver().frames_corrupted(), want_corrupt) << "node " << j;
    corrupt_total += want_corrupt;

    for (const Sample& p : samples) {
      if (p.node != j) continue;
      bool busy = false;
      SimTime idle = SimTime::zero();
      auto span = [&](SimTime from, SimTime to) {
        if (!before(p.at, from) && before(p.at, to)) busy = true;
        if (!before(p.at, to)) idle = std::max(idle, to);
      };
      for (const auto& [t0, t1] : own) span(t0, t1);
      for (const OracleArrival& a : acc) span(a.start, a.end);
      EXPECT_EQ(p.busy, busy) << "node " << j << " at " << p.at.ns();
      if (!busy) {
        EXPECT_EQ(p.idle_since, idle) << "node " << j << " at " << p.at.ns();
      }
    }
  }
  std::sort(delivered.begin(), delivered.end());
  std::sort(want_rx.begin(), want_rx.end());
  EXPECT_EQ(delivered, want_rx);
  EXPECT_NEAR(sc.stats().energy_rx_j(), Transceiver::kRxPowerW * want_rx_air_s,
              1e-9 * sc.stats().energy_rx_j());
  EXPECT_EQ(ties, 0u);
  EXPECT_GT(want_rx.size(), 3000u);
  EXPECT_GT(corrupt_total, 50u);
  const auto busy_samples = std::count_if(samples.begin(), samples.end(),
                                          [](const Sample& p) { return p.busy; });
  EXPECT_GT(busy_samples, kSamples / 20);
  EXPECT_LT(busy_samples, kSamples - kSamples / 20);
}

ScenarioConfig trio_cell(Protocol p, std::uint64_t seed) {
  return ScenarioBuilder()
      .protocol(p)
      .seed(seed)
      .nodes(40)
      .area(1500.0, 300.0)
      .speed(0.1, 20.0)
      .pause(SimTime::zero())
      .connections(10)
      .duration(seconds(30))
      .build();
}

TEST(PhyLedgerOracle, PaperFieldMatchesIntervalModel) {
  for (const Protocol p : {Protocol::kAodv, Protocol::kDsr}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) check_against_oracle(trio_cell(p, seed));
  }
}

TEST(PhyLedgerOracle, CrashesAndRestartsMatchIntervalModel) {
  FaultConfig f;
  f.crash_rate = 1.5;
  f.downtime_mean = seconds(2);
  f.window_from = seconds(5);
  ScenarioConfig cfg = trio_cell(Protocol::kAodv, 1);
  cfg.fault = f;
  check_against_oracle(cfg);
}

}  // namespace
}  // namespace manet
