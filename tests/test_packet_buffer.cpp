#include "routing/common.hpp"

#include <gtest/gtest.h>

namespace manet {
namespace {

Packet data_packet(NodeId dst) {
  Packet p;
  p.kind = PacketKind::kData;
  p.ip.dst = dst;
  p.payload_bytes = 512;
  return p;
}

struct PacketBufferTest : ::testing::Test {
  Simulator sim;
  StatsCollector stats;

  /// The drop callback a Node would provide: count data-packet drops only.
  PacketBuffer::DropFn drop_fn() {
    return [this](const Packet& pkt, DropReason r) {
      if (pkt.kind == PacketKind::kData) stats.on_data_dropped(r);
    };
  }
};

TEST_F(PacketBufferTest, PushAndTake) {
  PacketBuffer buf(sim, drop_fn());
  buf.push(data_packet(5), 5);
  buf.push(data_packet(5), 5);
  buf.push(data_packet(6), 6);
  EXPECT_TRUE(buf.has(5));
  EXPECT_EQ(buf.size(), 3u);
  const auto out = buf.take(5);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(buf.has(5));
  EXPECT_TRUE(buf.has(6));
}

TEST_F(PacketBufferTest, TakePreservesOrder) {
  PacketBuffer buf(sim, drop_fn());
  for (std::uint32_t i = 0; i < 3; ++i) {
    Packet p = data_packet(7);
    p.app.seq = i;
    buf.push(std::move(p), 7);
  }
  const auto out = buf.take(7);
  ASSERT_EQ(out.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(out[i].app.seq, i);
}

TEST_F(PacketBufferTest, OverflowEvictsOldestAndCounts) {
  PacketBuffer buf(sim, drop_fn(), /*capacity=*/3);
  for (int i = 0; i < 5; ++i) buf.push(data_packet(1), 1);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(stats.drops(DropReason::kBufferOverflow), 2u);
}

TEST_F(PacketBufferTest, ExpiryCountsTimeout) {
  PacketBuffer buf(sim, drop_fn(), 64, /*lifetime=*/seconds(1));
  buf.push(data_packet(1), 1);
  sim.schedule(seconds(2), [] {});
  sim.run();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(stats.drops(DropReason::kBufferTimeout), 1u);
}

TEST_F(PacketBufferTest, DropAllCountsReason) {
  PacketBuffer buf(sim, drop_fn());
  buf.push(data_packet(1), 1);
  buf.push(data_packet(2), 2);
  buf.drop_all(1, DropReason::kNoRoute);
  EXPECT_EQ(stats.drops(DropReason::kNoRoute), 1u);
  EXPECT_FALSE(buf.has(1));
  EXPECT_TRUE(buf.has(2));
}

// A packet past its lifetime is a timeout whatever empties the buffer. The
// purge event rides at lifetime + 1 ms after the first push (30.001 s), so
// at 35.5 s the packet pushed at 5 s has expired but not yet been swept: a
// discovery that gives up then, or a restart, must still charge it to
// kBufferTimeout, not to its own reason.
TEST_F(PacketBufferTest, DropAllChargesExpiredPacketsAsTimeouts) {
  PacketBuffer buf(sim, drop_fn());
  buf.push(data_packet(1), 1);
  sim.schedule_at(seconds(5), [&] { buf.push(data_packet(1), 1); });
  sim.run_until(milliseconds(35'500));
  EXPECT_EQ(stats.drops(DropReason::kBufferTimeout), 1u);  // the sweep took one
  buf.drop_all(1, DropReason::kNoRoute);
  EXPECT_EQ(stats.drops(DropReason::kBufferTimeout), 2u);
  EXPECT_EQ(stats.drops(DropReason::kNoRoute), 0u);
}

TEST_F(PacketBufferTest, ClearChargesExpiredPacketsAsTimeouts) {
  PacketBuffer buf(sim, drop_fn());
  buf.push(data_packet(1), 1);
  sim.schedule_at(seconds(5), [&] { buf.push(data_packet(2), 2); });
  sim.schedule_at(seconds(20), [&] { buf.push(data_packet(3), 3); });
  sim.run_until(milliseconds(35'500));
  buf.clear(DropReason::kNodeDown);
  EXPECT_EQ(stats.drops(DropReason::kBufferTimeout), 2u);
  EXPECT_EQ(stats.drops(DropReason::kNodeDown), 1u);  // the one pushed at 20 s
}

TEST_F(PacketBufferTest, TakeAndDropAllKeepTheOtherPacketsInOrder) {
  PacketBuffer buf(sim, drop_fn(), /*capacity=*/4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    Packet p = data_packet(i % 2);
    p.app.seq = i;
    buf.push(std::move(p), i % 2);  // 0 and 1 are evicted
  }
  EXPECT_EQ(stats.drops(DropReason::kBufferOverflow), 2u);
  buf.drop_all(0, DropReason::kNoRoute);
  EXPECT_EQ(stats.drops(DropReason::kNoRoute), 2u);
  const auto out = buf.take(1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].app.seq, 3u);
  EXPECT_EQ(out[1].app.seq, 5u);
  EXPECT_EQ(buf.size(), 0u);
}

TEST_F(PacketBufferTest, ControlPacketsNotCountedAsDataDrops) {
  PacketBuffer buf(sim, drop_fn(), 1);
  Packet ctrl;
  ctrl.kind = PacketKind::kRoutingControl;
  buf.push(std::move(ctrl), 1);
  buf.push(data_packet(1), 1);  // evicts the control packet
  EXPECT_EQ(stats.total_drops(), 0u);
}

TEST(BroadcastJitter, WithinTenMilliseconds) {
  RngStream rng(3);
  for (int i = 0; i < 1000; ++i) {
    const SimTime j = broadcast_jitter(rng);
    EXPECT_GE(j, SimTime::zero());
    EXPECT_LE(j, milliseconds(10));
  }
}

}  // namespace
}  // namespace manet
