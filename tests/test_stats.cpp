#include "stats/stats.hpp"

#include <gtest/gtest.h>

namespace manet {
namespace {

TEST(Stats, FreshCollectorIsClean) {
  StatsCollector s;
  EXPECT_EQ(s.data_originated(), 0u);
  EXPECT_EQ(s.data_delivered(), 0u);
  EXPECT_DOUBLE_EQ(s.pdr(), 1.0);  // nothing sent -> vacuous success
  EXPECT_DOUBLE_EQ(s.avg_delay_s(), 0.0);
  EXPECT_DOUBLE_EQ(s.nrl(), 0.0);
  EXPECT_DOUBLE_EQ(s.nml(), 0.0);
  EXPECT_EQ(s.total_drops(), 0u);
}

TEST(Stats, Pdr) {
  StatsCollector s;
  for (int i = 0; i < 10; ++i) s.on_data_originated();
  for (int i = 0; i < 7; ++i) s.on_data_delivered(milliseconds(10), 512, 2);
  EXPECT_DOUBLE_EQ(s.pdr(), 0.7);
}

TEST(Stats, AvgDelayAndHops) {
  StatsCollector s;
  s.on_data_delivered(milliseconds(10), 512, 1);
  s.on_data_delivered(milliseconds(30), 512, 3);
  EXPECT_DOUBLE_EQ(s.avg_delay_s(), 0.020);
  EXPECT_DOUBLE_EQ(s.avg_hops(), 2.0);
}

TEST(Stats, NrlCountsPerTransmission) {
  StatsCollector s;
  s.on_data_originated();
  s.on_data_delivered(milliseconds(1), 512, 1);
  for (int i = 0; i < 6; ++i) s.on_routing_tx();
  EXPECT_DOUBLE_EQ(s.nrl(), 6.0);
}

TEST(Stats, NrlFiniteWithZeroDelivered) {
  StatsCollector s;
  s.on_data_originated();
  s.on_routing_tx();
  EXPECT_DOUBLE_EQ(s.nrl(), 1.0);  // normalized by 1
}

TEST(Stats, NmlSumsAllControl) {
  StatsCollector s;
  s.on_data_delivered(milliseconds(1), 512, 1);
  s.on_routing_tx();     // 1
  s.on_mac_ctrl_tx();    // RTS
  s.on_mac_ctrl_tx();    // CTS
  s.on_mac_ctrl_tx();    // ACK
  s.on_arp_tx();         // ARP
  EXPECT_DOUBLE_EQ(s.nml(), 5.0);
}

TEST(Stats, Throughput) {
  StatsCollector s;
  // 100 packets x 512 B over 10 s = 40.96 kbit/s.
  for (int i = 0; i < 100; ++i) s.on_data_delivered(milliseconds(5), 512, 1);
  EXPECT_NEAR(s.throughput_bps(seconds(10)), 40960.0, 1e-6);
  EXPECT_DOUBLE_EQ(s.throughput_bps(SimTime::zero()), 0.0);
}

TEST(Stats, DropAccounting) {
  StatsCollector s;
  s.on_data_dropped(DropReason::kIfqFull);
  s.on_data_dropped(DropReason::kIfqFull);
  s.on_data_dropped(DropReason::kNoRoute);
  EXPECT_EQ(s.drops(DropReason::kIfqFull), 2u);
  EXPECT_EQ(s.drops(DropReason::kNoRoute), 1u);
  EXPECT_EQ(s.drops(DropReason::kTtlExpired), 0u);
  EXPECT_EQ(s.total_drops(), 3u);
}

TEST(Stats, DropReasonNames) {
  for (int i = 0; i < static_cast<int>(DropReason::kCount_); ++i) {
    const char* name = to_string(static_cast<DropReason>(i));
    EXPECT_NE(name, nullptr);
    EXPECT_STRNE(name, "?");
  }
}

TEST(Stats, PerFlowLedgerFedAtOriginAndSink) {
  StatsCollector s;
  s.on_data_originated(1);
  s.on_data_originated(1);
  s.on_data_originated(2);
  s.on_data_delivered(milliseconds(10), 512, 1, 1, seconds(3));
  s.on_data_delivered(milliseconds(30), 512, 2, 2, seconds(4));
  const FlowMonitor& ledger = s.flow_monitor();
  const FlowRecord* f1 = ledger.find(1);
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(f1->originated, 2u);
  EXPECT_EQ(f1->rx_packets, 1u);
  EXPECT_EQ(f1->rx_bytes, 512u);
  EXPECT_DOUBLE_EQ(f1->avg_delay_ms(), 10.0);
  const FlowRecord* f2 = ledger.find(2);
  ASSERT_NE(f2, nullptr);
  EXPECT_EQ(f2->originated, 1u);
  EXPECT_DOUBLE_EQ(f2->avg_delay_ms(), 30.0);
  // Origination and delivery carry no transport transmissions.
  EXPECT_EQ(f2->tx_packets, 0u);
  // Unknown flow: no record.
  EXPECT_EQ(ledger.find(9), nullptr);
  // Records sorted by id, consistent with the global counters.
  ASSERT_EQ(ledger.records().size(), 2u);
  EXPECT_EQ(ledger.records().begin()->first, 1u);
  std::uint64_t sum_orig = 0, sum_del = 0, sum_bytes = 0;
  for (const auto& [id, f] : ledger.records()) {
    sum_orig += f.originated;
    sum_del += f.rx_packets;
    sum_bytes += f.rx_bytes;
  }
  EXPECT_EQ(sum_orig, s.data_originated());
  EXPECT_EQ(sum_del, s.data_delivered());
  EXPECT_EQ(sum_bytes, s.delivered_bytes());
}

}  // namespace
}  // namespace manet
