// FlowMonitor: the per-flow ledger pinned against hand-computed arithmetic
// and cross-checked against the aggregate StatsCollector on every protocol.
//
//   1. Unit fixtures: tx/rx counters, the RFC-3550-style mean-absolute
//      jitter, records sorted by flow id.
//   2. Structure: the table is O(flows) — a flow's record never grows with
//      its packet count.
//   3. Integration: a transport-enabled scenario per protocol, plus a
//      crashed one; the per-flow sums must reconcile exactly with the run's
//      aggregate counters, and transport-off runs must export no flow rows.
//      One transport run per protocol is pinned in the golden table
//      (tests/test_goldens.cpp).

#include "stats/flow_monitor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"
#include "transport/transport.hpp"

namespace manet {
namespace {

// ---------------------------------------------------------------------------
// 1. Hand-computed unit fixtures
// ---------------------------------------------------------------------------

TEST(FlowMonitor, CountersAndDelayJitterArithmetic) {
  FlowMonitor m;
  m.on_tx(7, /*src=*/2, /*dst=*/9, 512);
  m.on_tx(7, 2, 9, 512);
  m.on_tx(7, 2, 9, 512);
  m.on_retransmit(7);

  // One-way delays 10, 14, 12 ms: avg = 12 ms; jitter samples |14-10| = 4
  // and |12-14| = 2, mean 3 ms.
  m.on_rx(7, 512, milliseconds(10));
  m.on_rx(7, 512, milliseconds(14));
  m.on_rx(7, 512, milliseconds(12));

  const FlowRecord* r = m.find(7);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->src, 2u);
  EXPECT_EQ(r->dst, 9u);
  EXPECT_EQ(r->tx_packets, 3u);
  EXPECT_EQ(r->tx_bytes, 3u * 512u);
  EXPECT_EQ(r->rx_packets, 3u);
  EXPECT_EQ(r->rx_bytes, 3u * 512u);
  EXPECT_EQ(r->retransmissions, 1u);
  EXPECT_DOUBLE_EQ(r->avg_delay_ms(), 12.0);
  EXPECT_DOUBLE_EQ(r->mean_jitter_ms(), 3.0);

  // A flow that never saw traffic has no record — and no divide-by-zero.
  EXPECT_EQ(m.find(8), nullptr);
  FlowRecord empty;
  EXPECT_DOUBLE_EQ(empty.avg_delay_ms(), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_jitter_ms(), 0.0);
}

TEST(FlowMonitor, RecordsAreSortedByFlowId) {
  FlowMonitor m;
  m.on_tx(9, 0, 1, 10);
  m.on_originated(2);
  m.on_tx(5, 0, 1, 10);
  std::vector<std::uint32_t> ids;
  for (const auto& [id, f] : m.records()) ids.push_back(id);
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{2, 5, 9}));
}

// ---------------------------------------------------------------------------
// 2. O(flows) structure
// ---------------------------------------------------------------------------

TEST(FlowMonitor, TableSizeIsBoundedByFlowsNotPackets) {
  FlowMonitor m;
  for (int i = 0; i < 100000; ++i) {
    m.on_tx(1, 0, 1, 512);
    m.on_rx(1, 512, milliseconds(10));
    if (i % 3 == 0) m.on_retransmit(1);
  }
  // 100k packets, one record: the monitor keeps counters and running sums,
  // never per-packet history (the FlowRecord itself is a flat value type).
  EXPECT_EQ(m.records().size(), 1u);
  EXPECT_EQ(m.find(1)->tx_packets, 100000u);
  static_assert(sizeof(FlowRecord) < 160, "FlowRecord grew per-packet state?");
}

// ---------------------------------------------------------------------------
// 3. Per-flow vs aggregate cross-check on every protocol
// ---------------------------------------------------------------------------

ScenarioBuilder transport_scenario(const char* protocol) {
  TransportConfig transport;
  transport.enabled = true;
  ScenarioBuilder b;
  b.protocol(protocol)
      .seed(1)
      .nodes(12)
      .area(600.0, 600.0)
      .speed(0.1, 5.0)
      .connections(3)
      .duration(seconds(12));
  return b.transport(transport);
}

/// The ledger's per-flow rows must reconcile exactly with the run's
/// aggregate counters.
void expect_reconciles(const ScenarioResult& r, std::size_t max_flows, const std::string& what) {
  ASSERT_FALSE(r.flows.empty()) << what;
  EXPECT_LE(r.flows.size(), max_flows) << what;  // O(flows): one row per flow

  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t retransmissions = 0;
  for (const auto& [flow, fr] : r.flows) {
    rx_packets += fr.rx_packets;
    rx_bytes += fr.rx_bytes;
    tx_packets += fr.tx_packets;
    retransmissions += fr.retransmissions;
    // Every delivery of a segment implies its first transmission.
    EXPECT_LE(fr.rx_packets, fr.tx_packets) << what << " flow " << flow;
    EXPECT_LE(fr.tx_packets, fr.originated) << what << " flow " << flow;
    EXPECT_EQ(fr.tx_bytes, fr.tx_packets * 512u) << what << " flow " << flow;
    if (fr.rx_packets > 0) {
      EXPECT_GT(fr.avg_delay_ms(), 0.0) << what << " flow " << flow;
    }
  }
  // The reconciliation: the ledger's per-flow deliveries ARE the run's
  // delivered packets (512-byte payloads), its retransmission total IS the
  // run's, and nothing was transmitted that was never offered.
  EXPECT_EQ(rx_packets, r.data_delivered) << what;
  EXPECT_EQ(rx_bytes, r.data_delivered * 512u) << what;
  EXPECT_EQ(retransmissions, r.retransmissions) << what;
  EXPECT_LE(tx_packets, r.data_originated) << what;
}

TEST(FlowMonitorIntegration, PerFlowSumsReconcileWithAggregateStats) {
  for (const ProtocolEntry& entry : kProtocols) {
    expect_reconciles(Scenario::run_once(transport_scenario(entry.name).build()), 3u,
                      entry.name);
  }

  // Under crashes the transport re-delivers (flow, app seq) pairs the sink
  // already counted; the ledger counts rx after the sink's duplicate filter,
  // so the sums still reconcile.
  TransportConfig transport;
  transport.enabled = true;
  ScenarioConfig cfg = ScenarioBuilder()
                          .protocol("CBRP")
                          .seed(2)
                          .nodes(30)
                          .area(1000.0, 1000.0)
                          .speed(0.1, 5.0)
                          .connections(10)
                          .duration(seconds(100))
                          .transport(transport)
                          .build();
  cfg.fault.crash_rate = 1.0;
  cfg.fault.downtime_mean = seconds(20);
  cfg.fault.window_from = seconds(20);
  const ScenarioResult crashed = Scenario::run_once(cfg);
  EXPECT_GT(crashed.crashes, 0u);
  expect_reconciles(crashed, 10u, "CBRP crashed");
}

TEST(FlowMonitorIntegration, TransportOffRunsCarryNoFlowRecords) {
  ScenarioBuilder b = transport_scenario("AODV");
  const ScenarioResult r = Scenario::run_once(b.transport(TransportConfig{}).build());
  EXPECT_TRUE(r.flows.empty());
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_GT(r.data_delivered, 0u);
}

}  // namespace
}  // namespace manet
