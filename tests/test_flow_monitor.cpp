// FlowMonitor: the per-flow ledger pinned against hand-computed arithmetic
// and cross-checked against the aggregate StatsCollector on every protocol.
//
//   1. Unit fixtures: tx/rx counters, the RFC-3550-style mean-absolute
//      jitter, records sorted by flow id.
//   2. Structure: the table is O(flows) — a flow's record never grows with
//      its packet count.
//   3. Integration: a transport-enabled scenario per protocol, plus a
//      crashed one; the per-flow sums must reconcile exactly with the run's
//      aggregate counters, transport-off runs must export no flow rows, and
//      a pinned golden fingerprint per protocol holds transport runs
//      byte-exact.

#include "stats/flow_monitor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"
#include "testutil.hpp"
#include "transport/transport.hpp"

namespace manet {
namespace {

// ---------------------------------------------------------------------------
// 1. Hand-computed unit fixtures
// ---------------------------------------------------------------------------

TEST(FlowMonitor, CountersAndDelayJitterArithmetic) {
  FlowMonitor m;
  m.on_tx(7, /*src=*/2, /*dst=*/9, 512, seconds(1));
  m.on_tx(7, 2, 9, 512, seconds(2));
  m.on_tx(7, 2, 9, 512, seconds(3));
  m.on_retransmit(7);

  // One-way delays 10, 14, 12 ms: avg = 12 ms; jitter samples |14-10| = 4
  // and |12-14| = 2, mean 3 ms.
  m.on_rx(7, 512, milliseconds(10), seconds_f(1.010));
  m.on_rx(7, 512, milliseconds(14), seconds_f(2.014));
  m.on_rx(7, 512, milliseconds(12), seconds_f(3.012));

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
  EXPECT_EQ(r->first_tx, seconds(1));
  EXPECT_EQ(r->last_rx, seconds_f(3.012));

  // A flow that never saw traffic has no record — and no divide-by-zero.
  EXPECT_EQ(m.find(8), nullptr);
  FlowRecord empty;
  EXPECT_DOUBLE_EQ(empty.avg_delay_ms(), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_jitter_ms(), 0.0);
}

TEST(FlowMonitor, RecordsAreSortedByFlowId) {
  FlowMonitor m;
  m.on_tx(9, 0, 1, 10, seconds(1));
  m.on_originated(2);
  m.on_tx(5, 0, 1, 10, seconds(1));
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
    m.on_tx(1, 0, 1, 512, seconds(i));
    m.on_rx(1, 512, milliseconds(10), seconds_f(i + 0.01));
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
      EXPECT_GE(fr.last_rx, fr.first_tx) << what << " flow " << flow;
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
  FaultConfig fault;
  fault.crash_rate = 1.0;
  fault.downtime_mean = seconds(20);
  fault.window_from = seconds(20);
  const ScenarioResult crashed = ScenarioBuilder()
                                     .protocol("CBRP")
                                     .seed(2)
                                     .nodes(30)
                                     .area(1000.0, 1000.0)
                                     .speed(0.1, 5.0)
                                     .connections(10)
                                     .duration(seconds(100))
                                     .transport(transport)
                                     .fault(fault)
                                     .run();
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

TEST(FlowMonitorIntegration, TransportRunsMatchPinnedGoldens) {
  // The transport's cross-node feedback loops (ACKs, RTO timers, closed-loop
  // sources) pinned byte-exact per protocol, so silent behaviour drift in
  // any layer under them fails here.
  const struct {
    const char* protocol;
    const char* golden;
  } kGoldens[] = {
      {"AODV",
       "events=20350 orig=155 deliv=155 rtx=32 mac=1612 tretx=1 flows=4 "
       "pdr=1 delay=24.4912135355 nrl=0.206451612903 hops=1.66451612903 conn=1"},
      {"DSR",
       "events=20037 orig=155 deliv=155 rtx=36 mac=1612 tretx=0 flows=4 "
       "pdr=1 delay=6.65363146452 nrl=0.232258064516 hops=1.66451612903 conn=1"},
      {"CBRP",
       "events=25998 orig=155 deliv=155 rtx=233 mac=1735 tretx=0 flows=4 "
       "pdr=1 delay=6.29110536774 nrl=1.50322580645 hops=1.66451612903 conn=1"},
      {"DSDV",
       "events=26774 orig=155 deliv=155 rtx=464 mac=1622 tretx=0 flows=4 "
       "pdr=1 delay=6.1661884129 nrl=2.9935483871 hops=1.67741935484 conn=1"},
      {"OLSR",
       "events=23238 orig=155 deliv=155 rtx=282 mac=1591 tretx=0 flows=4 "
       "pdr=1 delay=5.99328171613 nrl=1.81935483871 hops=1.66451612903 conn=1"},
      {"LAR",
       "events=25329 orig=155 deliv=155 rtx=114 mac=1759 tretx=1 flows=4 "
       "pdr=1 delay=26.3854300194 nrl=0.735483870968 hops=1.85161290323 conn=1"},
      {"TORA",
       "events=26503 orig=155 deliv=155 rtx=489 mac=1600 tretx=1 flows=4 "
       "pdr=1 delay=25.1729141161 nrl=3.15483870968 hops=1.66451612903 conn=1"},
  };
  TransportConfig transport;
  transport.enabled = true;
  for (const auto& g : kGoldens) {
    const ScenarioResult r = ScenarioBuilder()
                                 .protocol(g.protocol)
                                 .seed(1)
                                 .nodes(14)
                                 .area(650.0, 650.0)
                                 .speed(0.1, 6.0)
                                 .connections(4)
                                 .duration(seconds(25))
                                 .transport(transport)
                                 .run();
    test::expect_golden(test::result_fingerprint(r), g.golden, g.protocol);
    EXPECT_FALSE(r.flows.empty()) << g.protocol;
  }
}

}  // namespace
}  // namespace manet
