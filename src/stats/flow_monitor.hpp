// Per-flow accounting in the style of ns-3's FlowMonitor.
//
// The run's one per-flow table. StatsCollector owns it and feeds it at the
// two points every traffic mode passes through: origination and delivery at
// the sink (after the sink's duplicate filter). The reliable transport
// (src/transport) adds each segment's first transmission and every
// retransmission through Node::stats(). A record holds counters and running
// sums only, never per-packet history, so memory is O(flows) regardless of
// how many packets a flow moves.
//
// Jitter follows the RFC 3550 idea reduced to its deterministic core: the
// mean absolute difference between consecutive one-way delays of a flow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "core/time.hpp"
#include "packet/packet.hpp"

namespace manet {

/// Accounting record of one flow. All counters are cumulative over the run.
struct FlowRecord {
  NodeId src = 0;  ///< set by the first transmission (transport runs only)
  NodeId dst = 0;
  std::uint64_t originated = 0;  ///< application packets offered
  std::uint64_t tx_packets = 0;  ///< distinct segments first-transmitted (transport runs)
  std::uint64_t tx_bytes = 0;    ///< payload bytes of those segments
  std::uint64_t rx_packets = 0;  ///< unique packets delivered at the sink
  std::uint64_t rx_bytes = 0;    ///< payload bytes of those deliveries
  std::uint64_t retransmissions = 0;
  double delay_sum_s = 0.0;      ///< sum of end-to-end delays over rx_packets
  double jitter_sum_s = 0.0;     ///< sum of |delay_i - delay_{i-1}|
  std::uint64_t jitter_samples = 0;

  [[nodiscard]] double avg_delay_ms() const {
    return rx_packets == 0 ? 0.0 : delay_sum_s * 1e3 / static_cast<double>(rx_packets);
  }
  [[nodiscard]] double mean_jitter_ms() const {
    return jitter_samples == 0 ? 0.0
                               : jitter_sum_s * 1e3 / static_cast<double>(jitter_samples);
  }

 private:
  friend class FlowMonitor;
  double last_delay_s_ = 0.0;
  bool has_last_delay_ = false;
};

class FlowMonitor {
 public:
  /// The application offered one packet to the flow.
  void on_originated(std::uint32_t flow) { ++records_[flow].originated; }
  /// A segment's first transmission (retransmissions go to on_retransmit).
  void on_tx(std::uint32_t flow, NodeId src, NodeId dst, std::size_t payload_bytes);
  void on_retransmit(std::uint32_t flow) { ++records_[flow].retransmissions; }
  /// A unique delivery at the sink; `delay` is end-to-end (original send to
  /// delivery, retransmission latency included).
  void on_rx(std::uint32_t flow, std::size_t payload_bytes, SimTime delay);

  /// Record for `flow`, or nullptr if the flow never saw traffic.
  [[nodiscard]] const FlowRecord* find(std::uint32_t flow) const;
  /// Every record, keyed and sorted by flow id.
  [[nodiscard]] const std::map<std::uint32_t, FlowRecord>& records() const { return records_; }

  [[nodiscard]] std::uint64_t total_retransmissions() const;

 private:
  std::map<std::uint32_t, FlowRecord> records_;
};

}  // namespace manet
