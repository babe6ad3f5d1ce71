// Per-run metric collection.
//
// One StatsCollector per simulation run; every layer increments it directly,
// so no trace files are written or post-processed (ns-2 users did this with
// awk over out.tr — we fold the same arithmetic into the run). The four
// canonical metrics of the paper family are derived here:
//
//   PDR  = delivered data packets / originated data packets
//   delay = mean end-to-end latency over delivered data packets
//   NRL  = routing-control transmissions (each hop counts) / delivered
//   NML  = (routing + RTS + CTS + MAC ACK + ARP) transmissions / delivered
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "stats/flow_monitor.hpp"

namespace manet {

/// Why a packet was dropped. Kept fine-grained: the distribution of drop
/// reasons is how one debugs a protocol and explains a PDR curve.
enum class DropReason : std::uint8_t {
  kIfqFull,         ///< interface queue overflow (congestion)
  kMacRetryLimit,   ///< unicast retries exhausted (link break / collision storm)
  kNoRoute,         ///< routing had no route and could not buffer
  kBufferTimeout,   ///< sat in a route-request buffer too long
  kBufferOverflow,  ///< route-request buffer full
  kTtlExpired,      ///< TTL reached zero
  kArpFail,         ///< ARP could not resolve next hop
  kLoop,            ///< routing loop detected (same packet seen again)
  kProtocol,        ///< protocol-specific discard (e.g. stale source route)
  kNodeDown,        ///< held by a node that crashed (fault injection)
  kTransportGiveUp, ///< reliable transport exhausted max_retx and aborted the flow incarnation
  kCount_
};

[[nodiscard]] const char* to_string(DropReason r);

class StatsCollector {
 public:
  // -- data path -----------------------------------------------------------
  // Both also feed the per-flow ledger (flow_monitor()).
  void on_data_originated(std::uint32_t flow = 0);
  /// A unique delivery at the sink. `at` (absolute sim-time of the delivery)
  /// feeds the fault-recovery metrics and the flow's last_rx; the zero
  /// default keeps fault-free call sites unchanged.
  void on_data_delivered(SimTime delay, std::size_t payload_bytes, std::uint32_t hops,
                         std::uint32_t flow = 0, SimTime at = SimTime::zero());
  void on_data_dropped(DropReason r) { ++drops_[static_cast<std::size_t>(r)]; }
  /// A further copy of an already-delivered packet reached the sink (route
  /// flaps, flooding protocols); not counted in PDR.
  void on_duplicate_delivery() { ++duplicate_deliveries_; }

  // -- control path (counted per transmission, i.e. per hop) ---------------
  void on_routing_tx(std::size_t bytes) {
    ++routing_tx_;
    routing_bytes_ += bytes;
  }
  void on_mac_ctrl_tx() { ++mac_ctrl_tx_; }  // RTS / CTS / MAC ACK
  void on_arp_tx() { ++arp_tx_; }
  void on_data_tx() { ++data_tx_; }  // per-hop data transmissions (incl. retries)

  // -- physical layer ------------------------------------------------------
  void on_collision() { ++collisions_; }
  void on_tx_energy(double joules) { energy_tx_j_ += joules; }
  void on_rx_energy(double joules) { energy_rx_j_ += joules; }

  // -- fault injection -------------------------------------------------------
  /// A node crashed (Node::crash()): an outage begins.
  void on_node_crash() {
    ++crashes_;
    ++active_faults_;
  }
  /// A crashed node restarted at `at` (Node::restart()): its outage heals.
  void on_node_restart(SimTime at);

  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
  [[nodiscard]] std::uint64_t delivered_during_fault() const { return delivered_during_fault_; }
  [[nodiscard]] std::uint64_t delivered_after_fault() const { return delivered_after_fault_; }
  /// Mean time from a fault healing to the next successful data delivery —
  /// the observable route-repair latency. 0 if no heal was ever followed by
  /// a delivery.
  [[nodiscard]] double mean_repair_latency_s() const;

  // -- raw counters ---------------------------------------------------------
  [[nodiscard]] std::uint64_t data_originated() const { return data_originated_; }
  [[nodiscard]] std::uint64_t data_delivered() const { return data_delivered_; }
  [[nodiscard]] std::uint64_t data_tx() const { return data_tx_; }
  [[nodiscard]] std::uint64_t routing_tx() const { return routing_tx_; }
  [[nodiscard]] std::uint64_t routing_bytes() const { return routing_bytes_; }
  [[nodiscard]] std::uint64_t mac_ctrl_tx() const { return mac_ctrl_tx_; }
  [[nodiscard]] std::uint64_t arp_tx() const { return arp_tx_; }
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }
  [[nodiscard]] std::uint64_t duplicate_deliveries() const { return duplicate_deliveries_; }
  /// Total application payload bytes over delivered data packets (the
  /// numerator of throughput; equals the ledger's summed rx_bytes).
  [[nodiscard]] std::uint64_t delivered_bytes() const { return delivered_bytes_; }
  [[nodiscard]] double energy_tx_j() const { return energy_tx_j_; }
  [[nodiscard]] double energy_rx_j() const { return energy_rx_j_; }
  /// Radio energy (tx+rx airtime only; idle/sleep not modelled) per
  /// delivered data packet, in millijoules; 0 when nothing was delivered.
  [[nodiscard]] double energy_per_delivered_mj() const {
    if (data_delivered_ == 0) return 0.0;
    return (energy_tx_j_ + energy_rx_j_) * 1e3 / static_cast<double>(data_delivered_);
  }
  [[nodiscard]] std::uint64_t drops(DropReason r) const {
    return drops_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] std::uint64_t total_drops() const;

  // -- derived metrics -------------------------------------------------------
  /// Packet delivery ratio in [0,1]; 1 when nothing was sent.
  [[nodiscard]] double pdr() const;
  /// Mean end-to-end delay of delivered packets, seconds; 0 if none.
  [[nodiscard]] double avg_delay_s() const;
  /// Mean hop count of delivered packets; 0 if none.
  [[nodiscard]] double avg_hops() const;
  /// Normalized routing load (per delivered packet).
  [[nodiscard]] double nrl() const;
  /// Normalized MAC load (per delivered packet).
  [[nodiscard]] double nml() const;
  /// Delivered application throughput in bit/s over `duration`.
  [[nodiscard]] double throughput_bps(SimTime duration) const;

  // -- per-flow ledger -------------------------------------------------------
  /// The run's one per-flow table. The reliable transport adds its
  /// transmissions and retransmissions here.
  [[nodiscard]] FlowMonitor& flow_monitor() { return flow_monitor_; }
  [[nodiscard]] const FlowMonitor& flow_monitor() const { return flow_monitor_; }

  /// Multi-line human-readable summary (examples and debugging).
  [[nodiscard]] std::string summary(SimTime duration) const;

 private:
  std::uint64_t data_originated_ = 0;
  std::uint64_t data_delivered_ = 0;
  std::uint64_t data_tx_ = 0;
  std::uint64_t routing_tx_ = 0;
  std::uint64_t routing_bytes_ = 0;
  std::uint64_t mac_ctrl_tx_ = 0;
  std::uint64_t arp_tx_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t duplicate_deliveries_ = 0;
  double energy_tx_j_ = 0.0;
  double energy_rx_j_ = 0.0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t hops_sum_ = 0;
  double delay_sum_s_ = 0.0;
  std::uint64_t drops_[static_cast<std::size_t>(DropReason::kCount_)] = {};
  FlowMonitor flow_monitor_;

  // Fault accounting.
  std::uint64_t crashes_ = 0;
  std::uint64_t delivered_during_fault_ = 0;
  std::uint64_t delivered_after_fault_ = 0;
  int active_faults_ = 0;
  bool any_heal_ = false;
  /// Heal instants not yet matched with a delivery; drained (one repair-
  /// latency sample each) by the first delivery at or after them.
  std::vector<SimTime> pending_heals_;
  double repair_latency_sum_s_ = 0.0;
  std::uint64_t repair_latency_samples_ = 0;
};

}  // namespace manet
