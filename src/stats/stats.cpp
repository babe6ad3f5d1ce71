#include "stats/stats.hpp"

namespace manet {

const char* to_string(DropReason r) {
  switch (r) {
    case DropReason::kIfqFull: return "ifq-full";
    case DropReason::kMacRetryLimit: return "mac-retry-limit";
    case DropReason::kNoRoute: return "no-route";
    case DropReason::kBufferTimeout: return "buffer-timeout";
    case DropReason::kBufferOverflow: return "buffer-overflow";
    case DropReason::kTtlExpired: return "ttl-expired";
    case DropReason::kArpFail: return "arp-fail";
    case DropReason::kLoop: return "routing-loop";
    case DropReason::kProtocol: return "protocol-discard";
    case DropReason::kNodeDown: return "node-down";
    case DropReason::kTransportGiveUp: return "transport-give-up";
    case DropReason::kCount_: break;
  }
  return "?";
}

void StatsCollector::on_data_originated(std::uint32_t flow) {
  ++data_originated_;
  flow_monitor_.on_originated(flow);
}

void StatsCollector::on_data_delivered(SimTime delay, std::size_t payload_bytes,
                                       std::uint32_t hops, std::uint32_t flow, SimTime at) {
  ++data_delivered_;
  delay_sum_s_ += delay.sec();
  delivered_bytes_ += payload_bytes;
  hops_sum_ += hops;
  flow_monitor_.on_rx(flow, payload_bytes, delay);

  // Fault-recovery bookkeeping. `at` is zero (and the fault counters idle)
  // unless the scenario armed a fault plan.
  if (active_faults_ > 0) {
    ++delivered_during_fault_;
  } else if (any_heal_) {
    ++delivered_after_fault_;
  }
  if (!pending_heals_.empty()) {
    for (const SimTime heal : pending_heals_) {
      repair_latency_sum_s_ += (at - heal).sec();
      ++repair_latency_samples_;
    }
    pending_heals_.clear();
  }
}

void StatsCollector::on_node_restart(SimTime at) {
  --active_faults_;
  any_heal_ = true;
  pending_heals_.push_back(at);
}

double StatsCollector::mean_repair_latency_s() const {
  if (repair_latency_samples_ == 0) return 0.0;
  return repair_latency_sum_s_ / static_cast<double>(repair_latency_samples_);
}

std::uint64_t StatsCollector::total_drops() const {
  std::uint64_t n = 0;
  for (const auto d : drops_) n += d;
  return n;
}

double StatsCollector::pdr() const {
  if (data_originated_ == 0) return 1.0;
  return static_cast<double>(data_delivered_) / static_cast<double>(data_originated_);
}

double StatsCollector::avg_delay_s() const {
  if (data_delivered_ == 0) return 0.0;
  return delay_sum_s_ / static_cast<double>(data_delivered_);
}

double StatsCollector::avg_hops() const {
  if (data_delivered_ == 0) return 0.0;
  return static_cast<double>(hops_sum_) / static_cast<double>(data_delivered_);
}

double StatsCollector::nrl() const {
  // When nothing was delivered, normalize by 1 to keep the metric finite —
  // a convention also used in the ns-2 scripts of this literature.
  const double denom = data_delivered_ > 0 ? static_cast<double>(data_delivered_) : 1.0;
  return static_cast<double>(routing_tx_) / denom;
}

double StatsCollector::nml() const {
  const double denom = data_delivered_ > 0 ? static_cast<double>(data_delivered_) : 1.0;
  return static_cast<double>(routing_tx_ + mac_ctrl_tx_ + arp_tx_) / denom;
}

double StatsCollector::throughput_bps(SimTime duration) const {
  if (duration <= SimTime::zero()) return 0.0;
  return static_cast<double>(delivered_bytes_) * 8.0 / duration.sec();
}

}  // namespace manet
