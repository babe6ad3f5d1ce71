#include "stats/flow_monitor.hpp"

namespace manet {

void FlowMonitor::on_tx(std::uint32_t flow, NodeId src, NodeId dst, std::size_t payload_bytes) {
  FlowRecord& f = records_[flow];
  if (f.tx_packets == 0) {
    f.src = src;
    f.dst = dst;
  }
  ++f.tx_packets;
  f.tx_bytes += payload_bytes;
}

void FlowMonitor::on_rx(std::uint32_t flow, std::size_t payload_bytes, SimTime delay) {
  FlowRecord& f = records_[flow];
  ++f.rx_packets;
  f.rx_bytes += payload_bytes;
  const double d = delay.sec();
  f.delay_sum_s += d;
  if (f.has_last_delay_) {
    f.jitter_sum_s += d >= f.last_delay_s_ ? d - f.last_delay_s_ : f.last_delay_s_ - d;
    ++f.jitter_samples;
  }
  f.last_delay_s_ = d;
  f.has_last_delay_ = true;
}

const FlowRecord* FlowMonitor::find(std::uint32_t flow) const {
  const auto it = records_.find(flow);
  return it == records_.end() ? nullptr : &it->second;
}

std::uint64_t FlowMonitor::total_retransmissions() const {
  std::uint64_t n = 0;
  for (const auto& [id, f] : records_) n += f.retransmissions;
  return n;
}

}  // namespace manet
