// Isolated layer drivers for the work the seam taps cannot see.
//
// Each driver times one layer alone at the workload's own shape (node
// count, area, PhyConfig, queue depth), built from public constructors or
// taken from the workload's built Scenario. Their per-call costs, multiplied by the traced run's call
// counts, estimate part of the residual host time outside the spans.
#pragma once

#include <cstddef>
#include <cstdint>

#include "scenario/scenario.hpp"

namespace manet::benchmark {

/// Nanoseconds per hold operation (pop the earliest event, schedule one
/// more) on an EventQueue kept at `depth` live events.
[[nodiscard]] double event_queue_hold_ns(std::size_t depth, std::uint64_t seed);

struct TransmitCost {
  double ns_per_tx = 0;      ///< Channel::transmit plus draining its arrivals
  double events_per_tx = 0;  ///< kernel events those arrivals cost
};

/// Channel::transmit over `cfg.num_nodes` static transceivers placed where
/// the workload's built Scenario starts its nodes, with the workload's area
/// and PhyConfig and no MAC above.
[[nodiscard]] TransmitCost channel_transmit(const ScenarioConfig& cfg);

/// Nanoseconds per MobilityModel::position_at over the mobility models of
/// the workload's built Scenario, queried at the channel's 250 ms refresh
/// cadence.
[[nodiscard]] double mobility_position_ns(const ScenarioConfig& cfg);

}  // namespace manet::benchmark
