// The shared wireless channel.
//
// Connects all transceivers. On each transmission it finds the nodes within
// carrier-sense range of the transmitter (grid spatial index + exact
// distance check), computes per-receiver propagation delays, and schedules
// energy/frame arrivals at each. Node positions come from the mobility
// models; the grid is refreshed periodically and queried with a slack margin
// of 2 · v_max · refresh-interval so candidates are never missed between
// refreshes.
#pragma once

#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "fault/fault.hpp"
#include "geom/grid_index.hpp"
#include "mobility/mobility_model.hpp"
#include "phy/phy_config.hpp"
#include "phy/transceiver.hpp"
#include "stats/stats.hpp"

namespace manet {

class Channel {
 public:
  /// `seed` feeds the channel's own randomness (the frame-loss process).
  Channel(Simulator& sim, const PhyConfig& cfg, Area area,
          SimTime refresh = milliseconds(250), std::uint64_t seed = 1);

  /// Register a node. Transceiver ids must be dense and registered in order
  /// (0, 1, 2, ...); the ScenarioBuilder guarantees this. The channel does
  /// not own either object.
  void add(Transceiver* trx, MobilityModel* mob);

  /// Begin periodic position refresh; call once after all nodes are added.
  void start();

  /// Transmit: schedules arrivals at every node in carrier-sense range.
  /// Returns the time on air.
  SimTime transmit(NodeId sender, const Packet& frame);

  [[nodiscard]] const PhyConfig& config() const { return cfg_; }

  /// Current position of a node (refreshes its grid slot).
  [[nodiscard]] Vec2 position_of(NodeId id);

  /// Ids of nodes within `radius` of node `id` at current time (exact).
  /// Exposed for tests and for topology dumps in examples.
  std::vector<NodeId> neighbors_of(NodeId id, double radius);

  // -- fault injection --------------------------------------------------------
  /// Attach the fault masks (crashed nodes, blacked-out links, corruption
  /// rate). Null (the default) means no faults; transmit() then takes its
  /// original path with zero extra RNG draws.
  void set_fault(const FaultRuntime* fault) { fault_ = fault; }
  /// Sink for corruption accounting (optional).
  void set_stats(StatsCollector* stats) { stats_ = stats; }

 private:
  void refresh_positions();

  Simulator& sim_;
  PhyConfig cfg_;
  GridIndex grid_;
  SimTime refresh_;
  RngStream loss_rng_;
  RngStream fault_rng_;   ///< corruption draws; untouched outside corrupt windows
  RngStream shadow_rng_;  ///< urban NLOS draws; untouched in open-field runs
  const FaultRuntime* fault_ = nullptr;
  StatsCollector* stats_ = nullptr;
  PacketArena arena_;  ///< pools the per-transmission delivery copies
  double max_speed_ = 0.0;
  std::vector<Transceiver*> trx_;
  std::vector<MobilityModel*> mob_;
  std::vector<std::uint32_t> scratch_;
};

}  // namespace manet
