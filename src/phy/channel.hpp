// The shared wireless channel.
//
// Connects all transceivers. On each transmission it finds the nodes within
// carrier-sense range of the transmitter (grid spatial index + exact
// distance check), computes per-receiver propagation delays, and delivers
// energy/frame arrivals at each. Node positions come from the mobility
// models; the grid is refreshed periodically and queried with a slack margin
// of 2 · v_max · refresh-interval so candidates are never missed between
// refreshes.
//
// Each transmission gets one pooled record holding its arrivals and one copy
// of the frame, shared by every decodable arrival. The record runs its
// arrivals as two chains of events, one of rx_starts and one of accepted
// rx_ends, and each chain keeps one queue entry at a time: a chain step
// schedules the next step before it runs its own arrival, so the next step
// usually takes the root the running event left and sifts one level.
//
// Exactness. The run is event-for-event identical to one that schedules
// every rx_start and rx_end as its own event, the model every golden pins:
// each still runs as its own event, at the same (time, order).
//   * transmit() reserves each arrival's order number in its candidate
//     loop, where scheduling an event for that arrival would take one, and
//     rx_start() reserves its rx_end's number before the MAC hears of the
//     arrival, where scheduling the rx_end would. Every other event
//     therefore gets the number it would get in that model too.
//   * The start chain walks the arrivals sorted by (time, order). The end
//     chain walks the accepted arrivals in the same order: every end is its
//     start plus one airtime, and end numbers are reserved in the order the
//     starts run, so that is also the ends' (time, order) order.
//   * Each step is in the queue before its turn: the next start is
//     scheduled when the previous start runs, and an end when the previous
//     accepted end runs or, if its own start had not run by then, when that
//     start runs. Each of those runs strictly earlier in (time, order) than
//     the step it schedules. Nothing assumes the airtime exceeds the spread
//     of propagation delays, so ends may interleave with later starts.
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

  /// Transmissions whose arrivals have not all run yet (records out of the
  /// pool). Zero once the simulator has drained.
  [[nodiscard]] std::size_t transmissions_in_flight() const {
    return records_.size() - free_.size();
  }

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
  /// One receiver's arrival of a transmission.
  struct Arrival {
    SimTime at;                 ///< rx_start time
    std::uint64_t start_seq;    ///< rx_start's order
    Transceiver* rx;
    bool decodable;
    bool accepted = false;      ///< rx_start ran with the radio up
    std::uint64_t end_seq = 0;  ///< rx_end's order, valid once accepted
  };

  /// One transmission's arrivals, sorted by (at, start_seq), and the frame
  /// copy its decodable arrivals point into.
  struct Transmission {
    Packet frame;
    SimTime airtime;
    std::vector<Arrival> arrivals;
    std::size_t next_start = 0;  ///< first arrival whose rx_start has not run
    std::size_t next_end = 0;    ///< the end chain's armed arrival
    bool end_armed = false;
  };

  void refresh_positions();
  void run_start(Transmission* t);
  void run_end(Transmission* t);
  void schedule_end(Transmission* t, std::size_t i);
  void release(Transmission* t);

  Simulator& sim_;
  PhyConfig cfg_;
  GridIndex grid_;
  SimTime refresh_;
  RngStream loss_rng_;
  RngStream fault_rng_;   ///< corruption draws; untouched outside corrupt windows
  RngStream shadow_rng_;  ///< urban NLOS draws; untouched in open-field runs
  const FaultRuntime* fault_ = nullptr;
  StatsCollector* stats_ = nullptr;
  double max_speed_ = 0.0;
  std::vector<Transceiver*> trx_;
  std::vector<MobilityModel*> mob_;
  std::vector<std::uint32_t> scratch_;
  std::vector<std::unique_ptr<Transmission>> records_;  ///< every record, for ownership
  std::vector<Transmission*> free_;                     ///< the pool
};

}  // namespace manet
