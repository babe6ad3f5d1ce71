// The shared wireless channel.
//
// Connects all transceivers. A transmission reaches every node within
// carrier-sense range of the sender at that instant (exact distances), each
// after its propagation delay. Candidates come from the sender's *reach*: a
// grid query around its exact position with radius cs_range + slack, slack =
// 2 · v_max · refresh + 1 m, kept as ascending ids plus their order by
// distance at query time. Grid slots are refreshed at 4 Hz (and by
// position_of()), so a slot is at most one refresh older than any instant of
// the current *epoch*. A mobile field's epoch ends at every refresh; a static
// field's ends only when a refresh or position_of() sees a node at a new
// position (a teleport). Within one epoch a receiver and the sender each move
// at most v_max · refresh from where the query saw them, so the reach is a
// superset of every in-range set the sender has in its epoch, and the exact
// test picks the same receivers a fresh query would. That needs every
// mobility model to move continuously and no faster than its max_speed().
// The one jump is a teleport, StaticMobility::set_position: the next
// refresh sees it, or position_of() of the moved node does first (as when
// it sends). Until then a frame can miss a node moved into range, for up to
// one refresh: a sender's kept reach does not list it, nor does a fresh
// query against its stale slot.
//
// A reach is kept from the sender's second transmission in an epoch on; a
// first one queries into scratch. transmit() walks the reach in id order,
// so fault masks, RNG draws and order numbers are taken as a fresh query
// takes them, then emits the arrivals in the cached distance order through
// an insertion pass keyed by (time, order): an exact sort, linear when
// nothing has moved.
//
// Each transmission gets one pooled record holding its arrivals and one copy
// of the frame, shared by every decodable arrival. The record runs its
// arrivals as two chains of events, rx_starts and accepted rx_ends, each
// keeping one queue entry at a time: a step schedules the next step before
// it runs its own arrival. The run is event-for-event identical to one that
// schedules every rx_start and rx_end as its own event (the model the
// goldens pin), at the same (time, order):
//   * transmit() reserves each arrival's order number in its candidate loop
//     and rx_start() its rx_end's number before the MAC hears of the arrival,
//     where scheduling those events would take them.
//   * The start chain walks the arrivals sorted by (time, order); the end
//     chain walks the accepted ones in the same order, which is also the
//     ends' (time, order) order: each end is its start plus one airtime, and
//     end numbers are reserved in the order the starts run.
//   * Each step is queued by an event strictly earlier in (time, order): the
//     previous start, or the previous accepted end, or its own start if that
//     ran later. Nothing assumes the airtime exceeds the spread of
//     propagation delays, so ends may interleave with later starts.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
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

  /// Current position of a node (refreshes its grid slot; on a static
  /// field a changed position ends the epoch).
  [[nodiscard]] Vec2 position_of(NodeId id);

  /// Replaces `out` with the ids of the nodes within `radius` of node `id`
  /// at the current time (exact), in ascending id order. Allocates only
  /// when `out` must grow.
  void neighbors_of(NodeId id, double radius, std::vector<NodeId>& out);

  /// As above, into a fresh vector (tests).
  [[nodiscard]] std::vector<NodeId> neighbors_of(NodeId id, double radius) {
    std::vector<NodeId> out;
    neighbors_of(id, radius, out);
    return out;
  }

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

  /// Where a sender's reach lives. `epoch` is the epoch of the sender's
  /// last transmission; `offset` is kNone after its first transmission in
  /// that epoch, else the reach's start in `reach_ids_` and `reach_order_`.
  struct Reach {
    std::uint32_t epoch = kNone;
    std::uint32_t offset = kNone;
    std::uint32_t size = 0;
  };
  static constexpr std::uint32_t kNone = UINT32_MAX;

  [[nodiscard]] double slack() const { return max_speed_ * refresh_.sec() * 2.0 + 1.0; }
  void refresh_positions();
  void next_epoch();
  /// Keep the query in `scratch_`, made around `src`, as reach `r`.
  void keep_reach(Reach& r, Vec2 src);
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
  std::uint32_t epoch_ = 0;
  std::vector<Reach> reach_;                ///< per node
  std::vector<std::uint32_t> reach_ids_;    ///< this epoch's kept reaches: ids, ascending,
  std::vector<std::uint32_t> reach_order_;  ///< and indices into them by distance
  std::vector<std::uint32_t> scratch_;      ///< the latest fresh query
  std::vector<std::uint32_t> slot_;         ///< candidate -> its arrival, or kNone
  std::vector<Arrival> sorted_;             ///< the insertion pass's output
  std::vector<std::pair<double, std::uint32_t>> by_distance_;  ///< keep_reach's sort
  std::vector<std::unique_ptr<Transmission>> records_;  ///< every record, for ownership
  std::vector<Transmission*> free_;                     ///< the pool
};

}  // namespace manet
