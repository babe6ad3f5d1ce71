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
// takes them.
//
// Each arrival goes into its receiver's energy ledger (transceiver.hpp),
// with two order numbers transmit() reserves for it in its candidate loop,
// one for its start and one for its end, in candidate-scan order. Those are
// the numbers that events scheduled at transmit() for every start and end
// would take, so each step applies exactly where such an event would run:
// after a same-instant event scheduled before the frame was sent, before
// one scheduled after. No arrival schedules anything here; the receiver
// turns a step into an event only when something observes it.
//
// The channel's own events are the decodable ends. Each transmission with a
// decodable arrival gets one pooled record holding one copy of the frame,
// which every decodable arrival points into, and the decodable ends sorted
// by (time, order). The record runs them as a chain that keeps one queue
// entry at a time: a step schedules the next end at its reserved number,
// then hands its own end to the receiver. Ends are starts plus one airtime,
// so the kept reach's distance order sorts them through an insertion pass
// keyed by (time, order): an exact sort, linear when nothing has moved. A
// transmission nobody can decode takes no record and no event.
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

/// Told of every transmission as it starts, before the channel looks at
/// faults or receivers.
class TransmitObserver {
 public:
  virtual ~TransmitObserver() = default;
  virtual void on_transmit(NodeId sender, const Packet& frame) = 0;
};

class Channel {
 public:
  /// `seed` feeds the channel's own randomness (the frame-loss process).
  Channel(Simulator& sim, const PhyConfig& cfg, Area area,
          SimTime refresh = milliseconds(250), std::uint64_t seed = 1);

  /// Register a node. Transceiver ids must be dense and registered in order
  /// (0, 1, 2, ...); Scenario::build guarantees this. The channel does
  /// not own either object.
  void add(Transceiver* trx, MobilityModel* mob);

  /// Begin periodic position refresh; call once after all nodes are added.
  void start();

  /// Transmit: schedules arrivals at every node in carrier-sense range.
  /// Returns the time on air.
  SimTime transmit(NodeId sender, const Packet& frame);

  /// Transmissions whose decodable ends have not all run yet (records out of
  /// the pool). Zero once the simulator has drained.
  [[nodiscard]] std::size_t transmissions_in_flight() const {
    return records_.size() - free_.size();
  }

  [[nodiscard]] const PhyConfig& config() const { return cfg_; }

  /// Current position of a node (refreshes its grid slot; on a static
  /// field a changed position ends the epoch).
  [[nodiscard]] Vec2 position_of(NodeId id);

  /// Replaces `out` with the ids of the nodes within `radius` of node `id`
  /// at the current time (exact), in ascending id order. Allocates only
  /// when `out` must grow. A test oracle: the simulation never calls it
  /// (the connectivity oracle keeps its own grid), and test_phy checks
  /// transmit()'s receivers against it. Like position_of(), it refreshes
  /// node `id`'s grid slot.
  void neighbors_of(NodeId id, double radius, std::vector<NodeId>& out);

  // -- fault injection --------------------------------------------------------
  /// Attach the fault masks (crashed nodes, blacked-out links, corruption
  /// rate). Null (the default) means no faults; transmit() then takes its
  /// original path with zero extra RNG draws.
  void set_fault(const FaultRuntime* fault) { fault_ = fault; }
  /// Sink for corruption accounting (optional).
  void set_stats(StatsCollector* stats) { stats_ = stats; }
  /// Observer of every transmission (optional; the PHY oracle test replays
  /// a run against an offline model with it).
  void set_observer(TransmitObserver* o) { observer_ = o; }

 private:
  /// The end of one decodable arrival, and its receiver.
  struct Delivery {
    SimTime at;
    std::uint64_t order;
    Transceiver* rx;
  };

  /// One transmission's frame copy, which its decodable arrivals point
  /// into, and their ends sorted by (at, order).
  struct Transmission {
    Packet frame;
    std::vector<Delivery> ends;
    std::size_t next = 0;  ///< the chain's armed end
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
  [[nodiscard]] Transmission* acquire();
  void schedule_end(Transmission* t);
  void run_end(Transmission* t);
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
  TransmitObserver* observer_ = nullptr;
  double max_speed_ = 0.0;
  std::vector<Transceiver*> trx_;
  std::vector<MobilityModel*> mob_;
  std::uint32_t epoch_ = 0;
  std::vector<Reach> reach_;                ///< per node
  std::vector<std::uint32_t> reach_ids_;    ///< this epoch's kept reaches: ids, ascending,
  std::vector<std::uint32_t> reach_order_;  ///< and indices into them by distance
  std::vector<std::uint32_t> scratch_;      ///< the latest fresh query
  std::vector<std::uint32_t> slot_;         ///< candidate -> its decodable end, or kNone
  std::vector<Delivery> sorted_;            ///< the insertion pass's output
  std::vector<std::pair<double, std::uint32_t>> by_distance_;  ///< keep_reach's sort
  std::vector<std::unique_ptr<Transmission>> records_;  ///< every record, for ownership
  std::vector<Transmission*> free_;                     ///< the pool
};

}  // namespace manet
