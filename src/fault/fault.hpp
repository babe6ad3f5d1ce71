// Deterministic fault injection.
//
// A FaultPlan compiles a FaultConfig into a fixed, seeded schedule of timed
// fault events — node crash/restart pairs, per-link blackout windows,
// region-level partitions, and a channel corruption window — before the
// simulation starts. The scenario builder turns each FaultEvent into an
// ordinary simulator event, so a faulted run remains a pure function of
// (scenario, seed): the schedule itself never consults simulation state, and
// the only mid-run randomness (per-frame corruption draws) comes from its own
// named RngStream that is touched only while a corruption window is active.
//
// FaultRuntime is the mutable view the stack consults on the hot path: which
// nodes are currently down, which links are blacked out, whether the
// partition cut is active, and the current corruption probability. It is
// updated exclusively by the scheduled fault events, which keeps
// boundary-instant semantics consistent with event-queue ordering rather
// than depending on time-window comparisons at every call site.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "geom/vec2.hpp"
#include "packet/packet.hpp"

namespace manet {

/// Knobs for the compiled fault schedule. All rates are expectations over the
/// whole run; the compiled plan is deterministic given (config, seed).
struct FaultConfig {
  /// Expected number of crash/restart cycles per node over the run.
  double crash_rate = 0.0;
  /// Mean downtime of a crashed node (exponential, clamped to >= 100ms).
  SimTime downtime_mean = seconds(10);

  /// Number of per-link blackout windows over the run (each picks a random
  /// node pair and silences frames between them in both directions).
  int link_blackouts = 0;
  /// Mean blackout duration (exponential, clamped to >= 100ms).
  SimTime blackout_mean = seconds(5);

  /// Probability that a decodable frame is corrupted while the corruption
  /// window is active (demoted to noise at every receiver independently).
  double corrupt_rate = 0.0;
  SimTime corrupt_from = SimTime::zero();
  SimTime corrupt_until = SimTime::zero();  ///< zero => until end of run

  /// One region partition: nodes on opposite sides of a vertical cut at
  /// x = partition_frac * area.width cannot hear each other while active.
  bool partition = false;
  double partition_frac = 0.5;
  SimTime partition_from = SimTime::zero();
  SimTime partition_until = SimTime::zero();  ///< zero => until end of run

  /// Crashes and blackouts are drawn uniformly in [window_from, duration);
  /// keeping the first seconds clean lets protocols converge before faults.
  SimTime window_from = seconds(10);

  [[nodiscard]] bool enabled() const {
    return crash_rate > 0.0 || link_blackouts > 0 || corrupt_rate > 0.0 || partition;
  }

  friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

enum class FaultEventKind : std::uint8_t {
  kCrash,
  kRestart,
  kLinkDown,
  kLinkUp,
  kPartitionStart,
  kPartitionEnd,
  kCorruptStart,
  kCorruptEnd,
};

[[nodiscard]] const char* to_string(FaultEventKind kind);

/// One compiled fault event. Meaning of the fields depends on kind:
/// crash/restart use a; link events use the pair (a, b); partition events use
/// value as the x-coordinate of the cut; corrupt events use value as the
/// corruption probability.
struct FaultEvent {
  SimTime at;
  FaultEventKind kind = FaultEventKind::kCrash;
  NodeId a = 0;
  NodeId b = 0;
  double value = 0.0;
};

/// The full compiled schedule: a sorted, immutable list of FaultEvents.
class FaultPlan {
 public:
  /// Compile a deterministic schedule. Pure function of the arguments — no
  /// global state, no wall clock.
  [[nodiscard]] static FaultPlan compile(const FaultConfig& cfg, std::uint32_t num_nodes,
                                         const Area& area, SimTime duration,
                                         std::uint64_t seed);

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// The [crash, restart) windows of one node, in time order. A missing
  /// restart (crash too close to the end of the run) yields an open-ended
  /// window capped at SimTime::max().
  [[nodiscard]] std::vector<std::pair<SimTime, SimTime>> down_windows(NodeId id) const;

  /// One line per event — the byte-exact schedule fingerprint the
  /// determinism tests pin.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<FaultEvent> events_;
};

/// Mutable fault state consulted by Channel on every transmission. Updated
/// only by the scheduled FaultEvents (via apply), never by the hot path.
class FaultRuntime {
 public:
  /// Apply one scheduled event to the masks. Crash/restart bookkeeping for
  /// the node object itself (MAC/ARP flush, trace records) lives in the
  /// scenario's dispatcher; this only maintains the channel-visible state.
  void apply(const FaultEvent& ev);

  [[nodiscard]] bool node_down(NodeId id) const { return down_.count(id) > 0; }

  /// True if frames between a and b are currently suppressed — either an
  /// active per-link blackout or the two positions straddling an active
  /// partition cut.
  [[nodiscard]] bool link_blocked(NodeId a, NodeId b, const Vec2& pa, const Vec2& pb) const {
    if (partition_active_ && (pa.x < partition_x_) != (pb.x < partition_x_)) return true;
    if (blackouts_.empty()) return false;
    return blackouts_.count(ordered_pair(a, b)) > 0;
  }

  /// Current per-frame corruption probability (0 outside corrupt windows).
  [[nodiscard]] double corrupt_rate() const { return corrupt_rate_; }

  [[nodiscard]] bool any_node_down() const { return !down_.empty(); }

 private:
  [[nodiscard]] static std::pair<NodeId, NodeId> ordered_pair(NodeId a, NodeId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  std::set<NodeId> down_;
  std::set<std::pair<NodeId, NodeId>> blackouts_;
  bool partition_active_ = false;
  double partition_x_ = 0.0;
  double corrupt_rate_ = 0.0;
};

}  // namespace manet
