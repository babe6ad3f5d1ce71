// Deterministic fault injection: node crashes.
//
// A FaultPlan compiles a FaultConfig into a fixed, seeded schedule of node
// crash/restart pairs before the simulation starts. The scenario turns each
// FaultEvent into an ordinary simulator event that calls Node::crash() or
// Node::restart(), so a faulted run remains a pure function of (scenario,
// seed): the schedule never consults simulation state and draws nothing
// mid-run. A node's down state lives only in its radio
// (Transceiver::down()), which the channel and the node both read.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/time.hpp"
#include "packet/packet.hpp"

namespace manet {

/// Knobs for the compiled crash schedule. The rate is an expectation over
/// the whole run; the compiled plan is deterministic given (config, seed).
struct FaultConfig {
  /// Expected number of crash/restart cycles per node over the run.
  double crash_rate = 0.0;
  /// Mean downtime of a crashed node (exponential, clamped to >= 100ms).
  SimTime downtime_mean = seconds(10);
  /// Crashes are drawn uniformly in [window_from, duration); keeping the
  /// first seconds clean lets protocols converge before faults.
  SimTime window_from = seconds(10);

  [[nodiscard]] bool enabled() const { return crash_rate > 0.0; }

  friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

enum class FaultEventKind : std::uint8_t {
  kCrash,
  kRestart,
};

/// One compiled fault event: node `a` crashes or restarts at `at`.
struct FaultEvent {
  SimTime at;
  FaultEventKind kind = FaultEventKind::kCrash;
  NodeId a = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// The full compiled schedule: a sorted, immutable list of FaultEvents.
class FaultPlan {
 public:
  /// Compile a deterministic schedule. Pure function of the arguments — no
  /// global state, no wall clock.
  [[nodiscard]] static FaultPlan compile(const FaultConfig& cfg, std::uint32_t num_nodes,
                                         SimTime duration, std::uint64_t seed);

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// The [crash, restart) windows of one node, in time order. A missing
  /// restart (crash too close to the end of the run) yields an open-ended
  /// window capped at SimTime::max().
  [[nodiscard]] std::vector<std::pair<SimTime, SimTime>> down_windows(NodeId id) const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace manet
