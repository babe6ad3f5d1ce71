// Running replications and passes, and checking what they produce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace manet::benchmark {

/// Counts read from public getters after each replication, summed over a
/// pass (peak_queue is the maximum).
struct Counts {
  double events = 0;
  double peak_queue = 0;
  double phy_tx = 0;
  double frames_rx = 0;
  double frames_corrupt = 0;
  double mac_ctrl_tx = 0;
  double ifq_drops = 0;
  double retry_drops = 0;
  double originated = 0;
  double delivered = 0;
  double arp_tx = 0;
  double routing_tx = 0;
  double retx = 0;
  double giveups = 0;
  double refresh_calls = 0;  ///< position_at calls of the channel's 4 Hz refresh

  void add(Scenario& sc, const ScenarioConfig& cfg);
};

/// What one replication produced.
struct Outcome {
  /// Hash of the simulated outputs: the ScenarioResult fields that describe
  /// the model (not the kernel's event bookkeeping) plus the PHY reception
  /// counts. A change that only makes the simulator faster leaves it alone.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;  ///< kernel events; must also repeat exactly
  double seconds = 0;        ///< host time, construction to destruction
  std::string failure;       ///< failed sanity check, empty when fine
};

/// Run one replication; a non-null `tracer` installs the seam taps after
/// build(). `counts`, when given, accumulates the replication's counters.
[[nodiscard]] Outcome run_replication(const Replication& rep, Tracer* tracer, Counts* counts);

/// Tallies replications and reports failed checks on stderr.
class Checker {
 public:
  explicit Checker(const char* workload) : workload_(workload) {}

  /// Count one replication: it fails on its own sanity check, or when
  /// `reference` is given and the digest or event count differs from it.
  void check(const Replication& rep, const Outcome& got, const Outcome* reference);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  const char* workload_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Run every replication once, closed-loop. With a non-empty `reference`
/// (an earlier pass), each outcome must reproduce it.
[[nodiscard]] std::vector<Outcome> run_pass(const std::vector<Replication>& reps,
                                            Checker& checker,
                                            const std::vector<Outcome>& reference,
                                            Tracer* tracer, Counts* counts);

/// Combined digest of a pass.
[[nodiscard]] std::uint64_t pass_digest(const std::vector<Outcome>& pass);

/// Host seconds spent in Scenario construction plus build(), summed over
/// the replications of a pass; destruction is not timed.
[[nodiscard]] double setup_seconds(const std::vector<Replication>& reps);

/// Heap growth across construction plus build() of each replication, per
/// node, averaged over the pass.
[[nodiscard]] double built_bytes_per_node(const std::vector<Replication>& reps);

}  // namespace manet::benchmark
