// Traffic sources: the application end of every flow. The matching sink
// lives in the Node, which terminates data packets addressed to it and feeds
// the StatsCollector.
//
// The paper family's workload is constant bit rate over UDP: 512-byte
// packets at a fixed rate between randomly chosen source/destination pairs.
// The exponential ON/OFF (bursty VBR) extension sends at the same rate
// during an ON period (exponential mean `burst_mean`), then idles for an
// exponential OFF period and repeats. Bursty traffic stresses reactive
// protocols differently from smooth CBR: routes go stale between bursts and
// each new burst pays a fresh discovery (scenarios/abl_traffic.json). CBR is
// the ON period that never ends, so a CBR source never draws from its RNG.
#pragma once

#include "core/rng.hpp"
#include "core/time.hpp"
#include "net/node.hpp"

namespace manet {

class TrafficSource {
 public:
  struct Config {
    std::uint32_t flow = 0;
    NodeId dst = 0;
    std::size_t payload_bytes = 512;
    SimTime interval = milliseconds(250);  ///< packet spacing while ON (4 packets/s)
    /// Mean ON duration; SimTime::max() (CBR) is one ON period that never
    /// ends.
    SimTime burst_mean = SimTime::max();
    SimTime idle_mean = seconds(5);  ///< mean OFF duration
    SimTime start = seconds(10);
    SimTime stop = SimTime::max();
  };

  /// `rng` draws the ON and OFF durations; a CBR source never uses it.
  TrafficSource(Node& node, const Config& cfg, RngStream rng);

  /// Schedule the first ON period; call once before the simulation runs.
  void start();

  [[nodiscard]] std::uint32_t packets_sent() const { return seq_; }
  [[nodiscard]] bool sending() const { return on_; }

 private:
  void begin_burst();
  void send_one();

  Node& node_;
  Config cfg_;
  RngStream rng_;
  std::uint32_t seq_ = 0;
  bool on_ = false;
  SimTime burst_end_{};
};

}  // namespace manet
