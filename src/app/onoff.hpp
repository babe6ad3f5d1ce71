// Exponential ON/OFF (bursty VBR) traffic source.
//
// During an ON period (exponential mean `burst_mean`) the source sends at
// the CBR rate; then it idles for an exponential OFF period and repeats.
// Bursty traffic stresses reactive protocols differently from smooth CBR:
// routes go stale between bursts and each new burst pays a fresh discovery —
// the effect the offered-load figures only hint at. Used by
// scenarios/abl_traffic.json as an extension beyond the paper's CBR-only
// workload.
#pragma once

#include "core/rng.hpp"
#include "core/time.hpp"
#include "net/node.hpp"

namespace manet {

class OnOffSource {
 public:
  struct Config {
    std::uint32_t flow = 0;
    NodeId dst = 0;
    std::size_t payload_bytes = 512;
    SimTime interval = milliseconds(250);  ///< packet spacing while ON
    SimTime burst_mean = seconds(5);       ///< mean ON duration
    SimTime idle_mean = seconds(5);        ///< mean OFF duration
    SimTime start = seconds(10);
    SimTime stop = SimTime::max();
  };

  OnOffSource(Node& node, const Config& cfg, RngStream rng);

  /// Schedule the first burst; call once before the simulation runs.
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
