// MAC parameters: IEEE 802.11 DSSS DCF timing, as configured in the ns-2 CMU
// wireless stack (2 Mbit/s WaveLAN).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/time.hpp"

namespace manet {

struct MacConfig {
  SimTime slot = microseconds(20);
  SimTime sifs = microseconds(10);
  SimTime difs = microseconds(50);  // sifs + 2 * slot
  std::uint32_t cw_min = 31;
  std::uint32_t cw_max = 1023;
  /// Attempts for the RTS stage, or for data sent without RTS.
  int short_retry_limit = 7;
  /// Attempts for the data stage after a successful RTS/CTS handshake.
  int long_retry_limit = 4;
  /// Drop-tail interface queue depth (the classic ns-2 IFQ of 50).
  std::size_t ifq_capacity = 50;
  /// Unicast data frames of at least this many bytes use RTS/CTS. The ns-2
  /// default of 0 means "all unicast data"; set use_rts=false to disable
  /// entirely (ablation scenarios/abl_rtscts.json).
  std::size_t rts_threshold = 0;
  bool use_rts = true;
};

}  // namespace manet
