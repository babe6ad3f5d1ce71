// MAC settings a scenario may choose. The 802.11 DSSS DCF timing itself is
// fixed: WifiMac's constants (kSlot, kSifs, kDifs, ...).
#pragma once

#include <cstddef>

namespace manet {

struct MacConfig {
  /// Drop-tail interface queue depth (the classic ns-2 IFQ of 50).
  std::size_t ifq_capacity = 50;
  /// Unicast data frames of at least this many bytes use RTS/CTS. The ns-2
  /// default of 0 means "all unicast data"; set use_rts=false to disable
  /// entirely (ablation scenarios/abl_rtscts.json).
  std::size_t rts_threshold = 0;
  bool use_rts = true;

  friend bool operator==(const MacConfig&, const MacConfig&) = default;
};

}  // namespace manet
