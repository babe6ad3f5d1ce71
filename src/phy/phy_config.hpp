// Radio parameters.
//
// Defaults model the 914 MHz / 2 Mbit/s Lucent WaveLAN radio the ns-2 CMU
// wireless extensions shipped with — the radio of the whole 1998–2001
// comparison literature: 250 m nominal (two-ray ground) communication range
// and a 550 m carrier-sense/interference range.
#pragma once

#include <cmath>
#include <cstddef>

#include "core/time.hpp"
#include "geom/vec2.hpp"

namespace manet {

struct PhyConfig {
  static constexpr SimTime kPreamble = microseconds(192);  ///< PLCP preamble+header at 1 Mbit/s
  static constexpr double kPropagationMps = 3e8;           ///< speed of light

  double data_rate_bps = 2e6;    ///< payload bit rate
  double rx_range_m = 250.0;     ///< frames decodable within this distance
  double cs_range_m = 550.0;     ///< energy detectable (interferes) within this

  /// Independent per-frame loss probability at each receiver — a stand-in
  /// for fading/shadowing on top of the unit-disk model (0 = ideal channel).
  /// Lost frames still carry energy (they interfere and trip carrier sense).
  double frame_loss_rate = 0.0;

  // -- urban obstacle/shadowing model (off by default) -------------------------
  // A street-canyon approximation for the Manhattan-grid scenario family:
  // buildings fill the blocks, so two radios decode each other at full range
  // only when they share a street corridor (x- or y-coordinates within one
  // street width). Non-line-of-sight pairs fall back to a short
  // around-the-corner diffraction range plus an extra independent loss draw.
  // Carrier-sense/interference reach is deliberately unchanged — energy
  // leaks over rooftops — which keeps MAC timing comparable between the
  // open-field and urban families. street_width_m == 0 disables the model
  // entirely: no LOS tests, no extra RNG draws, open-field goldens intact.
  double street_width_m = 0.0;    ///< corridor half-plane width; 0 = open field
  double nlos_rx_range_m = 75.0;  ///< decode range without line of sight
  double nlos_loss_rate = 0.0;    ///< extra per-frame loss on NLOS links

  /// True when the urban street-canyon model is active.
  [[nodiscard]] bool urban() const { return street_width_m > 0.0; }

  /// Street-corridor line-of-sight test (always true in the open field).
  [[nodiscard]] bool line_of_sight(Vec2 a, Vec2 b) const {
    if (!urban()) return true;
    return std::abs(a.x - b.x) <= street_width_m || std::abs(a.y - b.y) <= street_width_m;
  }

  /// Time on air for a frame of `bytes`.
  [[nodiscard]] SimTime airtime(std::size_t bytes) const {
    const double tx_s = static_cast<double>(bytes) * 8.0 / data_rate_bps;
    return kPreamble + seconds_f(tx_s);
  }

  /// One-way propagation delay over `meters`.
  [[nodiscard]] SimTime propagation(double meters) const {
    return seconds_f(meters / kPropagationMps);
  }

  /// Upper bound on propagation delay within carrier-sense range; used for
  /// MAC timeout sizing.
  [[nodiscard]] SimTime max_propagation() const { return propagation(cs_range_m); }

  friend bool operator==(const PhyConfig&, const PhyConfig&) = default;
};

}  // namespace manet
