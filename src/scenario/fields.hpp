// The field table: one row per scalar field of ScenarioConfig.
//
// A row names its field by member path ("phy.rx_range_m"), says which key
// of a scenario file's settings object sets it, and gives its single-field
// range. Everything that would otherwise list the fields by hand walks the
// table instead:
//   - the scenario-file reader (spec.cpp) reads each section's keys into
//     their rows, and the sweep axes name rows;
//   - check() (scenario.hpp) tests every row's range;
//   - describe() (scenario.hpp) prints every row;
//   - the contract and settings tests iterate it.
// Adding a field is its struct member plus one row.
//
// The enum, string and pair-valued settings stay hand-written where they
// are read and printed: protocol, mobility (the file's "model"), traffic
// ("kind"), trace_path, and area, whose two rows the "area_m" pair fills.
#pragma once

#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "scenario/scenario.hpp"

namespace manet {

/// A single-field range: lo <= x (lo < x when lo_open) and x <= hi (x < hi
/// when hi_open). check() words it as "> 0", ">= 2" or "in [0, 1)".
struct Range {
  double lo = 0.0;
  bool lo_open = false;
  double hi = std::numeric_limits<double>::infinity();
  bool hi_open = false;

  [[nodiscard]] constexpr bool contains(double x) const {
    return (lo_open ? x > lo : x >= lo) && (hi_open ? x < hi : x <= hi);
  }
};

[[nodiscard]] constexpr Range at_least(double lo) { return {lo}; }
[[nodiscard]] constexpr Range above(double lo) { return {lo, true}; }
/// A probability: [0, 1].
inline constexpr Range kProbability{0.0, false, 1.0, false};
/// A loss probability that leaves some frames through: [0, 1).
inline constexpr Range kLossRate{0.0, false, 1.0, true};

/// The accessor of a field's member, one alternative per member type. The
/// integer types are spelled as C types because std::size_t and
/// std::uint64_t are one type on some platforms and two on others.
template <class T>
using Member = T& (*)(ScenarioConfig&);
using MemberRef = std::variant<Member<bool>, Member<int>, Member<unsigned>, Member<unsigned long>,
                               Member<unsigned long long>, Member<double>, Member<SimTime>>;

struct Field {
  const char* path;  ///< member path, as check() reports it: "phy.rx_range_m"
  MemberRef member;
  /// Where a scenario file's settings object sets it: key `key` of section
  /// `section` ("" for a key of the settings object itself). Both nullptr
  /// when no key does (only code sets it).
  const char* section = nullptr;
  const char* key = nullptr;
  std::optional<Range> range = std::nullopt;  ///< none: every value is valid on its own
  double unit = 1.0;  ///< seconds per unit of a time key (1e-3 for *_ms)

  /// fn(member of cfg): a const reference when cfg is const.
  template <class Config, class Fn>
  decltype(auto) visit(Config& cfg, Fn&& fn) const {
    return std::visit(
        [&](auto get) -> decltype(auto) {
          // The accessors take a mutable config; a const one is only read.
          auto& m = get(const_cast<ScenarioConfig&>(cfg));
          if constexpr (std::is_const_v<Config>) {
            return fn(std::as_const(m));
          } else {
            return fn(m);
          }
        },
        member);
  }
};

// One row: MANET_FIELD(member path[, section, key[, range[, unit]]]).
#define MANET_FIELD(m, ...) \
  Field { #m, +[](ScenarioConfig& c) -> auto& { return c.m; }, __VA_ARGS__ }

/// Every scalar field, in check()'s order.
inline constexpr Field kFields[] = {
    MANET_FIELD(seed, "", "seed"),
    MANET_FIELD(num_nodes, "", "nodes", at_least(2)),
    MANET_FIELD(area.width, nullptr, nullptr, above(0)),
    MANET_FIELD(area.height, nullptr, nullptr, above(0)),
    MANET_FIELD(static_nodes, "", "static"),
    MANET_FIELD(duration, "", "duration_s", above(0)),
    MANET_FIELD(v_min, "mobility", "v_min_mps", at_least(0)),
    MANET_FIELD(v_max, "mobility", "v_max_mps", at_least(0)),
    MANET_FIELD(pause, "mobility", "pause_s", at_least(0)),
    MANET_FIELD(mobility_warmup, "mobility", "warmup_s", at_least(0)),
    MANET_FIELD(manhattan.block, "mobility", "block_m", above(0)),
    MANET_FIELD(manhattan.p_turn, "mobility", "p_turn", kProbability),

    MANET_FIELD(num_connections, "traffic", "connections"),
    MANET_FIELD(payload_bytes, "traffic", "payload_bytes", at_least(1)),
    MANET_FIELD(cbr_interval, "traffic", "interval_ms", above(0), 1e-3),
    MANET_FIELD(cbr_start, "traffic", "start_s", at_least(0)),
    MANET_FIELD(cbr_start_window, "traffic", "start_window_s", at_least(0)),
    MANET_FIELD(onoff_burst_mean, "traffic", "burst_mean_s", above(0)),
    MANET_FIELD(onoff_idle_mean, "traffic", "idle_mean_s", above(0)),

    MANET_FIELD(transport.enabled, "transport", "enabled"),
    MANET_FIELD(transport.rto_initial, "transport", "rto_initial_ms", above(0), 1e-3),
    MANET_FIELD(transport.rto_min, "transport", "rto_min_ms", above(0), 1e-3),
    MANET_FIELD(transport.rto_max, "transport", "rto_max_ms", above(0), 1e-3),
    MANET_FIELD(transport.cwnd_init, "transport", "cwnd_init", at_least(1)),
    MANET_FIELD(transport.cwnd_max, "transport", "cwnd_max", at_least(1)),
    MANET_FIELD(transport.max_retx, "transport", "max_retx", at_least(1)),
    MANET_FIELD(transport.buffer_packets, "transport", "buffer_packets", at_least(1)),

    MANET_FIELD(phy.data_rate_bps, "radio", "data_rate_bps", above(0)),
    MANET_FIELD(phy.rx_range_m, "radio", "rx_range_m", above(0)),
    MANET_FIELD(phy.cs_range_m, "radio", "cs_range_m", above(0)),
    MANET_FIELD(phy.frame_loss_rate, "radio", "frame_loss_rate", kLossRate),
    MANET_FIELD(phy.street_width_m, "urban", "street_width_m", at_least(0)),
    MANET_FIELD(phy.nlos_rx_range_m, "urban", "nlos_range_m", above(0)),
    MANET_FIELD(phy.nlos_loss_rate, "urban", "nlos_loss", kLossRate),
    MANET_FIELD(mac.use_rts, "mac", "use_rts"),
    MANET_FIELD(mac.rts_threshold, "mac", "rts_threshold_bytes"),
    MANET_FIELD(mac.ifq_capacity, "mac", "ifq_capacity", at_least(1)),

    MANET_FIELD(fault.crash_rate, "fault", "crash_rate", at_least(0)),
    MANET_FIELD(fault.downtime_mean, "fault", "downtime_mean_s", above(0)),
    MANET_FIELD(fault.link_blackouts, "fault", "link_blackouts", at_least(0)),
    MANET_FIELD(fault.blackout_mean, "fault", "blackout_mean_s", above(0)),
    MANET_FIELD(fault.corrupt_rate, "fault", "corrupt_rate", kProbability),
    MANET_FIELD(fault.corrupt_from, "fault", "corrupt_from_s", at_least(0)),
    MANET_FIELD(fault.corrupt_until, "fault", "corrupt_until_s", at_least(0)),
    MANET_FIELD(fault.partition, "fault", "partition"),
    MANET_FIELD(fault.partition_frac, "fault", "partition_frac", kProbability),
    MANET_FIELD(fault.partition_from, "fault", "partition_from_s", at_least(0)),
    MANET_FIELD(fault.partition_until, "fault", "partition_until_s", at_least(0)),
    MANET_FIELD(fault.window_from, "fault", "window_from_s", at_least(0)),

    MANET_FIELD(aodv.expanding_ring, "aodv", "expanding_ring"),
    MANET_FIELD(aodv.intermediate_reply),
    MANET_FIELD(dsr.intermediate_reply, "dsr", "intermediate_reply"),
    MANET_FIELD(dsr.salvage),
    MANET_FIELD(cbrp.local_repair),
    MANET_FIELD(olsr.neighb_hold),
    MANET_FIELD(olsr.mpr_flooding, "olsr", "mpr_flooding"),
    MANET_FIELD(lar.min_expected_radius),
    MANET_FIELD(lar.assumed_v_max),
    MANET_FIELD(lar.route_lifetime),
};

#undef MANET_FIELD

/// The row of `path`, resolved at compile time: a path with no row does
/// not compile.
[[nodiscard]] consteval const Field& field(std::string_view path) {
  for (const Field& f : kFields) {
    if (path == f.path) return f;
  }
  throw "no ScenarioConfig field row has this path";
}

}  // namespace manet
