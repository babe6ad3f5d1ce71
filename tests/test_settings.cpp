// Every setting a scenario can still choose is live.
//
// ScenarioConfig's stack and mobility blocks hold only fields that some
// scenario file, DSL key or test sets; the fixed protocol, MAC, PHY and
// mobility values are named constants of their modules (RFC 3561, RFC 3626,
// the CBRP draft, ns-2's CMU 802.11). Each row below runs a short base
// scenario with one remaining field moved off its default, written through
// its field table row (scenario/fields.hpp), and expects the run's
// model_digest to differ from the default run's. A field that nothing
// reads, or that Scenario::build overwrites, fails its row; a stack or
// mobility row of the field table without a row here fails too.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string_view>
#include <type_traits>

#include "scenario/builder.hpp"
#include "scenario/fields.hpp"
#include "scenario/scenario.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

// The constants defined from others keep their RFC relations.
static_assert(WifiMac::kDifs == WifiMac::kSifs + 2 * WifiMac::kSlot, "DIFS = SIFS + 2 slots");
static_assert(aodv::Aodv::kMyRouteTimeout == 2 * aodv::Aodv::kActiveRouteTimeout,
              "MY_ROUTE_TIMEOUT = 2 * ACTIVE_ROUTE_TIMEOUT (RFC 3561 §10)");
static_assert(olsr::Olsr::kTopologyHold == 3 * olsr::Olsr::kTcInterval,
              "TOP_HOLD_TIME = 3 * TC_INTERVAL (RFC 3626 §18.3)");

/// The field table paths whose every row needs a liveness row below.
constexpr const char* kStackPrefixes[] = {"aodv.", "dsr.", "cbrp.", "olsr.", "lar.",
                                          "mac.",  "phy.", "manhattan."};

/// The base scenarios: the dense test field per protocol; the paper's
/// field, smaller and shorter, where fast nodes break routes (repair,
/// salvage, LAR's request zones); the dense field saturated (queue
/// overflow); and a small urban city (Manhattan streets with the
/// street-canyon radio).
enum class Base : std::uint8_t {
  kAodv,
  kOlsr,
  kMobileAodv,
  kMobileDsr,
  kMobileCbrp,
  kMobileLar,
  kLoaded,
  kUrban,
};

ScenarioConfig mobile_field(Protocol p) {
  ScenarioConfig cfg;  // 1000 m x 1000 m, up to 20 m/s, pause 0, 10 flows
  cfg.protocol = p;
  cfg.num_nodes = 30;
  cfg.duration = seconds(60);
  return cfg;
}

ScenarioConfig base_config(Base b) {
  switch (b) {
    case Base::kAodv: return test::dense_field(Protocol::kAodv, 1);
    case Base::kOlsr: return test::dense_field(Protocol::kOlsr, 1);
    case Base::kMobileAodv: return mobile_field(Protocol::kAodv);
    case Base::kMobileDsr: return mobile_field(Protocol::kDsr);
    case Base::kMobileCbrp: return mobile_field(Protocol::kCbrp);
    case Base::kMobileLar: return mobile_field(Protocol::kLar);
    case Base::kLoaded: {
      ScenarioConfig cfg = test::dense_field(Protocol::kAodv, 1);
      cfg.cbr_interval = milliseconds(5);
      return cfg;
    }
    case Base::kUrban: return urban_scenario(60).duration(seconds(20)).build();
  }
  return {};
}

struct Row {
  const char* field;  ///< a field table path
  Base base;
  double value;  ///< off the field's default: a time in seconds, a bool as 0 or 1
};

const Row kRows[] = {
    {"aodv.expanding_ring", Base::kAodv, 0},
    {"aodv.intermediate_reply", Base::kMobileAodv, 0},
    {"dsr.intermediate_reply", Base::kMobileDsr, 0},
    {"dsr.salvage", Base::kMobileDsr, 0},
    {"cbrp.local_repair", Base::kMobileCbrp, 0},
    {"olsr.neighb_hold", Base::kOlsr, 3},
    {"olsr.mpr_flooding", Base::kOlsr, 0},
    {"lar.min_expected_radius", Base::kMobileLar, 50},
    {"lar.assumed_v_max", Base::kMobileLar, 200},
    {"lar.route_lifetime", Base::kMobileLar, 4},
    {"mac.ifq_capacity", Base::kLoaded, 1},
    {"mac.rts_threshold", Base::kAodv, 1000},
    {"mac.use_rts", Base::kAodv, 0},
    {"phy.data_rate_bps", Base::kAodv, 1e6},
    {"phy.rx_range_m", Base::kAodv, 200},
    {"phy.cs_range_m", Base::kAodv, 400},
    {"phy.frame_loss_rate", Base::kAodv, 0.05},
    {"phy.street_width_m", Base::kUrban, 40},
    {"phy.nlos_rx_range_m", Base::kUrban, 150},
    {"phy.nlos_loss_rate", Base::kUrban, 0.4},
    {"manhattan.block", Base::kUrban, 100},
    {"manhattan.p_turn", Base::kUrban, 0.1},
};

/// Write `value` into field `f` of `cfg` through the row's accessor.
void set_field(ScenarioConfig& cfg, const Field& f, double value) {
  f.visit(cfg, [value]<typename T>(T& member) {
    if constexpr (std::is_same_v<T, SimTime>) {
      member = seconds_f(value);
    } else if constexpr (std::is_same_v<T, bool>) {
      member = value > 0.0;
    } else {
      member = static_cast<T>(value);
    }
  });
}

TEST(Settings, EveryRemainingFieldChangesTheRun) {
  std::map<Base, std::uint64_t> defaults;
  for (const Row& row : kRows) {
    const Field* f = test::find_field(row.field);
    ASSERT_NE(f, nullptr) << row.field;
    if (!defaults.contains(row.base)) {
      defaults[row.base] = model_digest(Scenario::run_once(base_config(row.base)));
    }
    ScenarioConfig cfg = base_config(row.base);
    set_field(cfg, *f, row.value);
    EXPECT_NE(model_digest(Scenario::run_once(cfg)), defaults[row.base])
        << row.field << " does not change the run";
  }
}

// A stack or mobility field cannot land without a row above.
TEST(Settings, EveryStackAndMobilityFieldHasARow) {
  for (const Field& f : kFields) {
    const std::string_view path = f.path;
    if (std::ranges::none_of(kStackPrefixes, [&](const char* p) { return path.starts_with(p); })) {
      continue;
    }
    EXPECT_TRUE(std::ranges::any_of(kRows, [&](const Row& r) { return path == r.field; }))
        << path << " has no liveness row";
  }
}

}  // namespace
}  // namespace manet
