// Every setting a scenario can still choose is live.
//
// ScenarioConfig's stack and mobility blocks hold only fields that some
// scenario file, DSL key or test sets; the fixed protocol, MAC, PHY and
// mobility values are named constants of their modules (RFC 3561, RFC 3626,
// the CBRP draft, ns-2's CMU 802.11). Each row below runs a short base
// scenario with one remaining field moved off its default and expects the
// run's model_digest to differ from the default run's. A field that nothing
// reads, or that Scenario::build overwrites, fails its row.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "scenario/builder.hpp"
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
  const char* field;  ///< the field path, as check() and the DSL name it
  Base base;
  void (*set)(ScenarioConfig&);  ///< moves the field off its default
};

const Row kRows[] = {
    {"aodv.expanding_ring", Base::kAodv, [](ScenarioConfig& c) { c.aodv.expanding_ring = false; }},
    {"aodv.intermediate_reply", Base::kMobileAodv,
     [](ScenarioConfig& c) { c.aodv.intermediate_reply = false; }},
    {"dsr.intermediate_reply", Base::kMobileDsr,
     [](ScenarioConfig& c) { c.dsr.intermediate_reply = false; }},
    {"dsr.salvage", Base::kMobileDsr, [](ScenarioConfig& c) { c.dsr.salvage = false; }},
    {"cbrp.local_repair", Base::kMobileCbrp,
     [](ScenarioConfig& c) { c.cbrp.local_repair = false; }},
    {"olsr.neighb_hold", Base::kOlsr, [](ScenarioConfig& c) { c.olsr.neighb_hold = seconds(3); }},
    {"olsr.mpr_flooding", Base::kOlsr, [](ScenarioConfig& c) { c.olsr.mpr_flooding = false; }},
    {"lar.min_expected_radius", Base::kMobileLar,
     [](ScenarioConfig& c) { c.lar.min_expected_radius = 50.0; }},
    {"lar.assumed_v_max", Base::kMobileLar, [](ScenarioConfig& c) { c.lar.assumed_v_max = 200.0; }},
    {"lar.route_lifetime", Base::kMobileLar,
     [](ScenarioConfig& c) { c.lar.route_lifetime = seconds(4); }},
    {"mac.ifq_capacity", Base::kLoaded, [](ScenarioConfig& c) { c.mac.ifq_capacity = 1; }},
    {"mac.rts_threshold", Base::kAodv, [](ScenarioConfig& c) { c.mac.rts_threshold = 1000; }},
    {"mac.use_rts", Base::kAodv, [](ScenarioConfig& c) { c.mac.use_rts = false; }},
    {"phy.data_rate_bps", Base::kAodv, [](ScenarioConfig& c) { c.phy.data_rate_bps = 1e6; }},
    {"phy.rx_range_m", Base::kAodv, [](ScenarioConfig& c) { c.phy.rx_range_m = 200.0; }},
    {"phy.cs_range_m", Base::kAodv, [](ScenarioConfig& c) { c.phy.cs_range_m = 400.0; }},
    {"phy.frame_loss_rate", Base::kAodv, [](ScenarioConfig& c) { c.phy.frame_loss_rate = 0.05; }},
    {"phy.street_width_m", Base::kUrban, [](ScenarioConfig& c) { c.phy.street_width_m = 40.0; }},
    {"phy.nlos_rx_range_m", Base::kUrban,
     [](ScenarioConfig& c) { c.phy.nlos_rx_range_m = 150.0; }},
    {"phy.nlos_loss_rate", Base::kUrban, [](ScenarioConfig& c) { c.phy.nlos_loss_rate = 0.4; }},
    {"manhattan.block", Base::kUrban, [](ScenarioConfig& c) { c.manhattan.block = 100.0; }},
    {"manhattan.p_turn", Base::kUrban, [](ScenarioConfig& c) { c.manhattan.p_turn = 0.1; }},
};

TEST(Settings, EveryRemainingFieldChangesTheRun) {
  std::map<Base, std::uint64_t> defaults;
  for (const Row& row : kRows) {
    if (!defaults.contains(row.base)) {
      defaults[row.base] = model_digest(Scenario::run_once(base_config(row.base)));
    }
    ScenarioConfig cfg = base_config(row.base);
    row.set(cfg);
    EXPECT_NE(model_digest(Scenario::run_once(cfg)), defaults[row.base])
        << row.field << " does not change the run";
  }
}

}  // namespace
}  // namespace manet
