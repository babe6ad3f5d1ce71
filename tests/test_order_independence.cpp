// Hash-order independence regression test.
//
// PR 2 replaced hash-order-sensitive containers (CBRP neighbour/route
// tables, ARP cache/pending queue, Wi-Fi dedup table) with ordered
// equivalents. Those sites were audited as order-independent — sorted
// copies, min-selects, or pure keyed lookups — so the swap must not change
// behaviour at all. This test pins full per-seed metric fingerprints
// captured immediately BEFORE the container swap; if any conversion (or a
// future "harmless" container change) perturbs a single event, the exact
// event counts diverge and this fails.
//
// Regenerate after an intentional behaviour change:
//   MANET_PRINT_GOLDENS=1 ./build/tests/test_order_independence
// and paste the printed table over kGoldens below.

#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "testutil.hpp"

namespace manet {
namespace {

struct Case {
  Protocol protocol;
  std::uint64_t seed;
};

constexpr Case kCases[] = {
    {Protocol::kAodv, 1}, {Protocol::kDsr, 1},  {Protocol::kCbrp, 1}, {Protocol::kCbrp, 2},
    {Protocol::kDsdv, 1}, {Protocol::kOlsr, 1}, {Protocol::kLar, 1}, {Protocol::kTora, 1},
};

ScenarioConfig config_for(const Case& c) {
  ScenarioConfig cfg;
  cfg.protocol = c.protocol;
  cfg.seed = c.seed;
  cfg.num_nodes = 14;
  cfg.area = {650.0, 650.0};
  cfg.v_max = 6.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(25);
  return cfg;
}

/// Everything observable a run produces, as one exact-match string. Counters
/// are exact integers; double-valued metrics are rendered with %.12g, which
/// distinguishes any behavioural change while tolerating sub-ULP printing
/// differences across libcs.
std::string fingerprint(const Case& c) {
  const auto r = Scenario::run_once(config_for(c));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s seed=%llu events=%llu orig=%llu deliv=%llu rtx=%llu mac=%llu "
                "pdr=%.12g delay=%.12g nrl=%.12g hops=%.12g",
                to_string(c.protocol), static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.data_originated),
                static_cast<unsigned long long>(r.data_delivered),
                static_cast<unsigned long long>(r.routing_tx),
                static_cast<unsigned long long>(r.mac_ctrl_tx), r.pdr, r.delay_ms, r.nrl,
                r.avg_hops);
  return buf;
}

const char* const kGoldens[] = {
    "AODV seed=1 events=10725 orig=155 deliv=154 rtx=32 mac=816 pdr=0.993548387097 delay=7.6273553961 nrl=0.207792207792 hops=1.65584415584",
    "DSR seed=1 events=10512 orig=155 deliv=155 rtx=36 mac=824 pdr=1 delay=6.59044171613 nrl=0.232258064516 hops=1.66451612903",
    "CBRP seed=1 events=14605 orig=155 deliv=154 rtx=203 mac=911 pdr=0.993548387097 delay=7.21354788312 nrl=1.31818181818 hops=1.83766233766",
    "CBRP seed=2 events=11236 orig=144 deliv=144 rtx=208 mac=1051 pdr=1 delay=11.3331642083 nrl=1.44444444444 hops=2.27777777778",
    "DSDV seed=1 events=16728 orig=155 deliv=155 rtx=471 mac=821 pdr=1 delay=9.90606171613 nrl=3.03870967742 hops=1.67741935484",
    "OLSR seed=1 events=13465 orig=155 deliv=155 rtx=282 mac=800 pdr=1 delay=5.91669034194 nrl=1.81935483871 hops=1.66451612903",
    "LAR seed=1 events=10913 orig=155 deliv=154 rtx=58 mac=818 pdr=0.993548387097 delay=6.57177623377 nrl=0.376623376623 hops=1.65584415584",
    "TORA seed=1 events=11889 orig=155 deliv=126 rtx=420 mac=535 pdr=0.812903225806 delay=7.37855453175 nrl=3.33333333333 hops=1.35714285714",
};

TEST(OrderIndependence, PerSeedMetricsMatchPreConversionGoldens) {
  static_assert(std::size(kCases) == std::size(kGoldens));
  const bool print = std::getenv("MANET_PRINT_GOLDENS") != nullptr;
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const std::string fp = fingerprint(kCases[i]);
    if (print) {
      std::printf("    \"%s\",\n", fp.c_str());
      continue;
    }
    EXPECT_EQ(fp, kGoldens[i]) << "case " << i
                               << ": container conversion changed simulation behaviour";
  }
}

/// A partitioned field: 14 nodes on 1300 m x 1300 m for 60 s. Flows whose
/// destination sits in another component exhaust every retry, so each
/// on-demand protocol gives a discovery up and drops its buffered packets
/// with kNoRoute. DSR needs ~46 s to get there (non-propagating query, then
/// eight floods backing off to 10 s), longer than any dense case above runs.
TEST(OrderIndependence, PartitionedFieldGiveUpMatchesGoldens) {
  const struct {
    Protocol protocol;
    const char* golden;
  } kGiveUpGoldens[] = {
      {Protocol::kAodv,
       "events=8153 orig=715 deliv=169 rtx=130 mac=1048 tretx=0 flows=0 pdr=0.236363636364 delay=317.563860408 nrl=0.769230769231 hops=2 conn=0.191176470588"},
      {Protocol::kDsr,
       "events=7055 orig=715 deliv=169 rtx=48 mac=1061 tretx=0 flows=0 pdr=0.236363636364 delay=171.816672325 nrl=0.284023668639 hops=2 conn=0.191176470588"},
      {Protocol::kCbrp,
       "events=7944 orig=715 deliv=169 rtx=471 mac=891 tretx=0 flows=0 pdr=0.236363636364 delay=723.423644059 nrl=2.78698224852 hops=1.65680473373 conn=0.191176470588"},
      {Protocol::kLar,
       "events=7001 orig=715 deliv=169 rtx=50 mac=1053 tretx=0 flows=0 pdr=0.236363636364 delay=168.755385959 nrl=0.295857988166 hops=2 conn=0.191176470588"},
  };
  for (const auto& g : kGiveUpGoldens) {
    ScenarioConfig cfg = config_for({g.protocol, 1});
    cfg.area = {1300.0, 1300.0};
    cfg.duration = seconds(60);
    Scenario run(cfg);
    const ScenarioResult r = run.run();
    EXPECT_GT(run.stats().drops(DropReason::kNoRoute), 0u) << to_string(g.protocol);
    test::expect_golden(test::result_fingerprint(r), g.golden,
                        std::string(to_string(g.protocol)) + " partitioned field");
  }
}

/// The same scenario run twice in-process must be bit-identical — catches
/// any residual global mutable state (a static RNG, a leaked cache).
TEST(OrderIndependence, RepeatRunIsBitIdentical) {
  const Case c{Protocol::kCbrp, 3};
  EXPECT_EQ(fingerprint(c), fingerprint(c));
}

}  // namespace
}  // namespace manet
