// The golden table: every pinned end-to-end run of the suite, in one place.
//
// Each row names a config (a field family, a protocol and a seed) and pins
// its outcome in two columns:
//
//   behaviour  model_digest() (src/scenario/scenario.hpp) followed by one
//              fixed list of readable fields. The digest covers every
//              metric, counter, fault outcome, PHY frame count and flow row
//              bit for bit; the fields say what moved when it does.
//   cost       events=... peak_queue=...: the kernel's work for the run.
//
// A change that only makes the simulator faster moves the cost column and
// nothing else; a model change moves the behaviour column. Regenerate after
// a deliberate change with
//
//   MANET_PRINT_GOLDENS=1 ./build/tests/test_goldens
//
// which prints both tables below with fresh literals, ready to paste over
// them. The rows: every protocol on a dense field (plus a second CBRP seed),
// which also pins that no container's hash order reaches the simulation;
// the on-demand protocols giving discoveries up on a partitioned field;
// every protocol under node crashes; two faulted runs with the reliable
// transport; every protocol with the transport; and the urban city.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>

#include "mobility/manhattan.hpp"
#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

bool print_goldens() { return std::getenv("MANET_PRINT_GOLDENS") != nullptr; }

/// The config families of the table; each row adds a protocol and a seed.
enum class Family : std::uint8_t {
  kDense,             ///< test::dense_field(): 14 nodes, 650 m, 4 flows, 25 s
  kPartitioned,       ///< the same nodes on 1300 m for 60 s: discoveries give up
  kFaulted,           ///< test::faulted_field(): node crashes
  kTransport,         ///< dense field with the reliable transport on
  kTransportFaulted,  ///< faulted field with the reliable transport on
  kUrban,             ///< urban_scenario(60) for 20 s
};

const char* to_string(Family f) {
  switch (f) {
    case Family::kDense: return "kDense";
    case Family::kPartitioned: return "kPartitioned";
    case Family::kFaulted: return "kFaulted";
    case Family::kTransport: return "kTransport";
    case Family::kTransportFaulted: return "kTransportFaulted";
    case Family::kUrban: return "kUrban";
  }
  return "?";
}

ScenarioConfig config_of(Family f, const char* protocol, std::uint64_t seed) {
  const ProtocolEntry* e = find_protocol(protocol);
  EXPECT_NE(e, nullptr) << protocol;
  const Protocol p = e != nullptr ? e->id : Protocol::kAodv;
  ScenarioConfig cfg = test::dense_field(p, seed);
  switch (f) {
    case Family::kDense: break;
    case Family::kPartitioned:
      cfg.area = {1300.0, 1300.0};
      cfg.duration = seconds(60);
      break;
    case Family::kFaulted: cfg = test::faulted_field(p, seed); break;
    case Family::kTransport: cfg.transport.enabled = true; break;
    case Family::kTransportFaulted:
      cfg = test::faulted_field(p, seed);
      cfg.transport.enabled = true;
      break;
    case Family::kUrban:
      cfg = urban_scenario(60).protocol(p).seed(seed).duration(seconds(20)).build();
      break;
  }
  return cfg;
}

/// The behaviour column: the digest, then the readable fields.
std::string behaviour(const ScenarioResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "digest=%016" PRIx64 " orig=%" PRIu64 " deliv=%" PRIu64 " rtx=%" PRIu64
                " mac=%" PRIu64 " tretx=%" PRIu64 " flows=%zu pdr=%.12g delay=%.12g nrl=%.12g"
                " hops=%.12g conn=%.12g crashes=%" PRIu64 " corrupt=%" PRIu64 " during=%" PRIu64
                " after=%" PRIu64 " repair=%.12g",
                model_digest(r), r.data_originated, r.data_delivered, r.routing_tx,
                r.mac_ctrl_tx, r.retransmissions, r.flows.size(), r.pdr, r.delay_ms, r.nrl,
                r.avg_hops, r.connectivity, r.crashes, r.fault_corrupted,
                r.delivered_during_fault, r.delivered_after_fault, r.repair_latency_ms);
  return buf;
}

/// The cost column.
std::string cost(const ScenarioResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "events=%" PRIu64 " peak_queue=%zu", r.events,
                r.peak_queue_depth);
  return buf;
}

struct Golden {
  Family family;
  const char* protocol;
  std::uint64_t seed;
  const char* behaviour;
  const char* cost;
};

// clang-format off
const Golden kGoldens[] = {
    {Family::kDense, "AODV", 1,
     "digest=d5540c771e06c0fc orig=155 deliv=154 rtx=32 mac=816 tretx=0 flows=0 "
     "pdr=0.993548387097 delay=7.6273553961 nrl=0.207792207792 hops=1.65584415584 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=10725 peak_queue=48"},
    {Family::kDense, "DSR", 1,
     "digest=9d7191c0930d0bb9 orig=155 deliv=155 rtx=36 mac=824 tretx=0 flows=0 "
     "pdr=1 delay=6.59044171613 nrl=0.232258064516 hops=1.66451612903 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=10512 peak_queue=34"},
    {Family::kDense, "CBRP", 1,
     "digest=38427e98cb0b5f03 orig=155 deliv=154 rtx=203 mac=911 tretx=0 flows=0 "
     "pdr=0.993548387097 delay=7.21354788312 nrl=1.31818181818 hops=1.83766233766 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=14605 peak_queue=37"},
    {Family::kDense, "CBRP", 2,
     "digest=2fbc41a8a3d9acd5 orig=144 deliv=144 rtx=208 mac=1051 tretx=0 flows=0 "
     "pdr=1 delay=11.3331642083 nrl=1.44444444444 hops=2.27777777778 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=11236 peak_queue=35"},
    {Family::kDense, "DSDV", 1,
     "digest=2fc0c46f593faaba orig=155 deliv=155 rtx=471 mac=821 tretx=0 flows=0 "
     "pdr=1 delay=9.90606171613 nrl=3.03870967742 hops=1.67741935484 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=16728 peak_queue=63"},
    {Family::kDense, "OLSR", 1,
     "digest=54ee203a949b53ba orig=155 deliv=155 rtx=282 mac=800 tretx=0 flows=0 "
     "pdr=1 delay=5.91669034194 nrl=1.81935483871 hops=1.66451612903 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=13465 peak_queue=56"},
    {Family::kDense, "LAR", 1,
     "digest=5f26eaff261a72d5 orig=155 deliv=154 rtx=58 mac=818 tretx=0 flows=0 "
     "pdr=0.993548387097 delay=6.57177623377 nrl=0.376623376623 hops=1.65584415584 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=10913 peak_queue=33"},
    {Family::kDense, "TORA", 1,
     "digest=c3d96476ff432070 orig=155 deliv=126 rtx=420 mac=535 tretx=0 flows=0 "
     "pdr=0.812903225806 delay=7.37855453175 nrl=3.33333333333 hops=1.35714285714 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=11889 peak_queue=72"},
    {Family::kPartitioned, "AODV", 1,
     "digest=e066927c8237327a orig=715 deliv=169 rtx=130 mac=1048 tretx=0 flows=0 "
     "pdr=0.236363636364 delay=317.563860408 nrl=0.769230769231 hops=2 "
     "conn=0.191176470588 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=8153 peak_queue=34"},
    {Family::kPartitioned, "DSR", 1,
     "digest=7f172fe847cb5770 orig=715 deliv=169 rtx=48 mac=1061 tretx=0 flows=0 "
     "pdr=0.236363636364 delay=171.816672325 nrl=0.284023668639 hops=2 "
     "conn=0.191176470588 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=7055 peak_queue=20"},
    {Family::kPartitioned, "CBRP", 1,
     "digest=5a8b8c6f8fcb456b orig=715 deliv=169 rtx=471 mac=891 tretx=0 flows=0 "
     "pdr=0.236363636364 delay=723.423644059 nrl=2.78698224852 hops=1.65680473373 "
     "conn=0.191176470588 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=7944 peak_queue=34"},
    {Family::kPartitioned, "LAR", 1,
     "digest=87df2433b88d30a9 orig=715 deliv=169 rtx=50 mac=1053 tretx=0 flows=0 "
     "pdr=0.236363636364 delay=168.755385959 nrl=0.295857988166 hops=2 "
     "conn=0.191176470588 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=7001 peak_queue=20"},
    {Family::kFaulted, "AODV", 1,
     "digest=6bcbf6bd76ca9677 orig=155 deliv=103 rtx=120 mac=519 tretx=0 flows=0 "
     "pdr=0.664516129032 delay=13.7793403301 nrl=1.16504854369 hops=1.41747572816 "
     "conn=1 crashes=14 corrupt=0 during=103 after=0 repair=193.809308727",
     "events=6879 peak_queue=68"},
    {Family::kFaulted, "DSR", 1,
     "digest=a8789cbca1567011 orig=155 deliv=100 rtx=127 mac=623 tretx=0 flows=0 "
     "pdr=0.645161290323 delay=9.51758554 nrl=1.27 hops=1.46 "
     "conn=1 crashes=14 corrupt=0 during=100 after=0 repair=186.249841273",
     "events=7660 peak_queue=54"},
    {Family::kFaulted, "CBRP", 1,
     "digest=f63007b3e5d8542d orig=155 deliv=99 rtx=216 mac=491 tretx=0 flows=0 "
     "pdr=0.638709677419 delay=940.866321424 nrl=2.18181818182 hops=1.39393939394 "
     "conn=1 crashes=14 corrupt=0 during=99 after=0 repair=282.556566818",
     "events=7821 peak_queue=52"},
    {Family::kFaulted, "DSDV", 1,
     "digest=223080c5975e6b14 orig=155 deliv=91 rtx=370 mac=455 tretx=0 flows=0 "
     "pdr=0.587096774194 delay=4.89582897802 nrl=4.06593406593 hops=1.34065934066 "
     "conn=1 crashes=14 corrupt=0 during=91 after=0 repair=253.654259182",
     "events=9531 peak_queue=88"},
    {Family::kFaulted, "OLSR", 1,
     "digest=1dfa8c7fc0e769c7 orig=155 deliv=84 rtx=227 mac=559 tretx=0 flows=0 "
     "pdr=0.541935483871 delay=4.64838334524 nrl=2.70238095238 hops=1.28571428571 "
     "conn=1 crashes=14 corrupt=0 during=84 after=0 repair=266.919917727",
     "events=8079 peak_queue=79"},
    {Family::kFaulted, "LAR", 1,
     "digest=60af030d387308a7 orig=155 deliv=103 rtx=148 mac=530 tretx=0 flows=0 "
     "pdr=0.664516129032 delay=6.51691608738 nrl=1.43689320388 hops=1.41747572816 "
     "conn=1 crashes=14 corrupt=0 during=103 after=0 repair=184.723965273",
     "events=7174 peak_queue=45"},
    {Family::kFaulted, "TORA", 1,
     "digest=5c06597c3fadc815 orig=155 deliv=102 rtx=442 mac=490 tretx=0 flows=0 "
     "pdr=0.658064516129 delay=10.1354331373 nrl=4.33333333333 hops=1.41176470588 "
     "conn=1 crashes=14 corrupt=0 during=102 after=0 repair=186.209263818",
     "events=10490 peak_queue=92"},
    {Family::kTransportFaulted, "AODV", 1,
     "digest=43f386742613d6e8 orig=155 deliv=103 rtx=123 mac=1006 tretx=7 flows=4 "
     "pdr=0.664516129032 delay=14.660354165 nrl=1.19417475728 hops=1.41747572816 "
     "conn=1 crashes=14 corrupt=0 during=103 after=0 repair=193.846399636",
     "events=11749 peak_queue=69"},
    {Family::kTransportFaulted, "DSDV", 1,
     "digest=694499ef78cfa768 orig=155 deliv=100 rtx=370 mac=986 tretx=13 flows=4 "
     "pdr=0.645161290323 delay=1239.83154455 nrl=3.7 hops=1.4 "
     "conn=1 crashes=14 corrupt=0 during=100 after=0 repair=276.018800364",
     "events=15734 peak_queue=88"},
    {Family::kTransport, "AODV", 1,
     "digest=0b20a4772790a794 orig=155 deliv=155 rtx=32 mac=1612 tretx=1 flows=4 "
     "pdr=1 delay=24.4912135355 nrl=0.206451612903 hops=1.66451612903 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=20350 peak_queue=49"},
    {Family::kTransport, "DSR", 1,
     "digest=c31833b438dc6a9a orig=155 deliv=155 rtx=36 mac=1612 tretx=0 flows=4 "
     "pdr=1 delay=6.65363146452 nrl=0.232258064516 hops=1.66451612903 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=20037 peak_queue=35"},
    {Family::kTransport, "CBRP", 1,
     "digest=c10e5245930fcb60 orig=155 deliv=155 rtx=233 mac=1735 tretx=0 flows=4 "
     "pdr=1 delay=6.29110536774 nrl=1.50322580645 hops=1.66451612903 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=25998 peak_queue=40"},
    {Family::kTransport, "DSDV", 1,
     "digest=ee4845a6a438eee0 orig=155 deliv=155 rtx=464 mac=1622 tretx=0 flows=4 "
     "pdr=1 delay=6.1661884129 nrl=2.9935483871 hops=1.67741935484 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=26774 peak_queue=63"},
    {Family::kTransport, "OLSR", 1,
     "digest=844176a4c0267272 orig=155 deliv=155 rtx=282 mac=1591 tretx=0 flows=4 "
     "pdr=1 delay=5.99328171613 nrl=1.81935483871 hops=1.66451612903 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=23238 peak_queue=57"},
    {Family::kTransport, "LAR", 1,
     "digest=6d9f171ac02ef201 orig=155 deliv=155 rtx=114 mac=1759 tretx=1 flows=4 "
     "pdr=1 delay=26.3854300194 nrl=0.735483870968 hops=1.85161290323 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=25329 peak_queue=37"},
    {Family::kTransport, "TORA", 1,
     "digest=de049f5f67f6618c orig=155 deliv=155 rtx=489 mac=1600 tretx=1 flows=4 "
     "pdr=1 delay=25.1729141161 nrl=3.15483870968 hops=1.66451612903 "
     "conn=1 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=26503 peak_queue=74"},
    {Family::kUrban, "AODV", 1,
     "digest=99a4d8a6a0c20261 orig=260 deliv=142 rtx=718 mac=1605 tretx=0 flows=0 "
     "pdr=0.546153846154 delay=473.727128761 nrl=5.05633802817 hops=2.28169014085 "
     "conn=0.527272727273 crashes=0 corrupt=0 during=0 after=0 repair=0",
     "events=27266 peak_queue=123"},
};
// clang-format on

/// Seeded Manhattan trajectories on a 1000 m grid, sampled every 10 s: the
/// street mobility under the urban rows, pinned on its own.
const struct {
  std::uint64_t seed;
  const char* positions;
} kTrajectories[] = {
    {1, "0:(200,800) 10:(101.323166,800) 20:(2.64633289,800) "
     "30:(0,909.644786) 40:(0,996.612748) "},
    {2, "0:(800,800) 10:(800,732.081267) 20:(800,664.162534) "
     "30:(791.780769,600) 40:(643.16249,600) "},
    {3, "0:(800,200) 10:(862.151542,200) 20:(924.303085,200) "
     "30:(986.454627,200) 40:(1000,304.195031) "},
};

std::string trajectory(std::uint64_t seed) {
  ManhattanConfig cfg;
  cfg.area = Area{1000.0, 1000.0};
  Manhattan m(cfg, RngStream(seed, "mobility", 0));
  std::string out;
  for (int t = 0; t <= 40; t += 10) {
    const Vec2 p = m.position_at(seconds(t));
    char buf[64];
    std::snprintf(buf, sizeof buf, "%d:(%.9g,%.9g) ", t, p.x, p.y);
    out += buf;
  }
  return out;
}

/// `s` as adjacent C string literals, broken before each of `breaks`.
std::string literal(const std::string& s, std::initializer_list<const char*> breaks) {
  std::string out = "\"";
  std::size_t from = 0;
  for (const char* b : breaks) {
    const std::size_t at = s.find(b, from);
    if (at == std::string::npos) continue;
    out += s.substr(from, at - from) + "\"\n     \"";
    from = at;
  }
  return out + s.substr(from) + "\"";
}

TEST(Goldens, EveryRowMatchesItsBehaviourAndCost) {
  for (const Golden& g : kGoldens) {
    const std::string name = std::string(to_string(g.family)) + " " + g.protocol +
                             " seed=" + std::to_string(g.seed);
    Scenario run(config_of(g.family, g.protocol, g.seed));
    const ScenarioResult r = run.run();
    if (print_goldens()) {
      std::printf("    {Family::%s, \"%s\", %" PRIu64 ",\n     %s,\n     \"%s\"},\n",
                  to_string(g.family), g.protocol, g.seed,
                  literal(behaviour(r), {"pdr=", "conn="}).c_str(), cost(r).c_str());
      continue;
    }
    EXPECT_EQ(behaviour(r), g.behaviour) << name << ": behaviour moved";
    EXPECT_EQ(cost(r), g.cost) << name << ": cost moved";
    if (g.family == Family::kPartitioned) {
      // Flows into another component must exhaust every retry and drop
      // their parked packets; DSR needs ~46 s to get there.
      EXPECT_GT(run.stats().drops(DropReason::kNoRoute), 0u) << name;
    }
  }
}

TEST(Goldens, ManhattanTrajectoriesMatch) {
  for (const auto& t : kTrajectories) {
    if (print_goldens()) {
      std::printf("    {%" PRIu64 ", %s},\n", t.seed, literal(trajectory(t.seed), {"30:"}).c_str());
      continue;
    }
    EXPECT_EQ(trajectory(t.seed), t.positions) << "seed " << t.seed;
  }
}

/// The same scenario run twice in one process must agree on behaviour and
/// cost: a static RNG or a leaked cache would show here.
TEST(Goldens, RepeatRunIsIdentical) {
  const ScenarioConfig cfg = config_of(Family::kDense, "CBRP", 3);
  test::expect_same_run(Scenario::run_once(cfg), Scenario::run_once(cfg), "CBRP seed 3");
}

}  // namespace
}  // namespace manet
