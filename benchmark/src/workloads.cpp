#include "workloads.hpp"

#include <string>

namespace manet::benchmark {
namespace {

// The seed draws the topology and the flows' end points, and with them how
// much there is to simulate: one seed of paper_trio runs 3x the events of
// another. A pass's host time must not move with the base seed, so each pass
// runs many seeds of a shorter run rather than a few long ones; runs of
// consecutive base seeds then share most of their seeds. Durations and seed
// counts keep one pass near 7-11 s on a 4-vCPU Xeon container.

std::string label(const ScenarioConfig& cfg) {
  return std::string(to_string(cfg.protocol)) + "/seed=" + std::to_string(cfg.seed);
}

void add(std::vector<Replication>& out, const ScenarioConfig& cfg) {
  out.push_back({label(cfg), cfg});
}

// Boukerche's pause-0 cell: 40 nodes on the 1500 x 300 m strip, RWP
// 0.1-20 m/s, 10 CBR flows x 4 pkt/s x 512 B, 50 s (the flows start over
// 10-20 s); 12 seeds x 3 protocols.
std::vector<Replication> paper_trio(std::uint64_t seed) {
  std::vector<Replication> out;
  for (std::uint64_t s = seed; s < seed + 12; ++s) {
    for (const Protocol p : {Protocol::kAodv, Protocol::kDsr, Protocol::kCbrp}) {
      add(out, ScenarioBuilder()
                   .protocol(p)
                   .seed(s)
                   .nodes(40)
                   .area(1500.0, 300.0)
                   .speed(0.1, 20.0)
                   .pause(SimTime::zero())
                   .connections(10)
                   .duration(seconds(50))
                   .build());
    }
  }
  return out;
}

// OLSR on 100 static nodes in 1000 x 1000 m with 5 CBR flows, 50 s; 8 seeds.
std::vector<Replication> proactive_static(std::uint64_t seed) {
  std::vector<Replication> out;
  for (std::uint64_t s = seed; s < seed + 8; ++s) {
    add(out, ScenarioBuilder()
                 .protocol(Protocol::kOlsr)
                 .seed(s)
                 .nodes(100)
                 .area(1000.0, 1000.0)
                 .static_nodes()
                 .connections(5)
                 .duration(seconds(50))
                 .build());
  }
  return out;
}

// The fig_load_collapse sources:48 cell: AODV, 40 nodes, 1500 x 300 m,
// v_max 10, 48 closed-loop reliable-transport flows, 40 s; 12 seeds.
std::vector<Replication> load_transport(std::uint64_t seed) {
  TransportConfig transport;
  transport.enabled = true;
  std::vector<Replication> out;
  for (std::uint64_t s = seed; s < seed + 12; ++s) {
    add(out, ScenarioBuilder()
                 .protocol(Protocol::kAodv)
                 .seed(s)
                 .nodes(40)
                 .area(1500.0, 300.0)
                 .speed(0.1, 10.0)
                 .connections(48)
                 .transport(transport)
                 .duration(seconds(40))
                 .build());
  }
  return out;
}

// urban_scenario(5000): 10 km x 10 km Manhattan grid with street-canyon
// shadowing and 50 flows, AODV, 20 s (the flows start over 10-20 s, so the
// run ends inside their route-discovery storm); 6 seeds.
std::vector<Replication> urban_city(std::uint64_t seed) {
  std::vector<Replication> out;
  for (std::uint64_t s = seed; s < seed + 6; ++s) {
    add(out, urban_scenario(5000).protocol(Protocol::kAodv).seed(s).duration(seconds(20)).build());
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper_trio",
       "the paper's own AODV/DSR/CBRP cell at light load: PHY/MAC dominated, the control case "
       "for routing-only changes",
       paper_trio},
      {"proactive_static",
       "OLSR HELLO/TC floods and route recomputation on a dense static field: routing-bound, "
       "no mobility",
       proactive_static},
      {"load_transport",
       "saturated unicast RTS/CTS/ACK, IFQ overflow and transport RTO/ACK work under 48 "
       "closed-loop flows",
       load_transport},
      {"urban_city",
       "5000-node Manhattan city: grid-local PHY, mobility refresh, a deep event queue and "
       "RREQ storms; the set-up and memory case",
       urban_city},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace manet::benchmark
