// Quickstart: simulate 50 mobile nodes running AODV for 150 seconds, print
// the whole config (describe(): Table I and every other field) and the four
// canonical metrics. Pass any protocol name to compare (the
// lookup is case-insensitive and rejects typos with the full list of
// protocol names).
//
//   ./build/examples/quickstart [aodv|dsr|cbrp|dsdv|olsr|lar|tora] [seed]

#include <cstdio>
#include <cstdlib>

#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  manet::ScenarioBuilder builder;
  if (argc > 1) builder.protocol(argv[1]);
  builder.seed(argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42);
  const manet::ScenarioConfig cfg = builder.build();

  std::printf("manetsim quickstart — %s, %u nodes, %g s\n\n",
              manet::to_string(cfg.protocol), cfg.num_nodes, cfg.duration.sec());
  std::printf("%s\n", manet::describe(cfg).c_str());

  const manet::ScenarioResult r = manet::Scenario::run_once(cfg);

  std::printf("Results:\n");
  std::printf("  packet delivery ratio : %.1f %%\n", r.pdr * 100.0);
  std::printf("  avg end-to-end delay  : %.2f ms\n", r.delay_ms);
  std::printf("  normalized routing ld : %.2f tx/pkt\n", r.nrl);
  std::printf("  normalized MAC load   : %.2f tx/pkt\n", r.nml);
  std::printf("  throughput            : %.1f kbit/s\n", r.throughput_kbps);
  std::printf("  avg hops              : %.2f\n", r.avg_hops);
  std::printf("  oracle connectivity   : %.1f %% (PDR upper bound)\n", r.connectivity * 100.0);
  std::printf("  data sent/delivered   : %llu / %llu\n",
              static_cast<unsigned long long>(r.data_originated),
              static_cast<unsigned long long>(r.data_delivered));
  std::printf("  events executed       : %llu\n",
              static_cast<unsigned long long>(r.events));
  return 0;
}
