// Protocol shootout: run all seven routing protocols on the *same* random
// scenario (identical mobility and traffic, thanks to named RNG streams) and
// print a side-by-side comparison — a one-command mini version of the
// paper's whole evaluation. The (protocol × seed) grid runs as one sweep on
// a shared worker pool, and a JSON artifact lands in results/.
//
//   ./build/examples/protocol_shootout [nodes] [vmax] [seeds]

#include <cstdio>
#include <cstdlib>

#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

int main(int argc, char** argv) {
  using namespace manet;

  ScenarioBuilder base;
  base.nodes(argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 50)
      .speed(0.1, argc > 2 ? std::atof(argv[2]) : 10.0)
      .duration(seconds(120))
      .seed(1000);
  const int seeds = argc > 3 ? std::atoi(argv[3]) : 3;

  // Every row of the protocol table gets a sweep cell, so protocol #8 shows
  // up here with zero changes to this file.
  std::vector<SweepCell> cells;
  for (const ProtocolEntry& entry : kProtocols) {
    cells.push_back({entry.name, base.protocol(entry.name).build()});
  }
  const ScenarioConfig ref = cells.front().config;

  std::printf("protocol shootout: %u nodes, v_max %.0f m/s, %d seeds, %.0f s each\n\n",
              ref.num_nodes, ref.v_max, seeds, ref.duration.sec());

  const SweepRunner runner(seeds);
  SweepResult sweep = runner.run(cells);
  sweep.name = "protocol_shootout";

  std::printf("%-6s | %8s | %10s | %8s | %8s | %12s\n", "proto", "PDR %", "delay ms",
              "NRL", "NML", "kbit/s");
  std::printf("-------+----------+------------+----------+----------+-------------\n");
  for (const SweepCellResult& cell : sweep.cells) {
    const Aggregate& a = cell.aggregate;
    std::printf("%-6s | %8.1f | %10.2f | %8.2f | %8.2f | %12.1f\n", cell.label.c_str(),
                a.pdr.mean * 100.0, a.delay_ms.mean, a.nrl.mean, a.nml.mean,
                a.throughput_kbps.mean);
  }
  std::printf("\nSame seed => identical mobility & traffic for every protocol.\n");
  std::printf("%zu cells x %d seeds on %u threads: %llu events\n", sweep.cells.size(),
              sweep.seeds_per_cell, runner.threads(),
              static_cast<unsigned long long>(sweep.total_events));
  if (sweep.write_json("results/protocol_shootout.json")) {
    std::printf("artifact: results/protocol_shootout.json\n");
  }
  return 0;
}
