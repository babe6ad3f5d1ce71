// Trace-driven analysis — the original ns-2 methodology, end to end.
//
// Runs one scenario with event tracing enabled, then post-processes the
// trace file exactly the way the 1998-2001 papers post-processed out.tr
// with awk: recompute packet delivery ratio and per-hop forwarding counts
// from the raw events, and cross-check them against the in-simulator
// metrics. Demonstrates the TraceWriter API and doubles as a sanity check
// that the two accounting paths agree.
//
//   ./build/examples/trace_analysis [aodv|dsr|cbrp|dsdv|olsr|lar]

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  using namespace manet;

  const std::string trace_path = "/tmp/manetsim_trace_analysis.tr";
  ScenarioBuilder builder;
  if (argc > 1) builder.protocol(argv[1]);  // case-insensitive name lookup
  ScenarioConfig cfg = builder.nodes(30)
                           .area(800.0, 800.0)
                           .speed(0.1, 10.0)
                           .connections(6)
                           .duration(seconds(60))
                           .seed(7)
                           .build();
  cfg.trace_path = trace_path;

  std::printf("trace analysis — %s, trace at %s\n\n", to_string(cfg.protocol),
              trace_path.c_str());
  const ScenarioResult r = Scenario::run_once(cfg);

  // awk-style pass over the trace.
  std::ifstream in(trace_path);
  std::uint64_t sends = 0, receives = 0, forwards = 0, drops = 0;
  std::map<std::string, int> drop_reasons;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Format: <ev> <time> _<node>_ RTR <uid> <type> <bytes> [<src> -> <dst>] <note>
    std::istringstream ls(line);
    char ev;
    double t;
    std::string node, layer, type;
    std::uint64_t uid, bytes;
    ls >> ev >> t >> node >> layer >> uid >> type >> bytes;
    if (type != "cbr") continue;
    switch (ev) {
      case 's': ++sends; break;
      case 'r': ++receives; break;
      case 'f': ++forwards; break;
      case 'D': {
        ++drops;
        std::string bracket, arrow, dst, reason;
        ls >> bracket >> arrow >> dst >> reason;
        ++drop_reasons[reason];
        break;
      }
      default: break;
    }
  }

  const double trace_pdr = sends > 0 ? static_cast<double>(receives) / sends : 0.0;
  std::printf("from the trace:\n");
  std::printf("  data sends    : %llu\n", static_cast<unsigned long long>(sends));
  std::printf("  data receives : %llu  (PDR %.1f %%)\n",
              static_cast<unsigned long long>(receives), trace_pdr * 100.0);
  std::printf("  forwards      : %llu  (%.2f per delivered packet)\n",
              static_cast<unsigned long long>(forwards),
              receives ? static_cast<double>(forwards) / receives : 0.0);
  std::printf("  drops         : %llu\n", static_cast<unsigned long long>(drops));
  for (const auto& [reason, n] : drop_reasons) {
    std::printf("      %-18s %d\n", reason.c_str(), n);
  }

  std::printf("\nfrom the in-simulator metrics:\n");
  std::printf("  PDR %.1f %%, delay %.2f ms, NRL %.2f, NML %.2f\n", r.pdr * 100.0, r.delay_ms,
              r.nrl, r.nml);

  const bool agree =
      sends == r.data_originated && receives == r.data_delivered;
  std::printf("\ncross-check: trace and metrics %s\n",
              agree ? "AGREE exactly" : "DISAGREE (bug!)");
  return agree ? 0 : 1;
}
