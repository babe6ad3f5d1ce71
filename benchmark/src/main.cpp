// manet_bench: the repository benchmark.
//
//   manet_bench --workload NAME --seed N --trace 0|1
//               [--passes P] [--out FILE] [--trace-file FILE]
//   manet_bench --selftest
//   manet_bench --list
//
// Untraced (--trace 0): run P passes of the workload (default 3), timing
// each replication, and set-up alone after each pass, with the host-speed
// probe run between them (run_s, setup_s), then read the process's peak RSS
// (peak_rss_mb). Traced
// (--trace 1): one untraced pass, one pass with taps on the layer seams, then
// the isolated layer drivers; prints the per-layer table. Both modes check
// every replication, print `name value unit` lines, and end standard output
// with one JSON object. Exit status 1 when a check failed.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "drivers.hpp"
#include "host_speed.hpp"
#include "runner.hpp"

#ifndef MANET_BENCH_BUILD_TYPE
#define MANET_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MANET_BENCH_COMPILER
#define MANET_BENCH_COMPILER "unknown"
#endif

namespace manet::benchmark {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Peak resident set of this program image. VmHWM, unlike getrusage's
/// ru_maxrss, restarts at exec, so the shell or interpreter that launched
/// the benchmark does not leak into it.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

// -- provenance ---------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Provenance {
  std::string git_sha = "unknown";
  std::string compiler = MANET_BENCH_COMPILER;
  std::string build_type = MANET_BENCH_BUILD_TYPE;
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string cpu = cpu_model();

  Provenance() {
    // benchmark/run.sh exports it; a checkout without git metadata has none.
    if (const char* sha = std::getenv("MANET_BENCH_GIT_SHA"); sha != nullptr && *sha != '\0') {
      git_sha = sha;
    }
  }

  [[nodiscard]] std::string json() const {
    return "{\"git_sha\":" + json_string(git_sha) + ",\"compiler\":" + json_string(compiler) +
           ",\"build_type\":" + json_string(build_type) + ",\"nproc\":" + std::to_string(nproc) +
           ",\"cpu\":" + json_string(cpu) + "}";
  }
};

// -- output -------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  int passes = 3;
  std::string out;
  std::string trace_file;
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + number(metrics[i].value) +
           ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Print the table and the result line, write --out, and return the exit
/// status. `samples` describes n for the reader; `info` metrics are printed
/// and written to --out but are not part of the result line; `extra` is
/// appended to the --out object.
int finish(const Options& opt, const Workload& w, const Checker& checker, std::uint64_t digest,
           const std::string& samples, const std::vector<Metric>& metrics,
           const std::vector<Metric>& info, const std::string& extra) {
  const Provenance prov;
  const double failed_frac =
      ratio(static_cast<double>(checker.failed()), static_cast<double>(checker.attempted()));
  std::printf("workload %s  seed %" PRIu64 "  trace %d  %s\n", w.name, opt.seed,
              opt.trace ? 1 : 0, samples.c_str());
  std::printf("provenance git=%s compiler=\"%s\" build=%s nproc=%ld cpu=\"%s\"\n",
              prov.git_sha.c_str(), prov.compiler.c_str(), prov.build_type.c_str(), prov.nproc,
              prov.cpu.c_str());
  std::printf("model_digest %016" PRIx64 "\n", digest);
  for (const std::vector<Metric>* list : {&metrics, &info}) {
    for (const Metric& m : *list) std::printf("%-26s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("%-26s %.6g ratio (%" PRIu64 " failed of %" PRIu64 " replications)\n",
              "failed_frac", failed_frac, checker.failed(), checker.attempted());

  const std::string metrics_obj = metrics_json(metrics);
  if (!opt.out.empty()) {
    std::FILE* f = std::fopen(opt.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "manet_bench: cannot write %s\n", opt.out.c_str());
    } else {
      char digest_hex[20];
      std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);
      const std::string body =
          "{\"workload\":" + json_string(w.name) + ",\"seed\":" + std::to_string(opt.seed) +
          ",\"trace\":" + (opt.trace ? "1" : "0") + ",\"passes\":" + std::to_string(opt.passes) +
          ",\"samples\":" + json_string(samples) + ",\"model_digest\":\"" + digest_hex +
          "\",\"provenance\":" + prov.json() +
          ",\"attempted\":" + std::to_string(checker.attempted()) +
          ",\"failed\":" + std::to_string(checker.failed()) +
          ",\"failed_frac\":" + number(failed_frac) + ",\"metrics\":" + metrics_obj +
          ",\"info\":" + metrics_json(info) + extra + "}\n";
      std::fputs(body.c_str(), f);
      std::fclose(f);
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"metrics\":%s}\n",
              checker.failed() == 0 ? "true" : "false", checker.attempted(), checker.failed(),
              metrics_obj.c_str());
  std::fflush(stdout);
  return checker.failed() == 0 ? 0 : 1;
}

// -- the two modes --------------------------------------------------------------

int run_untraced(const Options& opt, const Workload& w) {
  const std::vector<Replication> reps = w.pass(opt.seed);
  Checker checker(w.name);
  HostSpeedProbe probe;

  // Exactly --passes passes. Each replication keeps one sample per pass and
  // the pass time sums their medians, so a burst of host noise in one
  // replication of one pass does not move it. After each pass, set-up alone
  // is sampled kSetupRounds times. A pass's set-up takes well under a
  // millisecond on the small workloads, so one sample repeats it until about
  // kSetupNodes nodes are built and reports the time of one. Every sample is
  // kept both as measured and scaled to nominal host speed by the probe runs
  // on either side of it.
  constexpr int kSetupRounds = 5;
  constexpr std::size_t kSetupNodes = 20'000;
  std::size_t pass_nodes = 0;
  for (const Replication& rep : reps) pass_nodes += rep.cfg.num_nodes;
  const std::size_t setup_repeats = std::max<std::size_t>(1, kSetupNodes / pass_nodes);
  auto setup_sample = [&] {
    double s = 0;
    for (std::size_t r = 0; r < setup_repeats; ++r) s += setup_seconds(reps);
    return s / static_cast<double>(setup_repeats);
  };
  std::vector<std::vector<double>> raw(reps.size());
  std::vector<std::vector<double>> scaled(reps.size());
  std::vector<double> raw_setup;
  std::vector<double> setup;
  std::vector<double> probe_ns = {probe.ns_per_op()};
  auto timed = [&](double host_s) {
    probe_ns.push_back(probe.ns_per_op());
    return host_s * kNominalNsPerOp / (0.5 * (probe_ns[probe_ns.size() - 2] + probe_ns.back()));
  };
  std::vector<Outcome> reference;
  for (int pass = 0; pass < opt.passes; ++pass) {
    for (std::size_t i = 0; i < reps.size(); ++i) {
      const Outcome o = run_replication(reps[i], nullptr, nullptr);
      checker.check(reps[i], o, pass == 0 ? nullptr : &reference[i]);
      raw[i].push_back(o.seconds);
      scaled[i].push_back(timed(o.seconds));
      if (pass == 0) reference.push_back(o);
    }
    for (int r = 0; r < kSetupRounds; ++r) {
      raw_setup.push_back(setup_sample());
      setup.push_back(timed(raw_setup.back()));
    }
  }
  double run_s = 0;
  double scaled_run_s = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    run_s += median(raw[i]);
    scaled_run_s += median(scaled[i]);
  }
  double events = 0;
  for (const Outcome& o : reference) events += static_cast<double>(o.events);

  // The gated times are at nominal host speed; the info lines give the pass
  // time as measured and the event rate, which a change that removes events
  // can lower while it makes the pass faster.
  const std::vector<Metric> metrics = {
      {"run_s", scaled_run_s, "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  const std::vector<Metric> info = {
      {"measured_run_s", run_s, "s"},
      {"measured_setup_s", median(raw_setup), "s"},
      {"events_per_s", ratio(events, scaled_run_s), "1/s"},
      {"probe_ns", median(probe_ns), "ns"},
  };
  const std::string n = "n=" + std::to_string(opt.passes) + " passes x " +
                        std::to_string(reps.size()) + " replications, " +
                        std::to_string(setup.size()) + " set-up samples";
  return finish(opt, w, checker, pass_digest(reference), n, metrics, info, "");
}

int run_traced(const Options& opt, const Workload& w) {
  const std::vector<Replication> reps = w.pass(opt.seed);
  Checker checker(w.name);
  const SpanCost cal = Tracer::calibrate();
  const double bytes_per_node = built_bytes_per_node(reps);

  Counts counts;
  const std::vector<Outcome> plain = run_pass(reps, checker, {}, nullptr, &counts);
  Tracer tracer(cal);
  const std::vector<Outcome> traced = run_pass(reps, checker, plain, &tracer, nullptr);
  double plain_s = 0;
  double traced_s = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain_s += plain[i].seconds;
    traced_s += traced[i].seconds;
  }

  const ScenarioConfig& shape = reps.front().cfg;
  const double hold_ns =
      event_queue_hold_ns(static_cast<std::size_t>(counts.peak_queue), opt.seed);
  const TransmitCost tx_cost = channel_transmit(shape);
  const double position_ns = mobility_position_ns(shape);

  using K = SpanKind;
  auto count = [&](K k) { return static_cast<double>(tracer.aggregate(k).count); };
  auto self_s = [&](K k) { return tracer.aggregate(k).calibrated_self_ns / 1e9; };
  auto per_call_ns = [&](std::initializer_list<K> ks) {
    double ns = 0;
    double n = 0;
    for (const K k : ks) {
      ns += tracer.aggregate(k).calibrated_self_ns;
      n += count(k);
    }
    return ratio(ns, n);
  };
  const double mac_self = self_s(K::kMacBusyStart) + self_s(K::kMacBusyEnd) + self_s(K::kMacRx);
  const double net_self = self_s(K::kNetDeliver) + self_s(K::kNetLinkFailure);
  const double routing_self =
      self_s(K::kRoutingRoute) + self_s(K::kRoutingControl) + self_s(K::kRoutingLinkFail);
  const double attributed = tracer.attributed_ns() / 1e9;

  // Driver estimates of host time outside the spans. The transmit driver's
  // cost already includes dispatching the arrivals it schedules, so those
  // events leave the event-queue estimate; mobility is queried by the 4 Hz
  // refresh and once per transmitter and candidate receiver.
  const double core_est =
      hold_ns * std::max(0.0, counts.events - counts.phy_tx * tx_cost.events_per_tx) / 1e9;
  const double phy_est = tx_cost.ns_per_tx * counts.phy_tx / 1e9;
  const double mobility_est =
      position_ns *
      (counts.refresh_calls + counts.phy_tx * (1.0 + tx_cost.events_per_tx / 2.0)) / 1e9;
  const double receptions = counts.frames_rx + counts.frames_corrupt;

  std::vector<Metric> m = {
      {"core.events", counts.events, "count"},
      {"core.peak_queue", counts.peak_queue, "count"},
      {"core.hold_ns", hold_ns, "ns"},
      {"phy.tx", counts.phy_tx, "count"},
      {"phy.frames_rx", counts.frames_rx, "count"},
      {"phy.frames_corrupt", counts.frames_corrupt, "count"},
      {"phy.corrupt_ratio", ratio(counts.frames_corrupt, receptions), "ratio"},
      {"phy.fanout", ratio(receptions, counts.phy_tx), "ratio"},
      {"phy.transmit_ns", tx_cost.ns_per_tx, "ns"},
      {"mac.edges", count(K::kMacBusyStart) + count(K::kMacBusyEnd), "count"},
      {"mac.edge_ns", per_call_ns({K::kMacBusyStart, K::kMacBusyEnd}), "ns"},
      {"mac.rx", count(K::kMacRx), "count"},
      {"mac.rx_ns", per_call_ns({K::kMacRx}), "ns"},
      {"mac.self_s", mac_self, "s"},
      {"mac.ctrl_tx", counts.mac_ctrl_tx, "count"},
      {"mac.ifq_drops", counts.ifq_drops, "count"},
      {"mac.retry_drops", counts.retry_drops, "count"},
      {"net.deliver", count(K::kNetDeliver), "count"},
      {"net.deliver_ns", per_call_ns({K::kNetDeliver}), "ns"},
      {"net.link_fail", count(K::kNetLinkFailure), "count"},
      {"net.originated", counts.originated, "count"},
      {"net.delivered", counts.delivered, "count"},
      {"net.pdr", ratio(counts.delivered, counts.originated), "ratio"},
      {"net.arp_tx", counts.arp_tx, "count"},
      {"net.self_s", net_self, "s"},
      {"routing.route", count(K::kRoutingRoute), "count"},
      {"routing.route_ns", per_call_ns({K::kRoutingRoute}), "ns"},
      {"routing.control", count(K::kRoutingControl), "count"},
      {"routing.control_ns", per_call_ns({K::kRoutingControl}), "ns"},
      {"routing.link_fail", count(K::kRoutingLinkFail), "count"},
      {"routing.tx", counts.routing_tx, "count"},
      {"routing.nrl", ratio(counts.routing_tx, counts.delivered), "ratio"},
      {"routing.self_s", routing_self, "s"},
  };
  // Every workload reports every protocol's row (zero when it does not run),
  // so the per-layer table has the same names everywhere.
  const auto per_protocol = tracer.protocol_self_ns();
  for (const char* proto : {"AODV", "DSR", "CBRP", "OLSR"}) {
    double ns = 0;
    for (const auto& [name, self_ns] : per_protocol) {
      if (name == proto) ns = self_ns;
    }
    m.push_back({std::string("routing.") + proto + ".self_s", ns / 1e9, "s"});
  }
  const std::vector<Metric> tail = {
      {"transport.retx", counts.retx, "count"},
      {"transport.giveups", counts.giveups, "count"},
      {"mobility.position_ns", position_ns, "ns"},
      {"mobility.est_s", mobility_est, "s"},
      {"scenario.bytes_per_node", bytes_per_node, "B"},
      {"trace.overhead", ratio(traced_s, plain_s) - 1.0, "ratio"},
      {"trace.attributed_share", ratio(attributed, plain_s), "ratio"},
      {"trace.explained_share", ratio(attributed + core_est + phy_est + mobility_est, plain_s),
       "ratio"},
      {"trace.residual_s", plain_s - attributed, "s"},
  };
  m.insert(m.end(), tail.begin(), tail.end());

  if (!opt.trace_file.empty() && !tracer.write_chrome_trace(opt.trace_file)) {
    std::fprintf(stderr, "manet_bench: cannot write %s\n", opt.trace_file.c_str());
  }
  const std::string extra = ",\"untraced_pass_s\":" + number(plain_s) +
                            ",\"traced_pass_s\":" + number(traced_s) +
                            ",\"span_inside_ns\":" + number(cal.inside_ns) +
                            ",\"span_outside_ns\":" + number(cal.outside_ns) +
                            ",\"estimates_s\":{\"core\":" + number(core_est) +
                            ",\"phy\":" + number(phy_est) +
                            ",\"mobility\":" + number(mobility_est) + "}";
  return finish(opt, w, checker, pass_digest(plain),
                "n=1 untraced + 1 traced pass x " + std::to_string(reps.size()) + " replications",
                m, {}, extra);
}

// -- self-test -------------------------------------------------------------------

/// Busy work the optimizer cannot drop.
void spin(int iterations) {
  volatile double x = 1.0;
  for (int i = 0; i < iterations; ++i) x = x * 1.0000001 + 1e-9;
}

int selftest() {
  constexpr int kSmokeSeconds = 15;
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  const SpanCost cal = Tracer::calibrate();
  std::printf("calibration: inside %.2f ns, outside %.2f ns per span\n", cal.inside_ns,
              cal.outside_ns);
  expect(cal.inside_ns > 0 && cal.outside_ns >= 0, "calibration is positive");

  // Synthetic nested call: each outer span holds three inner ones, with
  // known work around them.
  Tracer t(cal);
  const std::uint8_t slot = t.protocol_slot("TEST");
  for (int rep = 0; rep < 1000; ++rep) {
    const ScopedSpan outer(t, SpanKind::kNetDeliver, 0, 7);
    spin(200);
    for (int i = 0; i < 3; ++i) {
      const ScopedSpan inner(t, SpanKind::kRoutingRoute, slot, 7);
      spin(100);
    }
  }
  const Tracer::Aggregate& outer = t.aggregate(SpanKind::kNetDeliver);
  const Tracer::Aggregate& inner = t.aggregate(SpanKind::kRoutingRoute);
  expect(outer.count == 1000 && inner.count == 3000, "span counts");
  expect(outer.self_ns == outer.total_ns - inner.total_ns, "self = total - children");
  expect(inner.self_ns == inner.total_ns, "leaf self = total");
  expect(outer.calibrated_self_ns >= 0 && inner.calibrated_self_ns >= 0,
         "calibrated self times >= 0");
  expect(outer.calibrated_self_ns <= static_cast<double>(outer.self_ns) &&
             inner.calibrated_self_ns <= static_cast<double>(inner.self_ns),
         "calibration only removes time");
  expect(t.protocol_self_ns().front().second == inner.calibrated_self_ns,
         "per-protocol self = routing self");
  expect(t.depth() == 0, "span stack balanced");

  // Taps are transparent: a short replication of every workload, long
  // enough for its first flows to start, reproduces its untraced outcome
  // with the taps installed, and the taps saw the traffic.
  for (const Workload& w : workloads()) {
    Replication rep = w.pass(1).front();
    rep.cfg = ScenarioBuilder::from(rep.cfg).duration(seconds(kSmokeSeconds)).build();
    Tracer tr(cal);
    Checker checker(w.name);
    const Outcome plain = run_replication(rep, nullptr, nullptr);
    checker.check(rep, run_replication(rep, &tr, nullptr), &plain);
    expect(checker.failed() == 0, std::string("taps transparent on ") + w.name);
    expect(tr.aggregate(SpanKind::kNetDeliver).count > 0,
           std::string("taps saw deliveries on ") + w.name);
  }
  std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// -- command line -----------------------------------------------------------------

int usage(const std::string& why) {
  std::fprintf(stderr,
               "manet_bench: %s\nusage: manet_bench --workload NAME --seed N "
               "--trace 0|1 [--passes P] [--out FILE] [--trace-file FILE]\n"
               "       manet_bench --selftest | --list\n",
               why.c_str());
  return 2;
}

bool parse_count(const std::string& s, std::uint64_t max, std::uint64_t& out) {
  if (s.empty() || s.size() > 18 || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::stoull(s);
  return out <= max;
}

}  // namespace
}  // namespace manet::benchmark

int main(int argc, char** argv) {
  using namespace manet::benchmark;
  Options opt;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string key = args[i];
    std::string value;
    if (key == "--selftest") return selftest();
    if (key == "--list") {
      for (const Workload& w : workloads()) std::printf("%s\t%s\n", w.name, w.why);
      return 0;
    }
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return usage("missing value for " + key);
    }
    std::uint64_t n = 0;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed" && parse_count(value, 1ULL << 40, n)) {
      opt.seed = n;
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      opt.trace = value == "1";
    } else if (key == "--passes" && parse_count(value, 1000, n) && n >= 1) {
      opt.passes = static_cast<int>(n);
    } else if (key == "--out") {
      opt.out = value;
    } else if (key == "--trace-file") {
      opt.trace_file = value;
    } else {
      return usage("bad argument " + key + " " + value);
    }
  }
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) return usage("unknown workload '" + opt.workload + "' (see --list)");
  return opt.trace ? run_traced(opt, *w) : run_untraced(opt, *w);
}
