#include "runner.hpp"

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

namespace manet::benchmark {
namespace {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t model_digest(const ScenarioResult& r, double frames_rx, double frames_corrupt) {
  Fnv h;
  for (const double d : {r.pdr, r.delay_ms, r.nrl, r.nml, r.throughput_kbps, r.avg_hops,
                         r.connectivity, r.repair_latency_ms, frames_rx, frames_corrupt}) {
    h.add(d);
  }
  for (const std::uint64_t v :
       {r.data_originated, r.data_delivered, r.retransmissions, r.routing_tx, r.mac_ctrl_tx,
        r.crashes, r.fault_corrupted, r.delivered_during_fault, r.delivered_after_fault}) {
    h.add(v);
  }
  for (const auto& [id, f] : r.flows) {
    h.add(static_cast<std::uint64_t>(id));
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(f.src), static_cast<std::uint64_t>(f.dst), f.tx_packets,
          f.tx_bytes, f.rx_packets, f.rx_bytes, f.retransmissions, f.jitter_samples}) {
      h.add(v);
    }
    h.add(f.delay_sum_s);
    h.add(f.jitter_sum_s);
  }
  return h.value();
}

std::string sanity(const ScenarioResult& r) {
  if (r.data_delivered > r.data_originated) return "delivered > originated";
  if (!(r.pdr >= 0.0 && r.pdr <= 1.0)) return "pdr outside [0, 1]";
  if (r.events == 0) return "no events executed";
  return "";
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

/// Bytes the allocator hands out to the program (small chunks plus mmap'd).
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

}  // namespace

void Counts::add(Scenario& sc, const ScenarioConfig& cfg) {
  events += static_cast<double>(sc.sim().events_executed());
  peak_queue = std::max(peak_queue, static_cast<double>(sc.sim().peak_queue_size()));
  const StatsCollector& st = sc.stats();
  phy_tx += static_cast<double>(st.data_tx() + st.routing_tx() + st.mac_ctrl_tx() + st.arp_tx());
  mac_ctrl_tx += static_cast<double>(st.mac_ctrl_tx());
  ifq_drops += static_cast<double>(st.drops(DropReason::kIfqFull));
  retry_drops += static_cast<double>(st.drops(DropReason::kMacRetryLimit));
  originated += static_cast<double>(st.data_originated());
  delivered += static_cast<double>(st.data_delivered());
  arp_tx += static_cast<double>(st.arp_tx());
  routing_tx += static_cast<double>(st.routing_tx());
  retx += static_cast<double>(sc.flow_monitor().total_retransmissions());
  for (std::size_t i = 0; i < sc.size(); ++i) {
    Transceiver& trx = sc.node(i).transceiver();
    frames_rx += static_cast<double>(trx.frames_received());
    frames_corrupt += static_cast<double>(trx.frames_corrupted());
    if (const ReliableTransport* t = sc.transport_of(i)) {
      giveups += static_cast<double>(t->aborts());
    }
  }
  refresh_calls += static_cast<double>(sc.size()) * std::floor(cfg.duration.sec() / 0.25);
}

Outcome run_replication(const Replication& rep, Tracer* tracer, Counts* counts) {
  Outcome out;
  const std::int64_t t0 = host_ns();
  {
    Scenario sc(rep.cfg);
    sc.build();
    Taps taps;
    if (tracer != nullptr) taps = install_taps(sc, *tracer);
    const ScenarioResult r = sc.run();
    double rx = 0;
    double corrupt = 0;
    for (std::size_t i = 0; i < sc.size(); ++i) {
      rx += static_cast<double>(sc.node(i).transceiver().frames_received());
      corrupt += static_cast<double>(sc.node(i).transceiver().frames_corrupted());
    }
    out.digest = model_digest(r, rx, corrupt);
    out.events = r.events;
    out.failure = sanity(r);
    if (counts != nullptr) counts->add(sc, rep.cfg);
  }
  out.seconds = seconds_between(t0, host_ns());
  return out;
}

void Checker::check(const Replication& rep, const Outcome& got, const Outcome* reference) {
  ++attempted_;
  char why[160] = "";
  if (!got.failure.empty()) {
    std::snprintf(why, sizeof why, "%s", got.failure.c_str());
  } else if (reference != nullptr && reference->digest != got.digest) {
    std::snprintf(why, sizeof why, "model_digest %016" PRIx64 " != reference %016" PRIx64,
                  got.digest, reference->digest);
  } else if (reference != nullptr && reference->events != got.events) {
    std::snprintf(why, sizeof why, "events %" PRIu64 " != reference %" PRIu64, got.events,
                  reference->events);
  }
  if (why[0] == '\0') return;
  ++failed_;
  std::fprintf(stderr, "manet_bench: CHECK FAILED workload=%s %s: %s\n", workload_,
               rep.label.c_str(), why);
}

std::vector<Outcome> run_pass(const std::vector<Replication>& reps, Checker& checker,
                              const std::vector<Outcome>& reference, Tracer* tracer,
                              Counts* counts) {
  std::vector<Outcome> pass;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    pass.push_back(run_replication(reps[i], tracer, counts));
    checker.check(reps[i], pass.back(), reference.empty() ? nullptr : &reference[i]);
  }
  return pass;
}

std::uint64_t pass_digest(const std::vector<Outcome>& pass) {
  Fnv h;
  for (const Outcome& o : pass) h.add(o.digest);
  return h.value();
}

double setup_seconds(const std::vector<Replication>& reps) {
  double total = 0;
  for (const Replication& rep : reps) {
    const std::int64_t t0 = host_ns();
    auto sc = std::make_unique<Scenario>(rep.cfg);
    sc->build();
    total += seconds_between(t0, host_ns());
  }
  return total;
}

double built_bytes_per_node(const std::vector<Replication>& reps) {
  double bytes = 0;
  double nodes = 0;
  for (const Replication& rep : reps) {
    const double heap0 = heap_bytes();
    Scenario sc(rep.cfg);
    sc.build();
    bytes += heap_bytes() - heap0;
    nodes += static_cast<double>(rep.cfg.num_nodes);
  }
  return nodes > 0 ? bytes / nodes : 0;
}

}  // namespace manet::benchmark
