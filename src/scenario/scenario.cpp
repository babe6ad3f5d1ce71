#include "scenario/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <type_traits>

#include "core/assert.hpp"
#include "mobility/gauss_markov.hpp"
#include "mobility/random_walk.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_mobility.hpp"
#include "scenario/fields.hpp"

namespace manet {

const char* to_string(TrafficKind k) {
  switch (k) {
    case TrafficKind::kCbr: return "CBR/UDP";
    case TrafficKind::kOnOff: return "exponential on/off UDP";
  }
  return "?";
}

const char* to_string(MobilityKind k) {
  switch (k) {
    case MobilityKind::kRandomWaypoint: return "random waypoint";
    case MobilityKind::kRandomWalk: return "random walk";
    case MobilityKind::kGaussMarkov: return "gauss-markov";
    case MobilityKind::kManhattan: return "manhattan";
  }
  return "?";
}

const char* to_string(Protocol p) {
  const auto i = static_cast<std::size_t>(p);
  return i < std::size(kProtocols) ? kProtocols[i].name : "?";
}

const ProtocolEntry* find_protocol(std::string_view name) {
  const auto lower = [](char c) { return std::tolower(static_cast<unsigned char>(c)); };
  for (const ProtocolEntry& e : kProtocols) {
    const std::string_view n = e.name;
    if (std::equal(n.begin(), n.end(), name.begin(), name.end(),
                   [&](char a, char b) { return lower(a) == lower(b); })) {
      return &e;
    }
  }
  return nullptr;
}

std::string protocol_names() {
  std::string out;
  for (const ProtocolEntry& e : kProtocols) {
    if (!out.empty()) out += ", ";
    out += e.name;
  }
  return out;
}

std::unique_ptr<RoutingProtocol> make_protocol(const ScenarioConfig& cfg, Node& node) {
  const auto i = static_cast<std::size_t>(cfg.protocol);
  MANET_EXPECTS_MSG(i < std::size(kProtocols), "no protocol for enum value %u",
                    static_cast<unsigned>(i));
  return kProtocols[i].make(node, cfg, RngStream(cfg.seed, "routing", node.id()));
}

namespace {

#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
std::string format(const char* fmt, ...) {
  char buf[256];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

std::string show(double v) { return format("%g", v); }
std::string show(SimTime t) { return show(t.sec()) + "s"; }
template <typename T>
  requires std::is_integral_v<T>
std::string show(T v) {
  return std::to_string(v);
}

/// A range as check() words it: "> 0", ">= 2", "in [0, 1)".
std::string constraint(const Range& r) {
  if (r.hi == std::numeric_limits<double>::infinity()) {
    return (r.lo_open ? "> " : ">= ") + show(r.lo);
  }
  return "in " + std::string(r.lo_open ? "(" : "[") + show(r.lo) + ", " + show(r.hi) +
         (r.hi_open ? ")" : "]");
}

/// A field's value as a number, for its range.
template <typename T>
double number(const T& v) {
  if constexpr (std::is_same_v<T, SimTime>) {
    return v.sec();
  } else {
    return static_cast<double>(v);
  }
}

/// describe()'s rendering of a value: show()'s, but a double in full (the
/// shortest decimal that reads back as it) and a bool by name.
template <typename T>
std::string exact(const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else if constexpr (std::is_same_v<T, SimTime>) {
    // ns / 1e9 is the double nearest the exact seconds (sec() multiplies
    // by 1e-9, which is not exact: 1000 s would print as 1000.0000000000001).
    return exact(static_cast<double>(v.ns()) / 1e9) + "s";
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else {
    return show(v);
  }
}

}  // namespace

std::vector<ConfigError> check(const ScenarioConfig& c) {
  std::vector<ConfigError> errors;
  const auto fail = [&errors](const char* field, std::string message) {
    errors.push_back(ConfigError{field, std::move(message)});
  };

  // -- single-field ranges: "must be <range>, got <value>" --------------------
  for (const Field& f : kFields) {
    if (!f.range) continue;
    f.visit(c, [&](const auto& v) {
      if (!f.range->contains(number(v))) {
        fail(f.path, "must be " + constraint(*f.range) + ", got " + show(v));
      }
    });
  }

  // -- mobility and traffic ---------------------------------------------------
  if (!c.static_nodes && c.v_max < c.v_min) {
    fail("v_max", format("need 0 <= v_min <= v_max, got v_min=%g v_max=%g m/s", c.v_min,
                         c.v_max));
  }
  if (c.num_connections > 0 && c.cbr_start > c.duration) {
    fail("cbr_start", format("traffic starts at %.3fs, after the run ends at %.3fs",
                             c.cbr_start.sec(), c.duration.sec()));
  }

  // -- transport --------------------------------------------------------------
  const TransportConfig& t = c.transport;
  if (t.enabled) {
    if (t.rto_min > t.rto_initial || t.rto_initial > t.rto_max) {
      fail(t.rto_min > t.rto_initial ? "transport.rto_min" : "transport.rto_max",
           format("transport rto bounds need 0 < rto_min <= rto_initial <= rto_max, got "
                  "min=%.3fs initial=%.3fs max=%.3fs",
                  t.rto_min.sec(), t.rto_initial.sec(), t.rto_max.sec()));
    }
    if (t.cwnd_init > t.cwnd_max) {
      fail("transport.cwnd_init",
           format("transport cwnd needs 1 <= cwnd_init <= cwnd_max, got init=%u max=%u",
                  t.cwnd_init, t.cwnd_max));
    }
    if (t.buffer_packets < t.cwnd_max) {
      fail("transport.buffer_packets",
           format("transport.buffer_packets must be >= cwnd_max, got buffer=%u cwnd_max=%u",
                  t.buffer_packets, t.cwnd_max));
    }
  }

  // -- radio ------------------------------------------------------------------
  const PhyConfig& phy = c.phy;
  if (phy.urban() && phy.nlos_rx_range_m > phy.rx_range_m) {
    fail("phy.nlos_rx_range_m",
         format("nlos_rx_range_m must be in (0, rx_range], got %g (rx_range %g)",
                phy.nlos_rx_range_m, phy.rx_range_m));
  }

  // -- faults -----------------------------------------------------------------
  const FaultConfig& f = c.fault;
  if (f.enabled() && f.window_from >= c.duration) {
    fail("fault.window_from", format("fault window opens at %.3fs, after the run ends at %.3fs",
                                     f.window_from.sec(), c.duration.sec()));
  }
  return errors;
}

std::string describe(const ScenarioConfig& c) {
  std::string out;
  const auto line = [&out](std::string_view path, const std::string& value) {
    out.append(path).append(" = ").append(value) += '\n';
  };
  line("protocol", to_string(c.protocol));
  line("mobility", to_string(c.mobility));
  line("traffic", to_string(c.traffic));
  line("trace_path", '"' + c.trace_path + '"');
  for (const Field& f : kFields) {
    line(f.path, f.visit(c, [](const auto& v) { return exact(v); }));
  }
  return out;
}

Scenario::Scenario(const ScenarioConfig& cfg) : cfg_(cfg) {
  const std::vector<ConfigError> errors = check(cfg);
  if (!errors.empty()) {
    std::string report;
    for (const ConfigError& e : errors) report += "\n    " + e.field + ": " + e.message;
    MANET_EXPECTS_MSG(errors.empty(), "invalid scenario config:%s", report.c_str());
  }
}

void Scenario::build() {
  if (built_) return;
  built_ = true;

  channel_ = std::make_unique<Channel>(sim_, cfg_.phy, cfg_.area, milliseconds(250), cfg_.seed);

  // One mobility model per node, placed in the arena pool in id order so the
  // channel's periodic position refresh — the one loop that must visit every
  // node — walks them sequentially in memory.
  for (std::uint32_t i = 0; i < cfg_.num_nodes; ++i) {
    MobilityModel* mob = nullptr;
    RngStream mrng(cfg_.seed, "mobility", i);
    if (cfg_.static_nodes) {
      mob = mobility_pool_.make<StaticMobility>(
          Vec2{mrng.uniform(0.0, cfg_.area.width), mrng.uniform(0.0, cfg_.area.height)});
    } else {
      switch (cfg_.mobility) {
        case MobilityKind::kRandomWaypoint: {
          RandomWaypointConfig wp;
          wp.area = cfg_.area;
          wp.v_min = cfg_.v_min;
          wp.v_max = cfg_.v_max;
          wp.pause = cfg_.pause;
          wp.warmup = cfg_.mobility_warmup;
          mob = mobility_pool_.make<RandomWaypoint>(wp, mrng);
          break;
        }
        case MobilityKind::kRandomWalk: {
          RandomWalkConfig rw;
          rw.area = cfg_.area;
          rw.v_min = cfg_.v_min;
          rw.v_max = cfg_.v_max;
          mob = mobility_pool_.make<RandomWalk>(rw, mrng);
          break;
        }
        case MobilityKind::kGaussMarkov: {
          GaussMarkovConfig gm;
          gm.area = cfg_.area;
          gm.mean_speed = 0.5 * (cfg_.v_min + cfg_.v_max);
          gm.max_speed = cfg_.v_max * 1.25;
          mob = mobility_pool_.make<GaussMarkov>(gm, mrng);
          break;
        }
        case MobilityKind::kManhattan: {
          const ManhattanConfig mh{cfg_.manhattan, cfg_.area, std::max(cfg_.v_min, 0.5),
                                   cfg_.v_max};
          mob = mobility_pool_.make<Manhattan>(mh, mrng);
          break;
        }
      }
    }
    nodes_.push_back(std::make_unique<Node>(sim_, stats_, *channel_, i, mob, cfg_.mac, cfg_.seed));
  }

  if (!cfg_.trace_path.empty()) {
    trace_ = std::make_unique<TraceWriter>(cfg_.trace_path);
    if (trace_->ok()) {
      for (auto& node : nodes_) node->set_trace(trace_.get());
    }
  }

  for (auto& node : nodes_) {
    protocols_.push_back(make_protocol(cfg_, *node));
    node->set_routing(protocols_.back().get());
  }

  // Reliable transport (optional): one endpoint per node. Attached before
  // the traffic sources start so the apps see it and switch to closed-loop
  // mode.
  if (cfg_.transport.enabled) {
    for (auto& node : nodes_) {
      transports_.push_back(std::make_unique<ReliableTransport>(*node, cfg_.transport));
      node->set_transport(transports_.back().get());
    }
  }

  // Traffic: `num_connections` distinct (src, dst) pairs, start times
  // staggered uniformly across the start window — the standard cbrgen.tcl
  // recipe.
  RngStream trng(cfg_.seed, "traffic");
  for (std::uint32_t c = 0; c < cfg_.num_connections; ++c) {
    const auto src = static_cast<NodeId>(trng.uniform_int(0, cfg_.num_nodes - 1));
    NodeId dst;
    do {
      dst = static_cast<NodeId>(trng.uniform_int(0, cfg_.num_nodes - 1));
    } while (dst == src);
    flows_.emplace_back(src, dst);
    TrafficSource::Config tc;
    tc.flow = c;
    tc.dst = dst;
    tc.payload_bytes = cfg_.payload_bytes;
    tc.interval = cfg_.cbr_interval;
    if (cfg_.traffic == TrafficKind::kOnOff) {
      tc.burst_mean = cfg_.onoff_burst_mean;
      tc.idle_mean = cfg_.onoff_idle_mean;
    }
    tc.start = cfg_.cbr_start + nanoseconds(trng.uniform_int(0, cfg_.cbr_start_window.ns()));
    tc.stop = cfg_.duration;
    sources_.push_back(
        std::make_unique<TrafficSource>(*nodes_[src], tc, RngStream(cfg_.seed, "onoff", c)));
  }

  // Fault injection: compile the deterministic schedule and arm each event
  // as an ordinary simulator event. The plan outlives the scheduling lambdas
  // (member storage), so they capture plain references into it.
  if (cfg_.fault.enabled()) {
    fault_plan_ = FaultPlan::compile(cfg_.fault, cfg_.num_nodes, cfg_.duration, cfg_.seed);
    for (const FaultEvent& ev : fault_plan_.events()) {
      sim_.schedule_at(ev.at, [this, &ev] { apply_fault(ev); });
    }
  }

  channel_->start();
  for (auto& protocol : protocols_) protocol->start();
  for (auto& source : sources_) source->start();

  if (!flows_.empty()) {
    sim_.schedule_at(cfg_.cbr_start, [this] { sample_connectivity(); });
  }
}

void Scenario::sample_connectivity() {
  // Reachability in the instantaneous unit-disk graph over exact positions.
  // The graph is undirected (distance2 and PhyConfig::line_of_sight are both
  // symmetric), so "dst is reachable from src" is exactly "src and dst lie in
  // the same component". Each sample reads every node's position from its
  // own mobility model (not through the channel, whose grid it leaves
  // alone), buckets the nodes into a private grid of rx_range_m cells by
  // counting sort, and union-finds each cell against itself and its E, NE, N
  // and NW neighbours: with cells one radio range wide, every edge joins a
  // cell to itself or to one of its eight neighbours, and those four
  // directions visit each neighbouring pair of cells once. A flow is
  // connected iff its endpoints share a root. Positions are clamped into the
  // area for the cell index only; the edge test uses them exact.
  const PhyConfig& phy = cfg_.phy;
  const double cell = phy.rx_range_m;
  const double r2 = cell * cell;
  const double nlos_r2 = phy.nlos_rx_range_m * phy.nlos_rx_range_m;
  const std::size_t n = nodes_.size();
  const auto nx = static_cast<std::size_t>(cfg_.area.width / cell) + 1;
  const auto ny = static_cast<std::size_t>(cfg_.area.height / cell) + 1;
  const auto cell_of = [&](Vec2 p) {
    const Vec2 c = cfg_.area.clamp(p);
    return std::min(static_cast<std::size_t>(c.y / cell), ny - 1) * nx +
           std::min(static_cast<std::size_t>(c.x / cell), nx - 1);
  };

  // Counting sort. Cell c's count goes to conn_start_[c + 2]; after the
  // prefix sum conn_start_[c + 1] is where cell c begins, and it is the
  // cursor that fills it, so afterwards cell c's ids (ascending) are
  // conn_by_cell_[conn_start_[c] .. conn_start_[c + 1]).
  const std::size_t cells = nx * ny;
  conn_pos_.resize(n);
  conn_start_.assign(cells + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    conn_pos_[i] = nodes_[i]->mobility().position_at(sim_.now());
    ++conn_start_[cell_of(conn_pos_[i]) + 2];
  }
  for (std::size_t c = 2; c < cells + 2; ++c) conn_start_[c] += conn_start_[c - 1];
  conn_by_cell_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    conn_by_cell_[conn_start_[cell_of(conn_pos_[i]) + 1]++] = static_cast<NodeId>(i);
  }

  conn_parent_.resize(n);
  std::iota(conn_parent_.begin(), conn_parent_.end(), NodeId{0});
  const auto find = [this](NodeId x) {
    while (conn_parent_[x] != x) x = conn_parent_[x] = conn_parent_[conn_parent_[x]];
    return x;
  };
  // Urban family: the oracle honours the street-canyon model, so an NLOS
  // pair is an edge only within the diffraction range. Open field
  // (urban() == false) takes the plain unit-disk edge.
  const auto link = [&](NodeId u, NodeId v) {
    const double d2 = distance2(conn_pos_[u], conn_pos_[v]);
    if (d2 > r2) return;
    if (phy.urban() && d2 > nlos_r2 && !phy.line_of_sight(conn_pos_[u], conn_pos_[v])) return;
    const NodeId ru = find(u);
    const NodeId rv = find(v);
    if (ru != rv) conn_parent_[std::max(ru, rv)] = std::min(ru, rv);
  };
  for (std::size_t cy = 0; cy < ny; ++cy) {
    for (std::size_t cx = 0; cx < nx; ++cx) {
      const std::size_t c = cy * nx + cx;
      for (std::uint32_t a = conn_start_[c]; a < conn_start_[c + 1]; ++a) {
        const NodeId u = conn_by_cell_[a];
        for (std::uint32_t b = a + 1; b < conn_start_[c + 1]; ++b) link(u, conn_by_cell_[b]);
        const auto with_cell = [&](std::size_t d) {
          for (std::uint32_t b = conn_start_[d]; b < conn_start_[d + 1]; ++b) {
            link(u, conn_by_cell_[b]);
          }
        };
        if (cx + 1 < nx) with_cell(c + 1);  // E
        if (cy + 1 < ny) {
          if (cx + 1 < nx) with_cell(c + nx + 1);  // NE
          with_cell(c + nx);                       // N
          if (cx > 0) with_cell(c + nx - 1);       // NW
        }
      }
    }
  }
  for (const auto& [src, dst] : flows_) {
    ++conn_samples_;
    if (find(src) == find(dst)) ++conn_connected_;
  }

  if (sim_.now() + seconds(1) <= cfg_.duration) {
    sim_.schedule(seconds(1), [this] { sample_connectivity(); });
  }
}

void Scenario::apply_fault(const FaultEvent& ev) {
  // Each records its own trace line and stats.
  if (ev.kind == FaultEventKind::kCrash) {
    nodes_[ev.a]->crash();
  } else {
    nodes_[ev.a]->restart();
  }
}

ScenarioResult Scenario::run() {
  build();
  sim_.run_until(cfg_.duration);
  if (trace_) trace_->flush();

  ScenarioResult r;
  r.pdr = stats_.pdr();
  r.delay_ms = stats_.avg_delay_s() * 1e3;
  r.nrl = stats_.nrl();
  r.nml = stats_.nml();
  r.throughput_kbps = stats_.throughput_bps(cfg_.duration) / 1e3;
  r.avg_hops = stats_.avg_hops();
  if (conn_samples_ > 0) {
    r.connectivity = static_cast<double>(conn_connected_) / static_cast<double>(conn_samples_);
  }
  r.data_originated = stats_.data_originated();
  r.data_delivered = stats_.data_delivered();
  r.retransmissions = stats_.flow_monitor().total_retransmissions();
  r.routing_tx = stats_.routing_tx();
  r.mac_ctrl_tx = stats_.mac_ctrl_tx();
  r.events = sim_.events_executed();
  r.peak_queue_depth = sim_.peak_queue_size();
  r.repair_latency_ms = stats_.mean_repair_latency_s() * 1e3;
  r.crashes = stats_.crashes();
  r.delivered_during_fault = stats_.delivered_during_fault();
  r.delivered_after_fault = stats_.delivered_after_fault();
  for (const auto& node : nodes_) {
    r.frames_rx += node->transceiver().frames_received();
    r.frames_corrupt += node->transceiver().frames_corrupted();
  }
  // Only the transport transmits segments, so transport-free runs export no
  // rows.
  for (const auto& [id, f] : stats_.flow_monitor().records()) {
    if (f.tx_packets > 0) r.flows.emplace_back(id, f);
  }
  return r;
}

ScenarioResult Scenario::run_once(const ScenarioConfig& cfg) {
  Scenario s(cfg);
  return s.run();
}

namespace {

/// 64-bit FNV-1a over the little-endian bytes of each value added.
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

}  // namespace

std::uint64_t model_digest(const ScenarioResult& r) {
  Fnv h;
  // The frame counts enter as doubles: the order and encoding the
  // benchmark's digests were first recorded with.
  for (const double d : {r.pdr, r.delay_ms, r.nrl, r.nml, r.throughput_kbps, r.avg_hops,
                         r.connectivity, r.repair_latency_ms, static_cast<double>(r.frames_rx),
                         static_cast<double>(r.frames_corrupt)}) {
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

}  // namespace manet
