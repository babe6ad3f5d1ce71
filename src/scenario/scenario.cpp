#include "scenario/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "core/assert.hpp"
#include "mobility/random_walk.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_mobility.hpp"

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

std::string ScenarioConfig::parameter_table() const {
  std::ostringstream os;
  os << "Parameter            | Value\n";
  os << "---------------------+---------------------------\n";
  os << "Connection type      | " << to_string(traffic) << "\n";
  os << "Simulation area      | " << area.width << " x " << area.height << " m\n";
  os << "Transmission range   | " << phy.rx_range_m << " m\n";
  os << "Carrier-sense range  | " << phy.cs_range_m << " m\n";
  os << "Link bandwidth       | " << phy.data_rate_bps / 1e6 << " Mbit/s\n";
  os << "Packet size          | " << payload_bytes << " bytes\n";
  os << "Number of nodes      | " << num_nodes << "\n";
  os << "Duration             | " << duration.sec() << " s\n";
  os << "Pause time           | " << pause.sec() << " s\n";
  os << "Node speed           | " << v_min << " - " << v_max << " m/s\n";
  os << "CBR start            | " << cbr_start.sec() << " s (staggered +"
     << cbr_start_window.sec() << " s)\n";
  os << "CBR rate             | " << 1.0 / cbr_interval.sec() << " packets/s\n";
  os << "Number of connections| " << num_connections << "\n";
  os << "Mobility model       | " << (static_nodes ? "static" : to_string(mobility)) << "\n";
  os << "Interface queue      | " << mac.ifq_capacity << " packets, drop-tail\n";
  return os.str();
}

std::unique_ptr<RoutingProtocol> make_protocol(const ScenarioConfig& cfg, Node& node) {
  const auto i = static_cast<std::size_t>(cfg.protocol);
  MANET_EXPECTS_MSG(i < std::size(kProtocols), "no protocol for enum value %u",
                    static_cast<unsigned>(i));
  return kProtocols[i].make(node, cfg, RngStream(cfg.seed, "routing", node.id()));
}

Scenario::Scenario(const ScenarioConfig& cfg) : cfg_(cfg) {
  MANET_EXPECTS(cfg.num_nodes >= 2);
  MANET_EXPECTS(cfg.area.width > 0 && cfg.area.height > 0);
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
          GaussMarkovConfig gm = cfg_.gauss_markov;
          gm.area = cfg_.area;
          gm.mean_speed = 0.5 * (cfg_.v_min + cfg_.v_max);
          gm.max_speed = cfg_.v_max * 1.25;
          mob = mobility_pool_.make<GaussMarkov>(gm, mrng);
          break;
        }
        case MobilityKind::kManhattan: {
          ManhattanConfig mh = cfg_.manhattan;
          mh.area = cfg_.area;
          mh.v_min = std::max(cfg_.v_min, 0.5);
          mh.v_max = cfg_.v_max;
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
    const SimTime start =
        cfg_.cbr_start + nanoseconds(trng.uniform_int(0, cfg_.cbr_start_window.ns()));
    if (cfg_.traffic == TrafficKind::kCbr) {
      CbrSource::Config cc;
      cc.flow = c;
      cc.dst = dst;
      cc.payload_bytes = cfg_.payload_bytes;
      cc.interval = cfg_.cbr_interval;
      cc.start = start;
      cc.stop = cfg_.duration;
      sources_.push_back(std::make_unique<CbrSource>(*nodes_[src], cc));
    } else {
      OnOffSource::Config oc;
      oc.flow = c;
      oc.dst = dst;
      oc.payload_bytes = cfg_.payload_bytes;
      oc.interval = cfg_.cbr_interval;
      oc.burst_mean = cfg_.onoff_burst_mean;
      oc.idle_mean = cfg_.onoff_idle_mean;
      oc.start = start;
      oc.stop = cfg_.duration;
      onoff_sources_.push_back(
          std::make_unique<OnOffSource>(*nodes_[src], oc, RngStream(cfg_.seed, "onoff", c)));
    }
  }

  // Fault injection: compile the deterministic schedule and arm each event
  // as an ordinary simulator event. The plan outlives the scheduling lambdas
  // (member storage), so they capture plain references into it.
  if (cfg_.fault.enabled()) {
    fault_plan_ =
        FaultPlan::compile(cfg_.fault, cfg_.num_nodes, cfg_.area, cfg_.duration, cfg_.seed);
    channel_->set_fault(&fault_runtime_);
    channel_->set_stats(&stats_);
    for (const FaultEvent& ev : fault_plan_.events()) {
      sim_.schedule_at(ev.at, [this, &ev] { apply_fault(ev); });
    }
  }

  channel_->start();
  for (auto& protocol : protocols_) protocol->start();
  for (auto& source : sources_) source->start();
  for (auto& source : onoff_sources_) source->start();

  if (cfg_.measure_connectivity && !flows_.empty()) {
    sim_.schedule_at(cfg_.cbr_start, [this] { sample_connectivity(); });
  }
}

void Scenario::sample_connectivity() {
  // Reachability in the instantaneous unit-disk graph over exact positions.
  // The graph is undirected (distance2 and PhyConfig::line_of_sight are both
  // symmetric), so "dst is reachable from src" is exactly "src and dst lie in
  // the same component". Each component holding a flow source is explored
  // once per sample, the first time a source falls in it, and every node it
  // reaches gets that component's label; a flow is connected iff its two
  // endpoints carry the same label. The adjacency is never materialized: the
  // search expands grid-locally through Channel::neighbors_of, so a sample
  // costs at most one expansion per node however many flows share a
  // component. Labels are epochs above `base`, the epoch at the start of the
  // sample, so the marks need no O(N) clear.
  const PhyConfig& phy = cfg_.phy;
  const double radius = phy.rx_range_m;
  const double nlos_r2 = phy.nlos_rx_range_m * phy.nlos_rx_range_m;
  conn_mark_.resize(cfg_.num_nodes, 0);
  const std::uint32_t base = conn_epoch_;

  for (const auto& [src, dst] : flows_) {
    if (conn_mark_[src] > base) continue;  // component already labelled
    const std::uint32_t label = ++conn_epoch_;
    conn_mark_[src] = label;
    conn_stack_.assign(1, src);
    while (!conn_stack_.empty()) {
      const NodeId u = conn_stack_.back();
      conn_stack_.pop_back();
      ++conn_expansions_;
      // Urban family: the oracle honours the street-canyon model — an NLOS
      // pair is an edge only within the diffraction range. Open field
      // (urban() == false) takes the plain unit-disk edge.
      const Vec2 pu = phy.urban() ? channel_->position_of(u) : Vec2{};
      channel_->neighbors_of(u, radius, conn_nbrs_);
      for (const NodeId v : conn_nbrs_) {
        if (conn_mark_[v] == label) continue;
        if (phy.urban()) {
          const Vec2 pv = channel_->position_of(v);
          if (!phy.line_of_sight(pu, pv) && distance2(pu, pv) > nlos_r2) continue;
        }
        conn_mark_[v] = label;
        conn_stack_.push_back(v);
      }
    }
  }
  for (const auto& [src, dst] : flows_) {
    ++conn_samples_;
    if (conn_mark_[dst] == conn_mark_[src]) ++conn_connected_;
  }

  if (sim_.now() + seconds(1) <= cfg_.duration) {
    sim_.schedule(seconds(1), [this] { sample_connectivity(); });
  }
}

void Scenario::apply_fault(const FaultEvent& ev) {
  fault_runtime_.apply(ev);
  char note[64];
  switch (ev.kind) {
    case FaultEventKind::kCrash:
      nodes_[ev.a]->crash();  // records its own trace line
      stats_.on_fault_begin(ev.at);
      return;
    case FaultEventKind::kRestart:
      nodes_[ev.a]->restart();
      stats_.on_fault_end(ev.at);
      return;
    case FaultEventKind::kLinkDown:
    case FaultEventKind::kLinkUp:
      std::snprintf(note, sizeof(note), "%s %u-%u", to_string(ev.kind), ev.a, ev.b);
      if (trace_) trace_->record_fault(ev.at, kBroadcast, note);
      if (ev.kind == FaultEventKind::kLinkDown) {
        stats_.on_fault_begin(ev.at);
      } else {
        stats_.on_fault_end(ev.at);
      }
      return;
    case FaultEventKind::kPartitionStart:
    case FaultEventKind::kPartitionEnd:
      std::snprintf(note, sizeof(note), "%s x=%g", to_string(ev.kind), ev.value);
      if (trace_) trace_->record_fault(ev.at, kBroadcast, note);
      if (ev.kind == FaultEventKind::kPartitionStart) {
        stats_.on_fault_begin(ev.at);
      } else {
        stats_.on_fault_end(ev.at);
      }
      return;
    case FaultEventKind::kCorruptStart:
    case FaultEventKind::kCorruptEnd:
      // Degrades links without severing them: traced, but not an outage for
      // the recovery metrics.
      std::snprintf(note, sizeof(note), "%s p=%g", to_string(ev.kind), ev.value);
      if (trace_) trace_->record_fault(ev.at, kBroadcast, note);
      return;
  }
}

ScenarioResult Scenario::run() {
  build();
  sim_.run_until(cfg_.duration);
  // Arrivals nothing observed are applied lazily; apply those that ended by
  // the horizon, so the rx energy counts them.
  for (auto& node : nodes_) node->transceiver().settle();
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
  r.fault_corrupted = stats_.fault_corrupted();
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
