#include "scenario/builder.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/assert.hpp"

namespace manet {

ScenarioBuilder ScenarioBuilder::from(const ScenarioConfig& cfg) {
  ScenarioBuilder b;
  b.cfg_ = cfg;
  return b;
}

ScenarioBuilder& ScenarioBuilder::protocol(Protocol p) {
  cfg_.protocol = p;
  protocol_name_.clear();
  return *this;
}

ScenarioBuilder& ScenarioBuilder::protocol(std::string_view name) {
  protocol_name_ = name;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  cfg_.seed = seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::nodes(std::uint32_t count) {
  cfg_.num_nodes = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::area(double width_m, double height_m) {
  cfg_.area = Area{width_m, height_m};
  return *this;
}

ScenarioBuilder& ScenarioBuilder::static_nodes(bool on) {
  cfg_.static_nodes = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::mobility(MobilityKind kind) {
  cfg_.mobility = kind;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::speed(double v_min_mps, double v_max_mps) {
  cfg_.v_min = v_min_mps;
  cfg_.v_max = v_max_mps;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::pause(SimTime pause) {
  cfg_.pause = pause;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::connections(std::uint32_t count) {
  cfg_.num_connections = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::payload(std::size_t bytes) {
  cfg_.payload_bytes = bytes;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::traffic(TrafficKind kind) {
  cfg_.traffic = kind;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::cbr_interval(SimTime interval) {
  cfg_.cbr_interval = interval;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::transport(const TransportConfig& transport) {
  cfg_.transport = transport;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::duration(SimTime duration) {
  cfg_.duration = duration;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fault(const FaultConfig& fault) {
  cfg_.fault = fault;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::trace(std::string path) {
  cfg_.trace_path = std::move(path);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::measure_connectivity(bool on) {
  cfg_.measure_connectivity = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::phy(const PhyConfig& phy) {
  cfg_.phy = phy;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::mac(const MacConfig& mac) {
  cfg_.mac = mac;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::frame_loss(double rate) {
  cfg_.phy.frame_loss_rate = rate;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::urban(double street_width_m, double nlos_range_m,
                                        double nlos_loss) {
  cfg_.phy.street_width_m = street_width_m;
  cfg_.phy.nlos_rx_range_m = nlos_range_m;
  cfg_.phy.nlos_loss_rate = nlos_loss;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with(const std::function<void(ScenarioConfig&)>& fn) {
  MANET_EXPECTS(fn != nullptr);
  fn(cfg_);
  return *this;
}

namespace {

/// "AODV, DSR, ..." — the registry's names, for the unknown-name message.
std::string registered_names() {
  std::ostringstream os;
  bool first = true;
  for (const routing::ProtocolEntry& e : protocol_registry()) {
    os << (first ? "" : ", ") << e.name;
    first = false;
  }
  return os.str();
}

}  // namespace

ScenarioConfig ScenarioBuilder::build() const {
  ScenarioConfig cfg = cfg_;

  if (!protocol_name_.empty()) {
    const routing::ProtocolEntry* e = protocol_registry().by_name(protocol_name_);
    MANET_EXPECTS_MSG(e != nullptr, "unknown protocol \"%s\" (registered: %s)",
                      protocol_name_.c_str(), registered_names().c_str());
    cfg.protocol = static_cast<Protocol>(e->id);
  }

  MANET_EXPECTS_MSG(cfg.num_nodes >= 2, "a network needs at least 2 nodes, got %u",
                    cfg.num_nodes);
  MANET_EXPECTS_MSG(cfg.area.width > 0.0 && cfg.area.height > 0.0,
                    "area must be positive, got %g x %g m", cfg.area.width, cfg.area.height);
  MANET_EXPECTS_MSG(cfg.duration > SimTime::zero(), "duration must be positive, got %lldns",
                    static_cast<long long>(cfg.duration.ns()));

  if (!cfg.static_nodes) {
    MANET_EXPECTS_MSG(cfg.v_min >= 0.0 && cfg.v_max >= cfg.v_min,
                      "need 0 <= v_min <= v_max, got v_min=%g v_max=%g m/s", cfg.v_min,
                      cfg.v_max);
    MANET_EXPECTS_MSG(cfg.pause >= SimTime::zero(), "pause must be >= 0, got %lldns",
                      static_cast<long long>(cfg.pause.ns()));
  }

  MANET_EXPECTS_MSG(cfg.payload_bytes > 0, "payload must be positive");
  if (cfg.num_connections > 0) {
    MANET_EXPECTS_MSG(cfg.cbr_interval > SimTime::zero(),
                      "traffic interval must be positive, got %lldns",
                      static_cast<long long>(cfg.cbr_interval.ns()));
    MANET_EXPECTS_MSG(cfg.cbr_start <= cfg.duration,
                      "traffic starts at %.3fs, after the run ends at %.3fs",
                      cfg.cbr_start.sec(), cfg.duration.sec());
  }

  if (cfg.transport.enabled) {
    const TransportConfig& t = cfg.transport;
    MANET_EXPECTS_MSG(
        t.rto_min > SimTime::zero() && t.rto_min <= t.rto_initial && t.rto_initial <= t.rto_max,
        "transport rto bounds need 0 < rto_min <= rto_initial <= rto_max, got min=%.3fs "
        "initial=%.3fs max=%.3fs",
        t.rto_min.sec(), t.rto_initial.sec(), t.rto_max.sec());
    MANET_EXPECTS_MSG(t.cwnd_init >= 1 && t.cwnd_init <= t.cwnd_max,
                      "transport cwnd needs 1 <= cwnd_init <= cwnd_max, got init=%u max=%u",
                      t.cwnd_init, t.cwnd_max);
    MANET_EXPECTS_MSG(t.max_retx >= 1, "transport.max_retx must be >= 1, got %u", t.max_retx);
    MANET_EXPECTS_MSG(t.buffer_packets >= t.cwnd_max,
                      "transport.buffer_packets must be >= cwnd_max, got buffer=%u cwnd_max=%u",
                      t.buffer_packets, t.cwnd_max);
  }

  MANET_EXPECTS_MSG(cfg.phy.frame_loss_rate >= 0.0 && cfg.phy.frame_loss_rate < 1.0,
                    "frame_loss_rate must be in [0, 1), got %g", cfg.phy.frame_loss_rate);

  MANET_EXPECTS_MSG(cfg.phy.street_width_m >= 0.0, "street_width_m must be >= 0, got %g",
                    cfg.phy.street_width_m);
  if (cfg.phy.urban()) {
    MANET_EXPECTS_MSG(
        cfg.phy.nlos_rx_range_m > 0.0 && cfg.phy.nlos_rx_range_m <= cfg.phy.rx_range_m,
        "nlos_rx_range_m must be in (0, rx_range], got %g (rx_range %g)",
        cfg.phy.nlos_rx_range_m, cfg.phy.rx_range_m);
    MANET_EXPECTS_MSG(cfg.phy.nlos_loss_rate >= 0.0 && cfg.phy.nlos_loss_rate < 1.0,
                      "nlos_loss_rate must be in [0, 1), got %g", cfg.phy.nlos_loss_rate);
  }

  if (cfg.fault.enabled()) {
    const FaultConfig& f = cfg.fault;
    MANET_EXPECTS_MSG(f.crash_rate >= 0.0, "crash_rate must be >= 0, got %g", f.crash_rate);
    MANET_EXPECTS_MSG(f.link_blackouts >= 0, "link_blackouts must be >= 0, got %d",
                      f.link_blackouts);
    MANET_EXPECTS_MSG(f.corrupt_rate >= 0.0 && f.corrupt_rate <= 1.0,
                      "corrupt_rate must be in [0, 1], got %g", f.corrupt_rate);
    MANET_EXPECTS_MSG(f.partition_frac >= 0.0 && f.partition_frac <= 1.0,
                      "partition_frac must be in [0, 1], got %g", f.partition_frac);
    MANET_EXPECTS_MSG(f.window_from < cfg.duration,
                      "fault window opens at %.3fs, after the run ends at %.3fs",
                      f.window_from.sec(), cfg.duration.sec());
    // Explicit fault windows must open inside the run and close after they
    // open (a zero `until` means "until end of run").
    if (f.corrupt_rate > 0.0) {
      MANET_EXPECTS_MSG(f.corrupt_from < cfg.duration,
                        "corruption window opens at %.3fs, after the run ends at %.3fs",
                        f.corrupt_from.sec(), cfg.duration.sec());
      MANET_EXPECTS_MSG(f.corrupt_until == SimTime::zero() || f.corrupt_until > f.corrupt_from,
                        "corruption window [%.3fs, %.3fs) is empty", f.corrupt_from.sec(),
                        f.corrupt_until.sec());
    }
    if (f.partition) {
      MANET_EXPECTS_MSG(f.partition_from < cfg.duration,
                        "partition opens at %.3fs, after the run ends at %.3fs",
                        f.partition_from.sec(), cfg.duration.sec());
      MANET_EXPECTS_MSG(
          f.partition_until == SimTime::zero() || f.partition_until > f.partition_from,
          "partition window [%.3fs, %.3fs) is empty", f.partition_from.sec(),
          f.partition_until.sec());
    }
  }

  return cfg;
}

ScenarioResult ScenarioBuilder::run() const { return Scenario::run_once(build()); }

ScenarioBuilder urban_scenario(std::uint32_t nodes) {
  // Constant density: the paper's 50 nodes over ~1 km², with the city side
  // quantized to whole 200 m blocks so streets terminate at intersections.
  const double block = 200.0;
  double side = std::sqrt(static_cast<double>(nodes) / 50.0) * 1000.0;
  side = std::max(block, std::round(side / block) * block);
  // Flow count grows sub-linearly so per-node offered load shrinks with city
  // size, as in real urban traces (most nodes are relays, not endpoints).
  const std::uint32_t flows = std::max<std::uint32_t>(10, nodes / 100);
  return ScenarioBuilder()
      .nodes(nodes)
      .area(side, side)
      .mobility(MobilityKind::kManhattan)
      .speed(1.0, 15.0)  // vehicular street speeds
      .connections(flows)
      .urban(/*street_width_m=*/20.0, /*nlos_range_m=*/75.0, /*nlos_loss=*/0.1);
}

}  // namespace manet
