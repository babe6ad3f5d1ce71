#include "scenario/builder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <type_traits>

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

/// The error list check() fills. require() words a single-field range as
/// "must be <constraint>, got <value>"; fail() takes a cross-field message.
struct Rules {
  template <typename T>
  void require(bool ok, const char* field, const char* constraint, T got) {
    if (!ok) fail(field, std::string("must be ") + constraint + ", got " + show(got));
  }
  void fail(const char* field, std::string message) {
    errors.push_back(ConfigError{field, std::move(message)});
  }
  std::vector<ConfigError> errors;
};

}  // namespace

std::vector<ConfigError> ScenarioBuilder::check() const {
  const ScenarioConfig& c = cfg_;
  const SimTime zero = SimTime::zero();
  Rules r;

  if (!protocol_name_.empty() && find_protocol(protocol_name_) == nullptr) {
    r.fail("protocol", "unknown protocol \"" + protocol_name_ + "\" (registered: " +
                           protocol_names() + ")");
  }

  // -- topology, mobility, run length -----------------------------------------
  r.require(c.num_nodes >= 2, "num_nodes", ">= 2", c.num_nodes);
  r.require(c.area.width > 0.0, "area.width", "> 0", c.area.width);
  r.require(c.area.height > 0.0, "area.height", "> 0", c.area.height);
  r.require(c.duration > zero, "duration", "> 0", c.duration);
  r.require(c.v_min >= 0.0, "v_min", ">= 0", c.v_min);
  r.require(c.v_max >= 0.0, "v_max", ">= 0", c.v_max);
  r.require(c.pause >= zero, "pause", ">= 0", c.pause);
  r.require(c.mobility_warmup >= zero, "mobility_warmup", ">= 0", c.mobility_warmup);
  r.require(c.manhattan.block > 0.0, "manhattan.block", "> 0", c.manhattan.block);
  r.require(c.manhattan.p_turn >= 0.0 && c.manhattan.p_turn <= 1.0, "manhattan.p_turn",
            "in [0, 1]", c.manhattan.p_turn);
  if (!c.static_nodes && c.v_max < c.v_min) {
    r.fail("v_max", format("need 0 <= v_min <= v_max, got v_min=%g v_max=%g m/s", c.v_min,
                           c.v_max));
  }

  // -- traffic ----------------------------------------------------------------
  r.require(c.payload_bytes >= 1, "payload_bytes", ">= 1", c.payload_bytes);
  r.require(c.cbr_interval > zero, "cbr_interval", "> 0", c.cbr_interval);
  r.require(c.cbr_start >= zero, "cbr_start", ">= 0", c.cbr_start);
  r.require(c.cbr_start_window >= zero, "cbr_start_window", ">= 0", c.cbr_start_window);
  r.require(c.onoff_burst_mean > zero, "onoff_burst_mean", "> 0", c.onoff_burst_mean);
  r.require(c.onoff_idle_mean > zero, "onoff_idle_mean", "> 0", c.onoff_idle_mean);
  if (c.num_connections > 0 && c.cbr_start > c.duration) {
    r.fail("cbr_start", format("traffic starts at %.3fs, after the run ends at %.3fs",
                               c.cbr_start.sec(), c.duration.sec()));
  }

  // -- transport --------------------------------------------------------------
  const TransportConfig& t = c.transport;
  r.require(t.rto_initial > zero, "transport.rto_initial", "> 0", t.rto_initial);
  r.require(t.rto_min > zero, "transport.rto_min", "> 0", t.rto_min);
  r.require(t.rto_max > zero, "transport.rto_max", "> 0", t.rto_max);
  r.require(t.cwnd_init >= 1, "transport.cwnd_init", ">= 1", t.cwnd_init);
  r.require(t.cwnd_max >= 1, "transport.cwnd_max", ">= 1", t.cwnd_max);
  r.require(t.max_retx >= 1, "transport.max_retx", ">= 1", t.max_retx);
  r.require(t.buffer_packets >= 1, "transport.buffer_packets", ">= 1", t.buffer_packets);
  if (t.enabled) {
    if (t.rto_min > t.rto_initial || t.rto_initial > t.rto_max) {
      r.fail(t.rto_min > t.rto_initial ? "transport.rto_min" : "transport.rto_max",
             format("transport rto bounds need 0 < rto_min <= rto_initial <= rto_max, got "
                    "min=%.3fs initial=%.3fs max=%.3fs",
                    t.rto_min.sec(), t.rto_initial.sec(), t.rto_max.sec()));
    }
    if (t.cwnd_init > t.cwnd_max) {
      r.fail("transport.cwnd_init",
             format("transport cwnd needs 1 <= cwnd_init <= cwnd_max, got init=%u max=%u",
                    t.cwnd_init, t.cwnd_max));
    }
    if (t.buffer_packets < t.cwnd_max) {
      r.fail("transport.buffer_packets",
             format("transport.buffer_packets must be >= cwnd_max, got buffer=%u cwnd_max=%u",
                    t.buffer_packets, t.cwnd_max));
    }
  }

  // -- radio and MAC ----------------------------------------------------------
  const PhyConfig& phy = c.phy;
  r.require(phy.data_rate_bps > 0.0, "phy.data_rate_bps", "> 0", phy.data_rate_bps);
  r.require(phy.rx_range_m > 0.0, "phy.rx_range_m", "> 0", phy.rx_range_m);
  r.require(phy.cs_range_m > 0.0, "phy.cs_range_m", "> 0", phy.cs_range_m);
  r.require(phy.frame_loss_rate >= 0.0 && phy.frame_loss_rate < 1.0, "phy.frame_loss_rate",
            "in [0, 1)", phy.frame_loss_rate);
  r.require(phy.street_width_m >= 0.0, "phy.street_width_m", ">= 0", phy.street_width_m);
  r.require(phy.nlos_rx_range_m > 0.0, "phy.nlos_rx_range_m", "> 0", phy.nlos_rx_range_m);
  r.require(phy.nlos_loss_rate >= 0.0 && phy.nlos_loss_rate < 1.0, "phy.nlos_loss_rate",
            "in [0, 1)", phy.nlos_loss_rate);
  if (phy.urban() && phy.nlos_rx_range_m > phy.rx_range_m) {
    r.fail("phy.nlos_rx_range_m",
           format("nlos_rx_range_m must be in (0, rx_range], got %g (rx_range %g)",
                  phy.nlos_rx_range_m, phy.rx_range_m));
  }
  r.require(c.mac.ifq_capacity >= 1, "mac.ifq_capacity", ">= 1", c.mac.ifq_capacity);

  // -- faults -----------------------------------------------------------------
  const FaultConfig& f = c.fault;
  r.require(f.crash_rate >= 0.0, "fault.crash_rate", ">= 0", f.crash_rate);
  r.require(f.downtime_mean > zero, "fault.downtime_mean", "> 0", f.downtime_mean);
  r.require(f.link_blackouts >= 0, "fault.link_blackouts", ">= 0", f.link_blackouts);
  r.require(f.blackout_mean > zero, "fault.blackout_mean", "> 0", f.blackout_mean);
  r.require(f.corrupt_rate >= 0.0 && f.corrupt_rate <= 1.0, "fault.corrupt_rate", "in [0, 1]",
            f.corrupt_rate);
  r.require(f.corrupt_from >= zero, "fault.corrupt_from", ">= 0", f.corrupt_from);
  r.require(f.corrupt_until >= zero, "fault.corrupt_until", ">= 0", f.corrupt_until);
  r.require(f.partition_frac >= 0.0 && f.partition_frac <= 1.0, "fault.partition_frac",
            "in [0, 1]", f.partition_frac);
  r.require(f.partition_from >= zero, "fault.partition_from", ">= 0", f.partition_from);
  r.require(f.partition_until >= zero, "fault.partition_until", ">= 0", f.partition_until);
  r.require(f.window_from >= zero, "fault.window_from", ">= 0", f.window_from);
  if (f.enabled()) {
    if (f.window_from >= c.duration) {
      r.fail("fault.window_from", format("fault window opens at %.3fs, after the run ends at %.3fs",
                                         f.window_from.sec(), c.duration.sec()));
    }
    // Explicit fault windows must open inside the run and close after they
    // open (a zero `until` means "until end of run").
    if (f.corrupt_rate > 0.0) {
      if (f.corrupt_from >= c.duration) {
        r.fail("fault.corrupt_from",
               format("corruption window opens at %.3fs, after the run ends at %.3fs",
                      f.corrupt_from.sec(), c.duration.sec()));
      }
      if (f.corrupt_until != zero && f.corrupt_until <= f.corrupt_from) {
        r.fail("fault.corrupt_until", format("corruption window [%.3fs, %.3fs) is empty",
                                             f.corrupt_from.sec(), f.corrupt_until.sec()));
      }
    }
    if (f.partition) {
      if (f.partition_from >= c.duration) {
        r.fail("fault.partition_from",
               format("partition opens at %.3fs, after the run ends at %.3fs",
                      f.partition_from.sec(), c.duration.sec()));
      }
      if (f.partition_until != zero && f.partition_until <= f.partition_from) {
        r.fail("fault.partition_until", format("partition window [%.3fs, %.3fs) is empty",
                                               f.partition_from.sec(), f.partition_until.sec()));
      }
    }
  }

  return std::move(r.errors);
}

ScenarioConfig ScenarioBuilder::build() const {
  const std::vector<ConfigError> errors = check();
  if (!errors.empty()) {
    std::string report;
    for (const ConfigError& e : errors) report += "\n    " + e.field + ": " + e.message;
    MANET_EXPECTS_MSG(errors.empty(), "invalid scenario config:%s", report.c_str());
  }
  ScenarioConfig cfg = cfg_;
  if (!protocol_name_.empty()) {
    cfg.protocol = find_protocol(protocol_name_)->id;
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
