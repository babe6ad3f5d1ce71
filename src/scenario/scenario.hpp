// Scenario assembly: Table I of the paper family in code.
//
// A Scenario owns one complete simulation run: the simulator, channel, N
// nodes (each with mobility + PHY + MAC + ARP + a routing protocol), the CBR
// connections, and the statistics. Configuration defaults reproduce the
// canonical setup: 1000 m × 1000 m area, 250 m range, 2 Mbit/s radios,
// random waypoint, 10 CBR/UDP connections of 512-byte packets at 4 pkt/s,
// 150 simulated seconds.
#pragma once

#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "app/traffic.hpp"
#include "core/simulator.hpp"
#include "fault/fault.hpp"
#include "mac/mac_config.hpp"
#include "mobility/manhattan.hpp"
#include "mobility/mobility_pool.hpp"
#include "net/node.hpp"
#include "phy/channel.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/cbrp/cbrp.hpp"
#include "routing/dsdv/dsdv.hpp"
#include "routing/dsr/dsr.hpp"
#include "routing/lar/lar.hpp"
#include "routing/olsr/olsr.hpp"
#include "routing/tora/tora.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"
#include "transport/transport.hpp"

namespace manet {

/// The implemented routing protocols; kProtocols (below) holds one row each.
enum class Protocol : std::uint8_t { kAodv, kDsr, kCbrp, kDsdv, kOlsr, kLar, kTora };

[[nodiscard]] const char* to_string(Protocol p);

/// Which mobility model drives the nodes (the Divecha-et-al. comparison
/// axis); `static_nodes` overrides all of them.
enum class MobilityKind : std::uint8_t {
  kRandomWaypoint,
  kRandomWalk,
  kGaussMarkov,
  kManhattan,
};

[[nodiscard]] const char* to_string(MobilityKind k);

/// Workload shape: the paper's constant-bit-rate flows, or bursty
/// exponential ON/OFF flows (extension; see abl_traffic).
enum class TrafficKind : std::uint8_t { kCbr, kOnOff };

[[nodiscard]] const char* to_string(TrafficKind k);

struct ScenarioConfig {
  Protocol protocol = Protocol::kAodv;
  std::uint64_t seed = 1;

  // Topology & mobility (Table I).
  std::uint32_t num_nodes = 50;
  Area area{1000.0, 1000.0};
  bool static_nodes = false;  ///< overrides mobility with random fixed placement
  MobilityKind mobility = MobilityKind::kRandomWaypoint;
  double v_min = 0.1;         ///< m/s
  double v_max = 20.0;        ///< m/s
  SimTime pause = SimTime::zero();
  SimTime mobility_warmup = seconds(1000);
  /// The Manhattan model's street layout; it takes its area and speeds from
  /// the fields above.
  ManhattanStreets manhattan;

  // Traffic (Table I).
  std::uint32_t num_connections = 10;
  std::size_t payload_bytes = 512;
  TrafficKind traffic = TrafficKind::kCbr;
  SimTime cbr_interval = milliseconds(250);  // 4 packets/s
  SimTime cbr_start = seconds(10);           // staggered over +10 s
  SimTime cbr_start_window = seconds(10);
  SimTime onoff_burst_mean = seconds(5);     // ON/OFF workload only
  SimTime onoff_idle_mean = seconds(5);

  /// Reliable transport between app and net (closed-loop traffic). Off by
  /// default: the paper's open-loop CBR/UDP workload, byte-identical to the
  /// pre-transport simulator.
  TransportConfig transport;

  // Duration.
  SimTime duration = seconds(150);

  /// Fault injection (disabled by default). When enabled, the schedule is
  /// compiled from (fault, seed) before the run starts; see src/fault/.
  FaultConfig fault;

  /// When non-empty, write an ns-2-style event trace to this path.
  std::string trace_path;

  // Stack.
  PhyConfig phy;
  MacConfig mac;
  aodv::Config aodv;
  dsr::Config dsr;
  cbrp::Config cbrp;
  olsr::Config olsr;
  lar::Config lar;

  friend bool operator==(const ScenarioConfig&, const ScenarioConfig&) = default;
};

/// One violation of the scenario contract.
struct ConfigError {
  /// The ScenarioConfig member path the message blames: "num_nodes",
  /// "phy.frame_loss_rate", "fault.window_from", ...
  std::string field;
  /// What is wrong, naming the offending value ("must be >= 2, got 1").
  std::string message;
};

/// The scenario contract, written once: every range and cross-field rule on
/// ScenarioConfig. Returns every violation, the single-field ranges of the
/// field table (fields.hpp) in row order first; empty when `cfg` is valid.
/// Single-field ranges always apply; cross-field rules only where the
/// fields they relate are in use (mobile nodes, traffic, transport, faults,
/// the urban model). Scenario's constructor aborts on any error; the
/// scenario-file loader (spec.hpp) and manetsim report them.
[[nodiscard]] std::vector<ConfigError> check(const ScenarioConfig& cfg);

/// The whole config, one "path = value" line per field: protocol, mobility,
/// traffic and trace_path, then every row of the field table in order.
/// Values are exact (shortest round-trip decimals, times in seconds), so
/// two configs print alike only when they are equal. examples/quickstart
/// prints it; tests print failing configs with it.
[[nodiscard]] std::string describe(const ScenarioConfig& cfg);

/// Summary of one finished run.
struct ScenarioResult {
  double pdr = 0.0;
  double delay_ms = 0.0;
  double nrl = 0.0;
  double nml = 0.0;
  double throughput_kbps = 0.0;
  double avg_hops = 0.0;
  /// Fraction of (flow, sample) pairs whose endpoints were connected in the
  /// instantaneous radio graph, sampled once per second from the traffic
  /// start — the oracle PDR upper bound, since a partitioned network caps
  /// every protocol (1.0 when no sample was taken: a run without flows).
  double connectivity = 1.0;
  std::uint64_t data_originated = 0;
  std::uint64_t data_delivered = 0;
  /// Transport-layer retransmissions over all flows (0 when transport off).
  std::uint64_t retransmissions = 0;
  std::uint64_t routing_tx = 0;
  std::uint64_t mac_ctrl_tx = 0;
  std::uint64_t events = 0;
  /// High-water mark of the event queue during the run (profiling).
  std::size_t peak_queue_depth = 0;

  // Fault-injection outcomes (all zero for fault-free runs).
  /// Mean time from an outage healing to the next delivered data packet, ms.
  double repair_latency_ms = 0.0;
  std::uint64_t crashes = 0;
  /// Always 0: crashes are the only fault kind, and the channel-corruption
  /// window that counted here is gone. Kept so that model_digest() and the
  /// benchmark's copy of it, which both hash it, give the values they were
  /// recorded with.
  std::uint64_t fault_corrupted = 0;
  std::uint64_t delivered_during_fault = 0;
  std::uint64_t delivered_after_fault = 0;

  /// Frames every transceiver decoded / received corrupted, summed at the
  /// horizon. Each is counted at a decodable end, which is always an event,
  /// so no lazily applied arrival step moves them.
  std::uint64_t frames_rx = 0;
  std::uint64_t frames_corrupt = 0;

  /// Per-flow ledger records of the flows that made a first transmission,
  /// sorted by flow id (empty when the transport is off — keeps
  /// transport-free artifacts byte-identical).
  std::vector<std::pair<std::uint32_t, FlowRecord>> flows;
};

/// The run's behaviour fingerprint: FNV-1a over every field of `r` that
/// describes what the model did (metrics, counters, fault outcomes, PHY
/// frames, flow rows), bit for bit. `events` and `peak_queue_depth` are the
/// kernel's cost, not behaviour, so a change that only makes the simulator
/// faster leaves the digest alone. The field order is frozen: benchmark/
/// keeps a copy that must give the same value, and folds a workload pass's
/// per-run digests into the `model_digest` it prints.
[[nodiscard]] std::uint64_t model_digest(const ScenarioResult& r);

class Scenario {
 public:
  /// Aborts when check(cfg) reports any error, listing each as
  /// "field: message".
  explicit Scenario(const ScenarioConfig& cfg);

  /// Build the network (idempotent; run() calls it if needed).
  void build();

  /// Run to the configured duration and return the summary.
  ScenarioResult run();

  /// Convenience: construct, run, summarize.
  [[nodiscard]] static ScenarioResult run_once(const ScenarioConfig& cfg);

  // -- access for examples/tests (valid after build()) -----------------------
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] StatsCollector& stats() { return stats_; }
  [[nodiscard]] Channel& channel() { return *channel_; }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] RoutingProtocol& routing(std::size_t i) { return *protocols_[i]; }
  /// Node i's transport endpoint (nullptr when the transport is disabled).
  [[nodiscard]] ReliableTransport* transport_of(std::size_t i) {
    return i < transports_.size() ? transports_[i].get() : nullptr;
  }
  /// The run's per-flow ledger (owned by stats()).
  [[nodiscard]] const FlowMonitor& flow_monitor() const { return stats_.flow_monitor(); }
  /// The compiled fault schedule (empty when fault injection is disabled).
  [[nodiscard]] const FaultPlan& fault_plan() const { return fault_plan_; }
  /// Every traffic flow's (source, destination), in flow-id order.
  [[nodiscard]] const std::vector<std::pair<NodeId, NodeId>>& flows() const { return flows_; }

 private:
  void sample_connectivity();
  void apply_fault(const FaultEvent& ev);

  ScenarioConfig cfg_;
  Simulator sim_;
  StatsCollector stats_;
  // Declared before channel_/nodes_: those hold raw pointers into the pool
  // and must be destroyed first (reverse declaration order).
  MobilityPool mobility_pool_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<RoutingProtocol>> protocols_;
  // Declared after nodes_ (they hold Node&): destroyed first.
  std::vector<std::unique_ptr<ReliableTransport>> transports_;
  std::vector<std::unique_ptr<TrafficSource>> sources_;
  std::unique_ptr<TraceWriter> trace_;
  FaultPlan fault_plan_;
  std::vector<std::pair<NodeId, NodeId>> flows_;
  std::uint64_t conn_samples_ = 0;
  std::uint64_t conn_connected_ = 0;
  // Scratch for sample_connectivity(), kept between samples: each node's
  // position, the cells' starts in conn_by_cell_ (the node ids by cell),
  // and the union-find parents.
  std::vector<Vec2> conn_pos_;
  std::vector<std::uint32_t> conn_start_;
  std::vector<NodeId> conn_by_cell_;
  std::vector<NodeId> conn_parent_;
  bool built_ = false;
};

/// One implemented routing protocol: a row of kProtocols.
struct ProtocolEntry {
  Protocol id;
  /// Canonical uppercase name ("AODV"); also the name() the instances report.
  const char* name;
  /// Instantiate the protocol for `node` from its own config block in `cfg`,
  /// if it has one.
  std::unique_ptr<RoutingProtocol> (*make)(Node& node, const ScenarioConfig& cfg, RngStream rng);
};

/// The factory of every row: protocol P built from its config block, when
/// `Block...` names one, or from the node and RNG alone.
template <class P, auto... Block>
[[nodiscard]] std::unique_ptr<RoutingProtocol> make_routing(
    Node& node, [[maybe_unused]] const ScenarioConfig& cfg, RngStream rng) {
  return std::make_unique<P>(node, cfg.*Block..., rng);
}

/// Every implemented protocol, indexed by Protocol: the paper's five plus LAR
/// and TORA. The row order is the table order of every sweep. Adding protocol
/// #8 is one enumerator plus one row; name lookup, make_protocol() and the
/// "every protocol" loops pick it up.
inline constexpr ProtocolEntry kProtocols[] = {
    {Protocol::kAodv, "AODV", &make_routing<aodv::Aodv, &ScenarioConfig::aodv>},
    {Protocol::kDsr, "DSR", &make_routing<dsr::Dsr, &ScenarioConfig::dsr>},
    {Protocol::kCbrp, "CBRP", &make_routing<cbrp::Cbrp, &ScenarioConfig::cbrp>},
    {Protocol::kDsdv, "DSDV", &make_routing<dsdv::Dsdv>},
    {Protocol::kOlsr, "OLSR", &make_routing<olsr::Olsr, &ScenarioConfig::olsr>},
    {Protocol::kLar, "LAR", &make_routing<lar::Lar, &ScenarioConfig::lar>},
    {Protocol::kTora, "TORA", &make_routing<tora::Tora>},
};
static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kProtocols); ++i) {
        if (kProtocols[i].id != static_cast<Protocol>(i)) return false;
      }
      return std::size(kProtocols) == static_cast<std::size_t>(Protocol::kTora) + 1;
    }(),
    "kProtocols must hold one row per Protocol, in enumerator order");

/// Case-insensitive lookup ("aodv" matches "AODV"); nullptr when absent.
[[nodiscard]] const ProtocolEntry* find_protocol(std::string_view name);

/// "AODV, DSR, ..." in table order, for unknown-name diagnostics.
[[nodiscard]] std::string protocol_names();

/// Instantiate a routing protocol of the configured kind for `node`.
[[nodiscard]] std::unique_ptr<RoutingProtocol> make_protocol(const ScenarioConfig& cfg,
                                                             Node& node);

}  // namespace manet
