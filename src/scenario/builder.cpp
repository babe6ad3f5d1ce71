#include "scenario/builder.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/assert.hpp"

namespace manet {

ScenarioBuilder ScenarioBuilder::from(const ScenarioConfig& cfg) {
  ScenarioBuilder b;
  b.cfg_ = cfg;
  return b;
}

ScenarioBuilder& ScenarioBuilder::protocol(Protocol p) {
  cfg_.protocol = p;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::protocol(std::string_view name) {
  const ProtocolEntry* e = find_protocol(name);
  MANET_EXPECTS_MSG(e != nullptr, "unknown protocol \"%s\" (registered: %s)",
                    std::string(name).c_str(), protocol_names().c_str());
  cfg_.protocol = e->id;
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

ScenarioBuilder& ScenarioBuilder::transport(const TransportConfig& transport) {
  cfg_.transport = transport;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::duration(SimTime duration) {
  cfg_.duration = duration;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::urban(double street_width_m, double nlos_range_m,
                                        double nlos_loss) {
  cfg_.phy.street_width_m = street_width_m;
  cfg_.phy.nlos_rx_range_m = nlos_range_m;
  cfg_.phy.nlos_loss_rate = nlos_loss;
  return *this;
}

ScenarioConfig ScenarioBuilder::build() const { return cfg_; }

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
