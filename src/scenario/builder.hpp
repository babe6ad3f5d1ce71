// Fluent scenario construction: setters over a staged ScenarioConfig.
//
// The builder only names the fields a caller sets; it checks nothing. The
// scenario contract (check() in scenario.hpp) is enforced where every run
// starts: Scenario's constructor aborts on a config that breaks it, with the
// offending values in the contract message, whether the config came from
// build(), from a scenario file or from field pokes.
//
//   const ScenarioConfig cfg = ScenarioBuilder()
//                                  .protocol("DSR")
//                                  .nodes(50)
//                                  .area(1500, 300)
//                                  .pause(seconds(30))
//                                  .build();
//   const ScenarioResult r = Scenario::run_once(cfg);
//
// Knobs without a setter are plain field writes on the built config.
// Direct aggregate construction of ScenarioConfig outside src/scenario/ is
// flagged by manet_lint (scenario-config-aggregate).
#pragma once

#include <string_view>

#include "scenario/scenario.hpp"

namespace manet {

class ScenarioBuilder {
 public:
  /// Starts from the Table-I defaults of ScenarioConfig.
  ScenarioBuilder() = default;

  /// Start from an existing config (migration path for code that still
  /// assembles ScenarioConfig by hand, and for sweeping variations of a
  /// base).
  [[nodiscard]] static ScenarioBuilder from(const ScenarioConfig& cfg);

  // -- protocol ---------------------------------------------------------------
  ScenarioBuilder& protocol(Protocol p);
  /// By name, case-insensitive ("dsr" matches "DSR"). An unknown name aborts
  /// with a contract message that lists every protocol name.
  ScenarioBuilder& protocol(std::string_view name);

  // -- topology & mobility ----------------------------------------------------
  ScenarioBuilder& seed(std::uint64_t seed);
  ScenarioBuilder& nodes(std::uint32_t count);
  ScenarioBuilder& area(double width_m, double height_m);
  ScenarioBuilder& static_nodes(bool on = true);
  ScenarioBuilder& mobility(MobilityKind kind);
  ScenarioBuilder& speed(double v_min_mps, double v_max_mps);
  ScenarioBuilder& pause(SimTime pause);

  // -- traffic ----------------------------------------------------------------
  ScenarioBuilder& connections(std::uint32_t count);
  /// Reliable transport between app and net (closed-loop traffic).
  ScenarioBuilder& transport(const TransportConfig& transport);

  // -- run shape --------------------------------------------------------------
  ScenarioBuilder& duration(SimTime duration);

  // -- stack ------------------------------------------------------------------
  /// Urban street-canyon shadowing (see PhyConfig): NLOS pairs decode only
  /// within `nlos_range_m` and suffer an extra `nlos_loss` probability of
  /// loss. `street_width_m` = 0 turns the model off. Usually combined with
  /// mobility(MobilityKind::kManhattan) — see urban_scenario().
  ScenarioBuilder& urban(double street_width_m, double nlos_range_m = 75.0,
                         double nlos_loss = 0.0);

  /// The staged config, unchecked: Scenario checks it when a run starts.
  [[nodiscard]] ScenarioConfig build() const;

 private:
  ScenarioConfig cfg_;
};

/// The urban (Manhattan-grid) scenario family: street-constrained mobility
/// over square city blocks with street-canyon shadowing, at constant density
/// (~50 nodes/km², the paper's 50 nodes over 1 km²) so the area grows with
/// the node count and N is the only free variable when sweeping city size.
/// Flow count scales gently (10 flows up to 1k nodes, then +1 per 100).
/// Chain protocol()/seed()/duration() onto the returned builder;
/// every registered protocol runs the family unchanged.
[[nodiscard]] ScenarioBuilder urban_scenario(std::uint32_t nodes);

}  // namespace manet
