#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/assert.hpp"
#include "core/rng.hpp"

namespace manet {
namespace {

/// Floor on exponential draws so a crash is always observable: a sub-100ms
/// outage is shorter than one route-repair round trip and would only add
/// noise to the recovery metrics.
constexpr SimTime kMinFaultDuration = milliseconds(100);

SimTime draw_duration(RngStream& rng, SimTime mean) {
  const SimTime d = seconds_f(rng.exponential(mean.sec()));
  return d < kMinFaultDuration ? kMinFaultDuration : d;
}

/// Expected-count -> integer count: floor(rate) certain events plus one more
/// with probability frac(rate). Keeps E[count] == rate without a Poisson
/// sampler (one uniform draw, trivially reproducible).
int draw_count(RngStream& rng, double rate) {
  MANET_EXPECTS(rate >= 0.0);
  const double fl = std::floor(rate);
  int n = static_cast<int>(fl);
  if (rng.chance(rate - fl)) ++n;
  return n;
}

}  // namespace

const char* to_string(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kCrash: return "crash";
    case FaultEventKind::kRestart: return "restart";
  }
  return "?";
}

FaultPlan FaultPlan::compile(const FaultConfig& cfg, std::uint32_t num_nodes, SimTime duration,
                             std::uint64_t seed) {
  MANET_EXPECTS(duration > SimTime::zero());
  FaultPlan plan;
  if (!cfg.enabled()) return plan;

  const SimTime window_from = cfg.window_from < duration ? cfg.window_from : SimTime::zero();

  // Each node draws from its own stream, so the schedule for node i does
  // not depend on how many crashes node j happened to draw.
  for (NodeId id = 0; id < num_nodes; ++id) {
    RngStream rng(seed, "fault-crash", id);
    const int crashes = draw_count(rng, cfg.crash_rate);
    std::vector<std::pair<SimTime, SimTime>> windows;
    for (int k = 0; k < crashes; ++k) {
      const SimTime at = seconds_f(rng.uniform(window_from.sec(), duration.sec()));
      const SimTime up = at + draw_duration(rng, cfg.downtime_mean);
      windows.emplace_back(at, up);
    }
    std::sort(windows.begin(), windows.end());
    // Drop windows that begin inside an earlier one: a node cannot crash
    // while already down.
    SimTime busy_until = SimTime::zero();
    for (const auto& [at, up] : windows) {
      if (at < busy_until) continue;
      plan.events_.push_back({at, FaultEventKind::kCrash, id});
      if (up < duration) plan.events_.push_back({up, FaultEventKind::kRestart, id});
      busy_until = up;
    }
  }

  // Total order on (at, kind, a): scheduling the events in list order then
  // gives a deterministic event-queue insertion order regardless of how the
  // schedule was assembled above.
  std::sort(plan.events_.begin(), plan.events_.end(), [](const FaultEvent& x, const FaultEvent& y) {
    if (x.at != y.at) return x.at < y.at;
    if (x.kind != y.kind) return x.kind < y.kind;
    return x.a < y.a;
  });
  return plan;
}

std::vector<std::pair<SimTime, SimTime>> FaultPlan::down_windows(NodeId id) const {
  std::vector<std::pair<SimTime, SimTime>> out;
  for (const FaultEvent& ev : events_) {
    if (ev.a != id) continue;
    if (ev.kind == FaultEventKind::kCrash) {
      out.emplace_back(ev.at, SimTime::max());
    } else {
      MANET_ASSERT_MSG(!out.empty() && out.back().second == SimTime::max(),
                       "node %u: restart at %lldns without a preceding crash", id,
                       static_cast<long long>(ev.at.ns()));
      out.back().second = ev.at;
    }
  }
  return out;
}

std::string FaultPlan::to_string() const {
  std::string out;
  char line[128];
  for (const FaultEvent& ev : events_) {
    std::snprintf(line, sizeof(line), "%lld %s %u\n", static_cast<long long>(ev.at.ns()),
                  manet::to_string(ev.kind), ev.a);
    out += line;
  }
  return out;
}

}  // namespace manet
