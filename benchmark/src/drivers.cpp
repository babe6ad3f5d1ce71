#include "drivers.hpp"

#include <cstdio>
#include <memory>
#include <vector>

#include "core/event_queue.hpp"
#include "mobility/mobility_pool.hpp"
#include "mobility/static_mobility.hpp"
#include "tracer.hpp"

namespace manet::benchmark {
namespace {

// Host time each driver spends measuring.
constexpr std::int64_t kBudgetNs = 150'000'000;

}  // namespace

double event_queue_hold_ns(std::size_t depth, std::uint64_t seed) {
  // Delays drawn up front so the timed loop is queue work only; uniform over
  // (0, 1 s] spans the MAC-slot to routing-timer range the stack schedules.
  RngStream rng(seed, "bench-hold");
  std::vector<std::int64_t> delays(1 << 16);
  for (std::int64_t& d : delays) d = rng.uniform_int(1, 1'000'000'000);
  EventQueue q;
  std::size_t next = 0;
  auto delay = [&] { return nanoseconds(delays[next++ & (delays.size() - 1)]); };
  for (std::size_t i = 0; i < (depth == 0 ? 1 : depth); ++i) q.schedule(delay(), [] {});
  auto hold = [&] {
    EventQueue::Popped ev = q.pop();
    ev.cb();
    q.schedule(ev.time + delay(), [] {});
  };
  for (int i = 0; i < 10'000; ++i) hold();

  constexpr int kBatch = 10'000;
  std::uint64_t ops = 0;
  const std::int64_t t0 = host_ns();
  std::int64_t t1 = t0;
  while (t1 - t0 < kBudgetNs) {
    for (int i = 0; i < kBatch; ++i) hold();
    ops += kBatch;
    t1 = host_ns();
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(ops);
}

TransmitCost channel_transmit(const ScenarioConfig& cfg) {
  // Start positions from the workload's own built scenario.
  std::vector<Vec2> start;
  {
    Scenario sc(cfg);
    sc.build();
    for (std::size_t i = 0; i < sc.size(); ++i) {
      start.push_back(sc.node(i).mobility().position_at(SimTime::zero()));
    }
  }
  Simulator sim;
  Channel channel(sim, cfg.phy, cfg.area, milliseconds(250), cfg.seed);
  MobilityPool fixed;
  std::vector<std::unique_ptr<Transceiver>> trx;
  for (std::uint32_t i = 0; i < cfg.num_nodes; ++i) {
    trx.push_back(std::make_unique<Transceiver>(sim, channel.config(), i));
    channel.add(trx.back().get(), fixed.make<StaticMobility>(start[i]));
  }
  Packet frame;
  frame.kind = PacketKind::kData;
  frame.payload_bytes = cfg.payload_bytes;
  frame.mac.dst = kBroadcast;
  RngStream rng(cfg.seed, "bench-tx");
  auto transmit = [&] {
    const auto sender = static_cast<NodeId>(rng.uniform_int(0, cfg.num_nodes - 1));
    frame.mac.src = sender;
    channel.transmit(sender, frame);
    sim.run();
  };
  for (int i = 0; i < 1'000; ++i) transmit();

  const std::uint64_t events0 = sim.events_executed();
  std::uint64_t tx = 0;
  const std::int64_t t0 = host_ns();
  std::int64_t t1 = t0;
  while (t1 - t0 < kBudgetNs) {
    for (int i = 0; i < 1'000; ++i) transmit();
    tx += 1'000;
    t1 = host_ns();
  }
  return {static_cast<double>(t1 - t0) / static_cast<double>(tx),
          static_cast<double>(sim.events_executed() - events0) / static_cast<double>(tx)};
}

double mobility_position_ns(const ScenarioConfig& cfg) {
  // The models of the workload's own built scenario, queried directly.
  Scenario sc(cfg);
  sc.build();
  std::vector<MobilityModel*> models;
  for (std::size_t i = 0; i < sc.size(); ++i) models.push_back(&sc.node(i).mobility());
  double sink = 0;
  std::uint64_t calls = 0;
  SimTime t = SimTime::zero();
  const std::int64_t t0 = host_ns();
  std::int64_t t1 = t0;
  // Whole refresh sweeps until the budget is spent or the run's duration is
  // covered (models only move forward in time).
  while (t1 - t0 < kBudgetNs && t <= cfg.duration) {
    for (MobilityModel* m : models) sink += m->position_at(t).x;
    calls += models.size();
    t += milliseconds(250);
    t1 = host_ns();
  }
  if (sink < 0) std::fprintf(stderr, "manet_bench: impossible position sum\n");
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

}  // namespace manet::benchmark
