// What the per-node objects cost on the heap, counted by this binary's own
// operator new. Most nodes of a large field never queue a frame, buffer a
// packet or hold a route, so an idle MAC, route-request buffer or on-demand
// protocol must allocate nothing, and a built 5,000-node city must hold
// little per node. The counter replaces every throwing and nothrow form of
// new/new[] and every delete/delete[] it pairs with (so the sanitizer builds
// see malloc and free on both sides), and keeps the requested size in a
// header in front of each block, so `live_bytes` is exact.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "mac/wifi_mac.hpp"
#include "mobility/static_mobility.hpp"
#include "net/node.hpp"
#include "phy/channel.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/common.hpp"
#include "routing/dsr/dsr.hpp"
#include "scenario/builder.hpp"
#include "scenario/scenario.hpp"

namespace {

constexpr std::size_t kHeader = alignof(std::max_align_t);
std::uint64_t allocations = 0;
std::int64_t live_bytes = 0;

void* counted_new(std::size_t n) noexcept {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) return nullptr;
  *static_cast<std::size_t*>(raw) = n;
  ++allocations;
  live_bytes += static_cast<std::int64_t>(n);
  return static_cast<char*>(raw) + kHeader;
}

void* counted_new_or_throw(std::size_t n) {
  void* p = counted_new(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  live_bytes -= static_cast<std::int64_t>(*static_cast<std::size_t*>(raw));
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new_or_throw(n); }
void* operator new[](std::size_t n) { return counted_new_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_new(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_new(n); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_delete(p); }

namespace manet {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = allocations;
  fn();
  return allocations - before;
}

/// One node's stack on a one-node channel, for the protocols to attach to.
struct OneNode {
  Simulator sim;
  StatsCollector stats;
  Channel channel{sim, PhyConfig{}, Area{1000.0, 1000.0}};
  StaticMobility mobility{Vec2{100.0, 100.0}};
  Node node{sim, stats, channel, 0, &mobility, MacConfig{}, 1};
};

TEST(Alloc, CounterSeesTheHeap) {
  // A direct call, which the compiler may not elide as it may a
  // new-expression whose result goes unused.
  EXPECT_EQ(allocations_in([] { ::operator delete(::operator new(16)); }), 1u);
}

TEST(Alloc, IdleMacAllocatesNothing) {
  Simulator sim;
  StatsCollector stats;
  Transceiver trx(sim, PhyConfig{}, 0);
  EXPECT_EQ(allocations_in([&] { WifiMac mac(sim, MacConfig{}, trx, stats, RngStream(1, "mac")); }),
            0u);
}

TEST(Alloc, EmptyPacketBufferAllocatesNothing) {
  Simulator sim;
  PacketBuffer::DropFn on_drop = [](const Packet&, DropReason) {};
  EXPECT_EQ(allocations_in([&] { PacketBuffer buf(sim, std::move(on_drop)); }), 0u);
}

TEST(Alloc, IdleOnDemandProtocolsAllocateNothing) {
  OneNode one;
  EXPECT_EQ(allocations_in([&] { aodv::Aodv a(one.node, aodv::Config{}, RngStream(1, "aodv")); }),
            0u);
  EXPECT_EQ(allocations_in([&] { dsr::Dsr d(one.node, dsr::Config{}, RngStream(1, "dsr")); }), 0u);
}

// The heap a built urban_scenario(5000) holds per node: the node stacks,
// the mobility pool, the channel's grid and the flows. Measured at
// 1,706 B/node; 2,874 B/node while the MAC queue and the route-request
// buffer were std::deques, which allocate when constructed.
TEST(Alloc, BuiltCityHoldsUnderTheCeilingPerNode) {
  constexpr std::uint32_t kNodes = 5000;
  constexpr std::int64_t kCeilingBytesPerNode = 1800;
  const ScenarioConfig cfg = urban_scenario(kNodes).protocol(Protocol::kAodv).build();
  const std::int64_t before = live_bytes;
  Scenario city(cfg);
  city.build();
  const std::int64_t per_node = (live_bytes - before) / kNodes;
  EXPECT_LE(per_node, kCeilingBytesPerNode);
  EXPECT_GT(per_node, 0);
}

}  // namespace
}  // namespace manet
