#include "packet/packet.hpp"

#include <gtest/gtest.h>

#include "routing/aodv/aodv_messages.hpp"
#include "routing/on_demand.hpp"

namespace manet {
namespace {

TEST(Packet, CopyPreservesUid) {
  Packet a;
  const Packet b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(a.uid(), b.uid());
}

TEST(Packet, CopySharesPayloadUntilMutation) {
  Packet a;
  auto rreq = std::make_unique<aodv::Rreq>();
  rreq->dest = 7;
  a.routing = std::move(rreq);
  Packet b = a;
  // The copy is cheap: one payload object, shared read-only.
  EXPECT_TRUE(a.routing.shares_with(b.routing));
  EXPECT_EQ(a.routing.get(), b.routing.get());
  // First mutation detaches the writer; the original is untouched.
  auto* pb = dynamic_cast<aodv::Rreq*>(b.routing.mutate());
  ASSERT_NE(pb, nullptr);
  pb->dest = 9;
  EXPECT_FALSE(a.routing.shares_with(b.routing));
  const auto* pa = dynamic_cast<const aodv::Rreq*>(a.routing.get());
  ASSERT_NE(pa, nullptr);
  EXPECT_EQ(pa->dest, 7u);
}

TEST(Packet, MutationNeverLeaksToSiblingCopies) {
  // A broadcast: every receiver holds its own copy of one frame. A receiver
  // that rewrites its source route (forwarding) must not perturb siblings.
  Packet frame;
  auto sr = std::make_unique<SourceRoute>();
  sr->path = {0, 1, 2, 3};
  sr->next_index = 1;
  frame.routing = std::move(sr);
  Packet rx1 = frame;
  Packet rx2 = frame;
  auto* mut = dynamic_cast<SourceRoute*>(rx1.routing.mutate());
  ASSERT_NE(mut, nullptr);
  ++mut->next_index;
  mut->path.push_back(9);
  for (const Packet* p : {&frame, &rx2}) {
    const auto* s = dynamic_cast<const SourceRoute*>(p->routing.get());
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->next_index, 1u);
    EXPECT_EQ(s->path.size(), 4u);
  }
  // rx2 and the original still share one object; only rx1 detached.
  EXPECT_TRUE(frame.routing.shares_with(rx2.routing));
  EXPECT_FALSE(frame.routing.shares_with(rx1.routing));
}

TEST(Packet, MutateWhenSoleOwnerDoesNotClone) {
  Packet a;
  a.routing = std::make_unique<aodv::Rreq>();
  const RoutingPayload* before = a.routing.get();
  EXPECT_EQ(a.routing.mutate(), before);  // no sharer, no copy
}

TEST(Packet, AssignmentSharesPayload) {
  Packet a;
  a.routing = std::make_unique<aodv::Rrep>();
  Packet b;
  b = a;
  EXPECT_EQ(a.routing.get(), b.routing.get());
  EXPECT_NE(b.routing, nullptr);
  // Detaching b leaves a intact.
  EXPECT_NE(b.routing.mutate(), nullptr);
  EXPECT_NE(a.routing.get(), b.routing.get());
}

TEST(Packet, SelfAssignmentSafe) {
  Packet a;
  a.routing = std::make_unique<aodv::Rreq>();
  Packet& ref = a;
  a = ref;
  EXPECT_NE(a.routing, nullptr);
}

TEST(Packet, ControlFrameSizes) {
  Packet p;
  p.mac.type = MacFrameType::kRts;
  EXPECT_EQ(p.size_bytes(), kMacRtsBytes);
  p.mac.type = MacFrameType::kCts;
  EXPECT_EQ(p.size_bytes(), kMacCtsBytes);
  p.mac.type = MacFrameType::kAck;
  EXPECT_EQ(p.size_bytes(), kMacAckBytes);
}

TEST(Packet, ArpFrameSize) {
  Packet p;
  p.kind = PacketKind::kArp;
  EXPECT_EQ(p.size_bytes(), kMacDataHeaderBytes + kArpBytes);
}

TEST(Packet, DataFrameSizeIncludesAllLayers) {
  Packet p;
  p.kind = PacketKind::kData;
  p.payload_bytes = 512;
  EXPECT_EQ(p.size_bytes(),
            kMacDataHeaderBytes + kIpHeaderBytes + kUdpHeaderBytes + 512);
}

TEST(Packet, DataFrameWithSourceRouteGrows) {
  Packet p;
  p.kind = PacketKind::kData;
  p.payload_bytes = 512;
  const std::size_t bare = p.size_bytes();
  auto sr = std::make_unique<SourceRoute>();
  sr->path = {0, 1, 2, 3, 4};  // three intermediate hops
  p.routing = std::move(sr);
  EXPECT_EQ(p.size_bytes(), bare + 4 + 4 + 4 * 3);
}

TEST(Packet, RoutingControlSize) {
  Packet p;
  p.kind = PacketKind::kRoutingControl;
  auto rreq = std::make_unique<aodv::Rreq>();
  const std::size_t body = rreq->size_bytes();
  p.routing = std::move(rreq);
  EXPECT_EQ(p.size_bytes(), kMacDataHeaderBytes + kIpHeaderBytes + body);
}

TEST(Payloads, AodvSizesMatchRfc) {
  EXPECT_EQ(aodv::Rreq{}.size_bytes(), 24u);
  EXPECT_EQ(aodv::Rrep{}.size_bytes(), 20u);
  aodv::Rerr rerr;
  rerr.unreachable.emplace_back(1, 2);
  rerr.unreachable.emplace_back(3, 4);
  EXPECT_EQ(rerr.size_bytes(), 4u + 16u);
}

TEST(Payloads, CloneIsPolymorphic) {
  aodv::Rerr rerr;
  rerr.unreachable.emplace_back(5, 6);
  const std::unique_ptr<RoutingPayload> copy = rerr.clone();
  auto* typed = dynamic_cast<aodv::Rerr*>(copy.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->unreachable.size(), 1u);
}

}  // namespace
}  // namespace manet
