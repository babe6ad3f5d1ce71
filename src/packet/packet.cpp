#include "packet/packet.hpp"

#include <atomic>

namespace manet {

namespace {
// Atomic so concurrently-running replications (SweepRunner worker
// threads) never mint the same uid.
// manet-lint: allow-global-state - atomic uid mint; uids identify trace lines but never influence simulated behaviour
std::atomic<std::uint64_t> g_next_uid{1};
}  // namespace

Packet::Packet() : uid_(g_next_uid.fetch_add(1, std::memory_order_relaxed)) {}

std::size_t Packet::size_bytes() const {
  switch (mac.type) {
    case MacFrameType::kRts: return kMacRtsBytes;
    case MacFrameType::kCts: return kMacCtsBytes;
    case MacFrameType::kAck: return kMacAckBytes;
    case MacFrameType::kData: break;
  }
  std::size_t n = kMacDataHeaderBytes;
  if (kind == PacketKind::kArp) return n + kArpBytes;
  n += kIpHeaderBytes;
  if (kind == PacketKind::kData) {
    n += kUdpHeaderBytes + payload_bytes;
    if (transport.kind != SegKind::kNone) n += kTransportHeaderBytes;
  }
  if (routing) n += routing->size_bytes();
  return n;
}

}  // namespace manet
