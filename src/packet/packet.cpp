#include "packet/packet.hpp"

namespace manet {

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
