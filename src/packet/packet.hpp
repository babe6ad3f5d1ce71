// The packet model.
//
// Packets are value types: the channel hands each receiver its own copy, so a
// forwarding node can rewrite headers without aliasing surprises. Protocol-
// specific routing content (AODV RREQs, DSR source routes, OLSR TC bodies,
// ...) hangs off the packet as a clonable polymorphic payload, which keeps
// this module independent of the individual routing protocols.
//
// Byte sizes follow the conventions of the ns-2 wireless stack the paper
// family used, so transmission times and byte-counted overheads are
// meaningful: 512-byte CBR payloads ride in ~580-byte frames at 2 Mbit/s.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

#include "core/time.hpp"

namespace manet {

/// Flat node identifier; doubles as the MAC and network address (one radio
/// interface per node, as in the paper family's scenarios).
using NodeId = std::uint32_t;

/// Link- and network-level broadcast address.
inline constexpr NodeId kBroadcast = 0xFFFF'FFFFu;

// ---------------------------------------------------------------------------
// Header sizes (bytes). 802.11-style MAC framing + PLCP handled by the MAC.
// ---------------------------------------------------------------------------
inline constexpr std::size_t kMacDataHeaderBytes = 34;  // 24 hdr + 6 SNAP + 4 FCS
inline constexpr std::size_t kMacRtsBytes = 20;
inline constexpr std::size_t kMacCtsBytes = 14;
inline constexpr std::size_t kMacAckBytes = 14;
inline constexpr std::size_t kArpBytes = 28;
inline constexpr std::size_t kIpHeaderBytes = 20;
inline constexpr std::size_t kUdpHeaderBytes = 8;
/// Extra bytes the reliable transport adds on top of the UDP header (seq,
/// cumulative ack, epoch — a TCP-ish 20-byte total). Charged only when a
/// packet actually carries a transport segment, so open-loop UDP traffic
/// keeps its historical frame sizes byte-for-byte.
inline constexpr std::size_t kTransportHeaderBytes = 12;

// ---------------------------------------------------------------------------
// MAC header
// ---------------------------------------------------------------------------
enum class MacFrameType : std::uint8_t { kData, kRts, kCts, kAck };

struct MacHeader {
  MacFrameType type = MacFrameType::kData;
  NodeId src = 0;
  NodeId dst = kBroadcast;
  /// Remaining medium-reservation time (the NAV field of RTS/CTS/DATA).
  SimTime duration = SimTime::zero();
  /// Per-transmitter sequence number, for receive-side duplicate filtering
  /// when a MAC ACK is lost and the data frame is retransmitted.
  std::uint16_t seq = 0;
  /// Retry flag (set on MAC retransmissions).
  bool retry = false;
};

// ---------------------------------------------------------------------------
// ARP
// ---------------------------------------------------------------------------
struct ArpHeader {
  bool is_request = true;
  NodeId sender = 0;
  NodeId target = 0;
};

// ---------------------------------------------------------------------------
// Network layer
// ---------------------------------------------------------------------------
enum class IpProto : std::uint8_t { kUdp, kRouting };

struct IpHeader {
  NodeId src = 0;
  NodeId dst = kBroadcast;
  std::uint8_t ttl = 64;
  IpProto proto = IpProto::kUdp;
};

// ---------------------------------------------------------------------------
// Application (CBR) — rides over UDP. `sent_at` stamps origination time for
// the end-to-end-delay metric; flow/seq key the PDR bookkeeping.
// ---------------------------------------------------------------------------
struct AppHeader {
  std::uint32_t flow = 0;
  std::uint32_t seq = 0;
  SimTime sent_at = SimTime::zero();
};

// ---------------------------------------------------------------------------
// Reliable transport (src/transport) — rides between app and net. A packet
// with kind == kNone carries no transport segment at all (the open-loop
// CBR/UDP path); kData is a sequenced payload segment, kAck a cumulative
// acknowledgement. `epoch` numbers the sender's incarnation of the flow so a
// receiver can tell a cold-restarted sender from a stale retransmission.
// ---------------------------------------------------------------------------
enum class SegKind : std::uint8_t {
  kNone,  ///< no transport header (plain UDP datagram)
  kData,  ///< sequenced data segment
  kAck,   ///< cumulative ACK: `seq` is the next expected segment number
};

struct TransportHeader {
  SegKind kind = SegKind::kNone;
  std::uint32_t seq = 0;    ///< data: segment number; ack: cumulative ack
  std::uint32_t epoch = 0;  ///< sender incarnation (bumps on abort/restart)
};

// ---------------------------------------------------------------------------
// Routing payloads: protocol-defined, clonable, size-aware.
// ---------------------------------------------------------------------------
class RoutingPayload {
 public:
  virtual ~RoutingPayload() = default;
  [[nodiscard]] virtual std::unique_ptr<RoutingPayload> clone() const = 0;
  /// On-the-wire size of the routing content in bytes.
  [[nodiscard]] virtual std::size_t size_bytes() const = 0;
};

/// CRTP helper: gives a concrete payload a copy-based clone().
template <class Derived>
class RoutingPayloadBase : public RoutingPayload {
 public:
  [[nodiscard]] std::unique_ptr<RoutingPayload> clone() const final {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }
};

/// Copy-on-write handle to a routing payload.
//
// Copying a Packet used to deep-clone its payload — so a broadcast to k
// neighbours did k virtual clone()s plus k frees, and every per-receiver
// copy in the PHY repeated the cost. Payloads are immutable in practice
// (receivers read them; only source-route forwarding rewrites one), so the
// handle shares a const payload across copies and clones only on mutate()
// when the payload is actually shared. Behaviour is identical to the deep
// copy: a mutation through mutate() can never be observed by another packet.
class RoutingPayloadPtr {
 public:
  RoutingPayloadPtr() = default;
  RoutingPayloadPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  RoutingPayloadPtr(std::unique_ptr<RoutingPayload> p)  // NOLINT(google-explicit-constructor)
      : p_(std::move(p)) {}
  template <class Derived>
    requires std::is_base_of_v<RoutingPayload, Derived>
  RoutingPayloadPtr(std::unique_ptr<Derived> p)  // NOLINT(google-explicit-constructor)
      : p_(std::move(p)) {}

  RoutingPayloadPtr& operator=(std::nullptr_t) {
    p_.reset();
    return *this;
  }

  /// Read access. Shared with every other packet copied from the same
  /// origin; never mutate through a cast of this pointer.
  [[nodiscard]] const RoutingPayload* get() const { return p_.get(); }
  const RoutingPayload* operator->() const { return p_.get(); }

  /// Write access: clones the payload first iff it is shared (copy-on-write).
  /// Returns nullptr when empty.
  [[nodiscard]] RoutingPayload* mutate() {
    if (p_ == nullptr) return nullptr;
    if (p_.use_count() > 1) p_ = std::shared_ptr<const RoutingPayload>(p_->clone());
    // Sole owner: casting away const is safe — the object was created
    // non-const and nobody else can observe it.
    return const_cast<RoutingPayload*>(p_.get());
  }

  [[nodiscard]] explicit operator bool() const { return p_ != nullptr; }
  [[nodiscard]] bool operator==(std::nullptr_t) const { return p_ == nullptr; }

  /// True when this handle and `o` share one payload object (tests).
  [[nodiscard]] bool shares_with(const RoutingPayloadPtr& o) const { return p_ == o.p_; }

 private:
  std::shared_ptr<const RoutingPayload> p_;
};

// ---------------------------------------------------------------------------
// Packet
// ---------------------------------------------------------------------------
enum class PacketKind : std::uint8_t {
  kArp,             ///< ARP request/reply (link-local)
  kData,            ///< application data (CBR over UDP)
  kRoutingControl,  ///< a routing-protocol control message
};

class Packet {
 public:
  Packet() = default;
  Packet(const Packet& o) = default;
  Packet& operator=(const Packet& o) = default;
  Packet(Packet&&) noexcept = default;
  Packet& operator=(Packet&&) noexcept = default;

  /// Run-unique id, minted by the run's Simulator where the packet first
  /// enters the network layer (Node); 0 before that, and for MAC and ARP
  /// frames. Copies keep it, so a packet's per-receiver and forwarded copies
  /// correlate in traces.
  [[nodiscard]] std::uint64_t uid() const { return uid_; }
  void set_uid(std::uint64_t uid) { uid_ = uid; }

  PacketKind kind = PacketKind::kData;
  MacHeader mac;
  ArpHeader arp;  // valid iff kind == kArp
  IpHeader ip;    // valid unless kind == kArp
  AppHeader app;  // valid iff kind == kData
  TransportHeader transport;  // kNone unless the reliable transport is in play

  /// Application payload size in bytes (e.g. 512 for the paper's CBR).
  std::size_t payload_bytes = 0;

  /// Protocol-owned routing content: a control message body, or a source
  /// route / extension attached to a data packet. May be null. Shared
  /// between copies of the packet; use routing.mutate() to modify in place.
  RoutingPayloadPtr routing;

  /// Total frame size in bytes as transmitted on the air (MAC framing
  /// included); drives the transmission-time calculation.
  [[nodiscard]] std::size_t size_bytes() const;

 private:
  std::uint64_t uid_ = 0;
};

}  // namespace manet
