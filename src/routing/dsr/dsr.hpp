// Dynamic Source Routing (Johnson & Maltz; draft-ietf-manet-dsr).
//
// The source-routed reactive protocol of the comparison — Boukerche's
// headline finding is precisely that DSR-style source routing beats the
// distance-vector on-demand approach (AODV) on routing overhead. Implemented:
//   * route discovery with accumulating route records, duplicate
//     suppression, and a non-propagating (TTL = 1) first query followed by
//     network-wide retries under exponential backoff;
//   * replies from the target and — optionally (ablation abl_dsr_cache) —
//     from intermediate nodes out of their route caches, with loop splicing
//     checks;
//   * a path route cache fed by discovery, forwarding, and overheard route
//     records;
//   * source-routed forwarding via a header option on every data packet;
//   * route maintenance on 802.11 link-layer feedback: route error sent to
//     the packet source, broken link excised from caches, and packet
//     salvaging from the local cache (bounded per packet);
//   * a 64-packet / 30 s send buffer.
// Discovery bookkeeping, duplicate suppression and the source-route
// messages are the shared on-demand core (routing/on_demand.hpp).
// Omitted: promiscuous (tap-mode) listening, gratuitous replies for route
// shortening, flow state.
#pragma once

#include "net/node.hpp"
#include "routing/dsr/route_cache.hpp"
#include "routing/on_demand.hpp"

namespace manet::dsr {

struct Config {
  bool intermediate_reply = true;  ///< replies from caches (ablation knob)
  bool salvage = true;

  friend bool operator==(const Config&, const Config&) = default;
};

class Dsr final : public RoutingProtocol {
 public:
  /// Every discovery opens with a non-propagating (TTL=1) query that waits
  /// this long before network-wide flooding.
  static constexpr SimTime kNonpropTimeout = milliseconds(30);
  static constexpr SimTime kFirstTimeout = milliseconds(500);  ///< then doubles per retry
  static constexpr SimTime kMaxTimeout = seconds(10);
  static constexpr int kMaxRetries = 8;
  static constexpr int kMaxSalvage = 2;
  static constexpr std::size_t kCacheCapacity = 64;
  static constexpr SimTime kCacheLifetime = seconds(300);

  Dsr(Node& node, const Config& cfg, RngStream rng);

  void start() override;
  void route_packet(Packet pkt) override;
  void on_control(const Packet& pkt, NodeId from) override;
  void on_link_failure(const Packet& pkt, NodeId next_hop) override;
  void on_node_restart() override;
  [[nodiscard]] const char* name() const override { return "DSR"; }

  // -- introspection (tests) -------------------------------------------------
  [[nodiscard]] RouteCache& cache() { return cache_; }
  [[nodiscard]] std::size_t buffered_packets() { return discoveries_.buffered(); }
  [[nodiscard]] std::size_t seen_requests() const { return seen_.size(); }

 private:
  void originate(Packet pkt);
  void forward_with_route(Packet pkt);
  /// The first request of a discovery is non-propagating, the rest flood.
  void send_rreq(NodeId target, Discovery& d);
  void handle_rreq(const Packet& pkt, const Rreq& rreq);
  void handle_rrep(const Rrep& rrep);
  /// Cache the sub-path of `path` starting at self, if self appears.
  void cache_suffix_from_self(const Path& path, SimTime now);

  Config cfg_;
  RngStream rng_;
  RouteCache cache_;
  DuplicateFilter seen_;
  DiscoveryTable discoveries_;

  std::uint16_t next_req_id_ = 1;
};

}  // namespace manet::dsr
