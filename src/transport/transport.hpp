// A lightweight reliable transport between the app and net layers.
//
// One ReliableTransport per node, mirroring the per-node protocol stacks: all
// flow state lives inside the node that owns the flow endpoint (segments and
// ACKs travel as ordinary routed data packets; nothing reaches across nodes
// directly).
//
// The mechanics are a deliberately small TCP subset, enough to reproduce the
// closed-loop behaviour the congestion-collapse experiments need:
//
//   * per-flow sequence numbers with cumulative ACKs (receiver ACKs every
//     segment with the next expected number; no SACK),
//   * retransmission timeout from Jacobson/Karn srtt/rttvar estimators with
//     exponential backoff, head-of-window retransmission only,
//   * an AIMD congestion window counted in segments: +1 per RTT's worth of
//     new ACKs, halved on every timeout,
//   * a bounded send buffer whose backpressure closes the loop — when it is
//     full, try_send() refuses and the application must hold its next packet.
//
// Incarnations: each (re)start of a flow gets a fresh `epoch` from a per-node
// monotonic counter. The counter survives Node::restart() — like DSDV/OLSR
// sequence numbers, it is a monotonic identity, not routing state — so a
// receiver can always order a cold-restarted sender ahead of stale
// retransmissions still in flight. Everything else cold-resets on restart.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "core/simulator.hpp"
#include "core/time.hpp"
#include "packet/packet.hpp"

namespace manet {

class Node;

/// Knobs of the reliable transport; validated by check() (scenario.hpp).
struct TransportConfig {
  bool enabled = false;  ///< off: apps originate open-loop UDP as before
  SimTime rto_initial = milliseconds(1000);
  SimTime rto_min = milliseconds(200);
  SimTime rto_max = seconds(60);
  std::uint32_t cwnd_init = 2;    ///< initial congestion window (segments)
  std::uint32_t cwnd_max = 32;    ///< additive increase stops here
  std::uint32_t max_retx = 7;     ///< per-segment retransmissions before giving up
  std::uint32_t buffer_packets = 64;  ///< send-buffer bound (closed-loop backpressure)

  friend bool operator==(const TransportConfig&, const TransportConfig&) = default;
};

class ReliableTransport {
 public:
  ReliableTransport(Node& node, const TransportConfig& cfg);
  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  // -- sender side ------------------------------------------------------------
  /// Offer one application packet to the flow. Returns false when the send
  /// buffer is full (closed loop: the app must retry later and NOT consume
  /// its sequence number). On acceptance the packet counts as originated —
  /// even on a crashed node, where the fault immediately destroys it.
  bool try_send(std::uint32_t flow, NodeId dst, std::size_t payload_bytes,
                std::uint32_t app_seq);

  // -- packet input (called by Node::mac_deliver for packets to this node) ----
  /// A data segment addressed to this node.
  void on_segment(const Packet& pkt);
  /// A cumulative ACK addressed to this node.
  void on_ack(const Packet& pkt);

  /// Cold-reset every flow (sender and receiver side). The epoch counter
  /// survives — see the header comment.
  void on_node_restart();

  /// Test hook: observe every in-order delivery this node's receiver makes,
  /// in delivery order (the reference-model oracle hangs off this).
  void set_delivery_probe(std::function<void(const Packet&)> probe) {
    probe_ = std::move(probe);
  }

  // -- introspection (tests, artifact emission) -------------------------------
  struct SenderView {
    bool exists = false;
    std::uint32_t epoch = 0;
    std::uint32_t snd_una = 0;   ///< lowest unacknowledged segment number
    std::uint32_t snd_next = 0;  ///< next segment number to assign
    std::uint32_t inflight = 0;  ///< transmitted and unacknowledged segments
    std::size_t queued = 0;      ///< segments in the send buffer (incl. inflight)
    double cwnd = 0.0;
    SimTime rto = SimTime::zero();
    std::uint32_t backoff = 0;
    std::uint32_t head_retx = 0;
    double srtt_s = 0.0;
  };
  struct ReceiverView {
    bool exists = false;
    std::uint32_t epoch = 0;
    std::uint32_t rcv_next = 0;  ///< next in-order segment number expected
    std::size_t buffered = 0;    ///< out-of-order segments held
  };
  [[nodiscard]] SenderView sender_view(std::uint32_t flow) const;
  [[nodiscard]] ReceiverView receiver_view(std::uint32_t flow) const;
  [[nodiscard]] std::size_t sender_flow_count() const { return send_flows_.size(); }
  [[nodiscard]] std::size_t receiver_flow_count() const { return recv_flows_.size(); }
  /// Flow incarnations aborted after max_retx exhausted.
  [[nodiscard]] std::uint64_t aborts() const { return aborts_; }
  /// Next incarnation number the counter would mint (monotone over restarts).
  [[nodiscard]] std::uint32_t epoch_counter() const { return next_epoch_; }

 private:
  struct Segment {
    Packet pkt;  ///< fully-built data packet; retransmissions send copies
    std::uint32_t retx = 0;
    bool retransmitted = false;  ///< Karn: never sample RTT off such a segment
    SimTime first_tx = SimTime::zero();
  };
  struct SenderFlow {
    NodeId dst = 0;
    std::uint32_t epoch = 0;
    std::uint32_t snd_una = 0;
    std::uint32_t snd_next = 0;
    std::uint32_t inflight = 0;
    std::deque<Segment> window;  ///< [snd_una, snd_next): inflight head + unsent tail
    double cwnd = 1.0;
    double srtt_s = 0.0;
    double rttvar_s = 0.0;
    bool have_rtt = false;
    SimTime rto = SimTime::zero();
    std::uint32_t backoff = 0;
    EventId rto_timer = 0;
    bool rto_armed = false;
  };
  struct ReceiverFlow {
    std::uint32_t epoch = 0;
    std::uint32_t rcv_next = 0;
    std::map<std::uint32_t, Packet> ooo;  ///< out-of-order hold, bounded
  };

  void transmit_window(std::uint32_t flow, SenderFlow& f);
  void arm_rto(std::uint32_t flow, SenderFlow& f);
  void cancel_rto(SenderFlow& f);
  void on_rto(std::uint32_t flow);
  /// Give up on the current incarnation: drop everything buffered, erase the
  /// flow. The next try_send() starts a fresh epoch.
  void abort_flow(std::uint32_t flow);
  void deliver_in_order(const Packet& pkt);
  void send_ack(std::uint32_t flow, const ReceiverFlow& f, NodeId to);

  Node& node_;
  Simulator& sim_;
  TransportConfig cfg_;
  std::map<std::uint32_t, SenderFlow> send_flows_;
  std::map<std::uint32_t, ReceiverFlow> recv_flows_;
  std::uint32_t next_epoch_ = 0;  ///< survives on_node_restart() deliberately
  std::uint64_t aborts_ = 0;
  std::function<void(const Packet&)> probe_;
};

}  // namespace manet
