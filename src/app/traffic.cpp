#include "app/traffic.hpp"

#include "core/assert.hpp"
#include "transport/transport.hpp"

namespace manet {

TrafficSource::TrafficSource(Node& node, const Config& cfg, RngStream rng)
    : node_(node), cfg_(cfg), rng_(rng) {
  MANET_EXPECTS(cfg.interval > SimTime::zero());
  MANET_EXPECTS(cfg.payload_bytes > 0);
  MANET_EXPECTS(cfg.burst_mean > SimTime::zero() && cfg.idle_mean > SimTime::zero());
}

void TrafficSource::start() {
  node_.sim().schedule_at(cfg_.start, [this] { begin_burst(); });
}

void TrafficSource::begin_burst() {
  if (node_.sim().now() > cfg_.stop) return;
  on_ = true;
  burst_end_ = cfg_.burst_mean == SimTime::max()
                   ? SimTime::max()
                   : node_.sim().now() + seconds_f(rng_.exponential(cfg_.burst_mean.sec()));
  send_one();
}

void TrafficSource::send_one() {
  if (node_.sim().now() > cfg_.stop) return;
  if (node_.sim().now() >= burst_end_) {
    on_ = false;
    const SimTime idle = seconds_f(rng_.exponential(cfg_.idle_mean.sec()));
    node_.sim().schedule(idle, [this] { begin_burst(); });
    return;
  }
  if (ReliableTransport* tp = node_.transport(); tp != nullptr) {
    // Closed loop: a full transport send buffer refuses the offer, the app
    // keeps its sequence number and re-offers the same packet next tick.
    if (tp->try_send(cfg_.flow, cfg_.dst, cfg_.payload_bytes, seq_)) ++seq_;
  } else {
    Packet pkt;
    pkt.ip.dst = cfg_.dst;
    pkt.payload_bytes = cfg_.payload_bytes;
    pkt.app = AppHeader{.flow = cfg_.flow, .seq = seq_++, .sent_at = node_.sim().now()};
    node_.originate(std::move(pkt));
  }
  node_.sim().schedule(cfg_.interval, [this] { send_one(); });
}

}  // namespace manet
