#include "tracer.hpp"

#include <algorithm>
// manet-lint: allow-wall-clock - the benchmark's one host clock, read only by host_ns()
#include <chrono>
#include <cstdio>

namespace manet::benchmark {

std::int64_t host_ns() {
  // manet-lint: allow-wall-clock - host-time span boundary; never feeds a SimTime
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  // manet-lint: allow-wall-clock - same read, converted to integer nanoseconds
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kMacBusyStart: return "mac.phy_busy_start";
    case SpanKind::kMacBusyEnd: return "mac.phy_busy_end";
    case SpanKind::kMacRx: return "mac.phy_rx";
    case SpanKind::kNetDeliver: return "net.mac_deliver";
    case SpanKind::kNetLinkFailure: return "net.mac_link_failure";
    case SpanKind::kRoutingRoute: return "routing.route_packet";
    case SpanKind::kRoutingControl: return "routing.on_control";
    case SpanKind::kRoutingLinkFail: return "routing.on_link_failure";
    case SpanKind::kCount_: break;
  }
  return "?";
}

namespace {

bool is_routing(SpanKind k) {
  return k == SpanKind::kRoutingRoute || k == SpanKind::kRoutingControl ||
         k == SpanKind::kRoutingLinkFail;
}

}  // namespace

SpanCost Tracer::calibrate() {
  // Rounds of empty child spans inside one parent. The first rounds fill the
  // raw buffer, so later ones measure the steady state most spans of a run
  // see; the median over those rounds is taken.
  constexpr int kRounds = 7;
  constexpr int kSpans = 100'000;
  Tracer t(SpanCost{});
  std::vector<double> inside;
  std::vector<double> outside;
  const Aggregate& child = t.agg_[static_cast<std::size_t>(SpanKind::kMacBusyEnd)];
  for (int round = 0; round < kRounds; ++round) {
    t.begin(SpanKind::kMacRx, 0, 0);
    const std::int64_t child_total = child.total_ns;
    const std::int64_t t0 = host_ns();
    for (int i = 0; i < kSpans; ++i) {
      t.begin(SpanKind::kMacBusyEnd, 0, 0);
      t.end();
    }
    const std::int64_t t1 = host_ns();
    t.end();
    if (round < 3) continue;
    const double in = static_cast<double>(child.total_ns - child_total) / kSpans;
    inside.push_back(in);
    outside.push_back(static_cast<double>(t1 - t0) / kSpans - in);
  }
  return {median(inside), std::max(0.0, median(outside))};
}

void Tracer::begin(SpanKind kind, std::uint8_t protocol, std::uint64_t uid) {
  std::int64_t raw = -1;
  if (raw_.size() < kRawLimit) {
    raw = static_cast<std::int64_t>(raw_.size());
    raw_.push_back({kind, protocol, 0, 0, stack_.empty() ? -1 : stack_.back().raw, uid});
  }
  stack_.push_back({kind, protocol, 0, 0, 0, raw});
  stack_.back().start = host_ns();
}

void Tracer::end() {
  const std::int64_t now = host_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t total = now - f.start;
  const std::int64_t self = total - f.child_ns;
  const double calibrated =
      std::max(0.0, static_cast<double>(self) - cal_.inside_ns - f.children * cal_.outside_ns);
  Aggregate& a = agg_[static_cast<std::size_t>(f.kind)];
  ++a.count;
  a.total_ns += total;
  a.self_ns += self;
  a.calibrated_self_ns += calibrated;
  if (is_routing(f.kind)) protocol_self_ns_[f.protocol] += calibrated;
  if (!stack_.empty()) {
    stack_.back().child_ns += total;
    ++stack_.back().children;
  }
  if (f.raw >= 0) {
    raw_[static_cast<std::size_t>(f.raw)].start = f.start;
    raw_[static_cast<std::size_t>(f.raw)].end = now;
  }
}

std::uint8_t Tracer::protocol_slot(const char* name) {
  const auto it = std::find(protocols_.begin(), protocols_.end(), name);
  if (it != protocols_.end()) return static_cast<std::uint8_t>(it - protocols_.begin());
  protocols_.emplace_back(name);
  protocol_self_ns_.push_back(0.0);
  return static_cast<std::uint8_t>(protocols_.size() - 1);
}

std::vector<std::pair<std::string, double>> Tracer::protocol_self_ns() const {
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < protocols_.size(); ++i) {
    out.emplace_back(protocols_[i], protocol_self_ns_[i]);
  }
  return out;
}

double Tracer::attributed_ns() const {
  double sum = 0;
  for (const Aggregate& a : agg_) sum += a.calibrated_self_ns;
  return sum;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = raw_.empty() ? 0 : raw_.front().start;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const Raw& r : raw_) {
    if (r.end == 0) continue;  // still open when the trace was written
    const char* cat = is_routing(r.kind) && r.protocol < protocols_.size()
                          ? protocols_[r.protocol].c_str()
                          : "stack";
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"uid\":%llu,\"parent\":%lld}}",
                 first ? "" : ",", to_string(r.kind), cat,
                 static_cast<double>(r.start - origin) / 1e3,
                 static_cast<double>(r.end - r.start) / 1e3,
                 static_cast<unsigned long long>(r.uid), static_cast<long long>(r.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

class PhyTap final : public PhyListener {
 public:
  PhyTap(Tracer& t, PhyListener& mac) : t_(t), mac_(mac) {}
  void phy_busy_start() override {
    const ScopedSpan s(t_, SpanKind::kMacBusyStart);
    mac_.phy_busy_start();
  }
  void phy_busy_end() override {
    const ScopedSpan s(t_, SpanKind::kMacBusyEnd);
    mac_.phy_busy_end();
  }
  void phy_rx(const Packet& frame) override {
    const ScopedSpan s(t_, SpanKind::kMacRx, 0, frame.uid());
    mac_.phy_rx(frame);
  }

 private:
  Tracer& t_;
  PhyListener& mac_;
};

class MacTap final : public MacListener {
 public:
  MacTap(Tracer& t, MacListener& node) : t_(t), node_(node) {}
  void mac_deliver(const Packet& frame) override {
    const ScopedSpan s(t_, SpanKind::kNetDeliver, 0, frame.uid());
    node_.mac_deliver(frame);
  }
  void mac_link_failure(const Packet& frame, NodeId next_hop) override {
    const ScopedSpan s(t_, SpanKind::kNetLinkFailure, 0, frame.uid());
    node_.mac_link_failure(frame, next_hop);
  }

 private:
  Tracer& t_;
  MacListener& node_;
};

class RouteTap final : public RoutingProtocol {
 public:
  RouteTap(Node& node, RoutingProtocol& inner, Tracer& t)
      : RoutingProtocol(node), inner_(inner), t_(t), slot_(t.protocol_slot(inner.name())) {}
  void start() override { inner_.start(); }
  void route_packet(Packet pkt) override {
    const ScopedSpan s(t_, SpanKind::kRoutingRoute, slot_, pkt.uid());
    inner_.route_packet(std::move(pkt));
  }
  void on_control(const Packet& pkt, NodeId from) override {
    const ScopedSpan s(t_, SpanKind::kRoutingControl, slot_, pkt.uid());
    inner_.on_control(pkt, from);
  }
  void on_link_failure(const Packet& pkt, NodeId next_hop) override {
    const ScopedSpan s(t_, SpanKind::kRoutingLinkFail, slot_, pkt.uid());
    inner_.on_link_failure(pkt, next_hop);
  }
  void on_node_restart() override { inner_.on_node_restart(); }
  [[nodiscard]] const char* name() const override { return inner_.name(); }

 private:
  RoutingProtocol& inner_;
  Tracer& t_;
  std::uint8_t slot_;
};

}  // namespace

Taps install_taps(Scenario& sc, Tracer& tracer) {
  Taps taps;
  for (std::size_t i = 0; i < sc.size(); ++i) {
    Node& n = sc.node(i);
    taps.phy.push_back(std::make_unique<PhyTap>(tracer, n.mac()));
    n.transceiver().set_listener(taps.phy.back().get());
    taps.mac.push_back(std::make_unique<MacTap>(tracer, n));
    n.mac().set_listener(taps.mac.back().get());
    taps.routing.push_back(std::make_unique<RouteTap>(n, sc.routing(i), tracer));
    n.set_routing(taps.routing.back().get());
  }
  return taps;
}

}  // namespace manet::benchmark
