// Spans at the three public seams between layers, recorded from the
// benchmark's own code.
//
// After Scenario::build() and before run(), install_taps() replaces each
// node's PHY listener, MAC listener and routing protocol with a thin tap that
// opens a span and forwards the call to the real object. The simulation sees
// the same calls in the same order, so a traced replication reproduces the
// untraced one exactly (main.cpp checks the model digest).
//
// Spans nest through an explicit stack: a MAC receive that delivers a frame
// that is forwarded shows as mac.phy_rx > net.mac_deliver >
// routing.route_packet. Each span is aggregated in memory into count, total
// and self time (self = total - children); the first kRawLimit spans are also
// kept raw and written as a Chrome trace-event file at exit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace manet::benchmark {

/// Host monotonic time in nanoseconds. The benchmark's one clock read.
[[nodiscard]] std::int64_t host_ns();

/// Median of host-time samples (0 when there are none).
[[nodiscard]] double median(std::vector<double> v);

enum class SpanKind : std::uint8_t {
  kMacBusyStart,     // PHY -> MAC: medium idle -> busy
  kMacBusyEnd,       // PHY -> MAC: medium busy -> idle
  kMacRx,            // PHY -> MAC: intact frame
  kNetDeliver,       // MAC -> net: frame for this node
  kNetLinkFailure,   // MAC -> net: retries exhausted
  kRoutingRoute,     // net -> routing: data to route
  kRoutingControl,   // net -> routing: control message
  kRoutingLinkFail,  // net -> routing: link-layer failure feedback
  kCount_
};

[[nodiscard]] const char* to_string(SpanKind k);

/// Tracer cost model (see Tracer::calibrate()): `inside_ns` is what an empty
/// span measures as its own duration; `outside_ns` is what each child span
/// adds to its parent's self time outside the child's own window.
struct SpanCost {
  double inside_ns = 0;
  double outside_ns = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kRawLimit = 200'000;

  /// Per-span-kind aggregate. Times are host nanoseconds.
  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;        ///< total minus children, uncalibrated
    double calibrated_self_ns = 0;   ///< self minus the tracer's own cost, >= 0 per span
  };

  explicit Tracer(SpanCost cal) : cal_(cal) {}

  /// Measure the empty-span cost on this host.
  [[nodiscard]] static SpanCost calibrate();

  void begin(SpanKind kind, std::uint8_t protocol, std::uint64_t uid);
  void end();

  /// Slot for a routing protocol name, for the per-protocol self time.
  [[nodiscard]] std::uint8_t protocol_slot(const char* name);

  [[nodiscard]] const Aggregate& aggregate(SpanKind k) const {
    return agg_[static_cast<std::size_t>(k)];
  }
  /// Calibrated self time of routing spans, per protocol name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> protocol_self_ns() const;
  /// Sum of calibrated self time over every span: host time attributed to
  /// the layers behind the seams.
  [[nodiscard]] double attributed_ns() const;
  [[nodiscard]] std::size_t depth() const { return stack_.size(); }

  /// Write the raw spans as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  struct Frame {
    SpanKind kind;
    std::uint8_t protocol;
    std::uint32_t children;
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t raw;  ///< index into raw_, or -1 past the limit
  };
  struct Raw {
    SpanKind kind;
    std::uint8_t protocol;
    std::int64_t start;
    std::int64_t end;
    std::int64_t parent;
    std::uint64_t uid;
  };

  SpanCost cal_;
  std::vector<Frame> stack_;
  Aggregate agg_[static_cast<std::size_t>(SpanKind::kCount_)];
  std::vector<std::string> protocols_;
  std::vector<double> protocol_self_ns_;
  std::vector<Raw> raw_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, SpanKind kind, std::uint8_t protocol = 0, std::uint64_t uid = 0)
      : t_(t) {
    t_.begin(kind, protocol, uid);
  }
  ~ScopedSpan() { t_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
};

/// The taps installed into one Scenario; must outlive its run().
struct Taps {
  std::vector<std::unique_ptr<PhyListener>> phy;
  std::vector<std::unique_ptr<MacListener>> mac;
  std::vector<std::unique_ptr<RoutingProtocol>> routing;
};

/// Install forwarding taps on every node of a built scenario.
[[nodiscard]] Taps install_taps(Scenario& sc, Tracer& tracer);

}  // namespace manet::benchmark
