// Event tracing in the spirit of ns-2's wireless trace format.
//
// The original methodology post-processed ns-2 trace files with awk; our
// metrics are computed in-simulator instead, but a trace remains invaluable
// for debugging a protocol run and for external analysis. The writer
// records network-layer events, one line each:
//
//   <ev> <time> _<node>_ <layer> <uid> <type> <bytes> [<src> -> <dst>] <note>
//
// where <ev> is s (send/originate), f (forward), r (receive at destination),
// D (drop, with the reason as <note>). Attach a TraceWriter to a Scenario
// via ScenarioConfig::trace_path, or to individual Nodes with set_trace().
#pragma once

#include <cstdio>
#include <string>

#include "core/time.hpp"
#include "packet/packet.hpp"

namespace manet {

class TraceWriter {
 public:
  /// Opens `path` for writing (truncates). Throws nothing; check ok().
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  [[nodiscard]] bool ok() const { return file_ != nullptr; }

  void record(char event, SimTime now, NodeId node, const Packet& pkt,
              const char* note = "");

  /// Record a node's crash or restart (no packet involved):
  ///   F <time> _<node>_ FLT <what>
  void record_fault(SimTime now, NodeId node, const char* what);

  /// Number of lines written so far.
  [[nodiscard]] std::uint64_t lines() const { return lines_; }

  /// Flush buffered lines to disk.
  void flush();

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t lines_ = 0;
};

/// Short type tag for the trace line ("cbr", "arp", "rtr", "mac").
[[nodiscard]] const char* trace_type(const Packet& pkt);

}  // namespace manet
