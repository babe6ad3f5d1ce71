// TraceWriter unit tests: line shape, call-order preservation, the fault
// lifecycle records, and the end-to-end trace a faulted scenario emits.

#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace manet {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream ss(text);
  for (std::string line; std::getline(ss, line);) out.push_back(line);
  return out;
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

Packet data_packet(NodeId src, NodeId dst, std::size_t payload = 512) {
  Packet pkt;
  pkt.ip.src = src;
  pkt.ip.dst = dst;
  pkt.payload_bytes = payload;
  return pkt;
}

TEST(Trace, LineShapeMatchesFormat) {
  const std::string path = temp_path("trace_shape.tr");
  const Packet pkt = data_packet(1, 2);
  {
    TraceWriter tw(path);
    ASSERT_TRUE(tw.ok());
    tw.record('s', milliseconds(1500), 3, pkt);
  }
  char expected[160];
  std::snprintf(expected, sizeof(expected), "s 1.500000000 _3_ RTR %llu cbr %zu [1 -> 2]",
                static_cast<unsigned long long>(pkt.uid()), pkt.size_bytes());
  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], expected);
}

TEST(Trace, NoteIsAppendedAfterAddresses) {
  const std::string path = temp_path("trace_note.tr");
  {
    TraceWriter tw(path);
    tw.record('D', seconds(2), 7, data_packet(0, 9), "no-route");
  }
  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].substr(0, 2), "D ");
  EXPECT_NE(lines[0].find("[0 -> 9] no-route"), std::string::npos);
}

TEST(Trace, RecordsPreserveCallOrderAndCount) {
  const std::string path = temp_path("trace_order.tr");
  const char events[] = {'s', 'f', 'r', 'D'};
  {
    TraceWriter tw(path);
    for (std::size_t i = 0; i < std::size(events); ++i) {
      tw.record(events[i], seconds(static_cast<std::int64_t>(i)), static_cast<NodeId>(i),
                data_packet(0, 1));
    }
    EXPECT_EQ(tw.lines(), std::size(events));
    tw.flush();
    // flush() makes the lines visible before the writer is destroyed.
    EXPECT_EQ(lines_of(slurp(path)).size(), std::size(events));
  }
  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), std::size(events));
  for (std::size_t i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i][0], events[i]);
}

TEST(Trace, TypeTagFollowsHeaders) {
  Packet data = data_packet(0, 1);
  EXPECT_STREQ(trace_type(data), "cbr");
  Packet arp;
  arp.kind = PacketKind::kArp;
  EXPECT_STREQ(trace_type(arp), "arp");
  Packet ctrl;
  ctrl.kind = PacketKind::kRoutingControl;
  EXPECT_STREQ(trace_type(ctrl), "rtr");
  Packet rts = data_packet(0, 1);
  rts.mac.type = MacFrameType::kRts;
  EXPECT_STREQ(trace_type(rts), "mac");
}

TEST(Trace, UnwritablePathIsNotOkAndSilentlyDiscards) {
  TraceWriter tw("/nonexistent-dir-for-trace-test/out.tr");
  EXPECT_FALSE(tw.ok());
  tw.record('s', seconds(1), 0, data_packet(0, 1));
  tw.record_fault(seconds(1), 0, "crash");
  tw.flush();
  EXPECT_EQ(tw.lines(), 0u);
}

TEST(Trace, FaultRecordShapes) {
  const std::string path = temp_path("trace_fault.tr");
  {
    TraceWriter tw(path);
    tw.record_fault(milliseconds(12500), 4, "crash");
    tw.record_fault(seconds(13), 4, "restart");
    EXPECT_EQ(tw.lines(), 2u);
  }
  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "F 12.500000000 _4_ FLT crash");
  EXPECT_EQ(lines[1], "F 13.000000000 _4_ FLT restart");
}

// One faulted scenario end to end: the trace must interleave packet records
// with the fault lifecycle — crash/restart lines per node — and timestamps
// must be non-decreasing (the trace is written in event-execution order).
TEST(Trace, ScenarioEmitsFaultLifecycle) {
  const std::string path = temp_path("trace_scenario.tr");
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kAodv;
  cfg.seed = 5;
  cfg.num_nodes = 14;
  cfg.area = {650.0, 650.0};
  cfg.v_max = 6.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(25);
  cfg.trace_path = path;
  cfg.fault.crash_rate = 1.0;
  cfg.fault.downtime_mean = seconds(5);
  cfg.fault.window_from = seconds(5);
  const auto r = Scenario::run_once(cfg);
  EXPECT_GT(r.crashes, 0u);

  const std::string text = slurp(path);
  EXPECT_NE(text.find(" FLT crash"), std::string::npos);
  EXPECT_NE(text.find(" FLT restart"), std::string::npos);
  EXPECT_NE(text.find("s "), std::string::npos);  // data still flows

  double prev = 0.0;
  std::size_t n = 0;
  for (const std::string& line : lines_of(text)) {
    double t = 0.0;
    ASSERT_EQ(std::sscanf(line.c_str() + 2, "%lf", &t), 1) << line;
    EXPECT_GE(t, prev) << "trace timestamps must be non-decreasing: " << line;
    prev = t;
    ++n;
  }
  EXPECT_GT(n, 100u);
}

ScenarioConfig small_traced_run(const std::string& path) {
  ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.num_nodes = 12;
  cfg.area = {600.0, 600.0};
  cfg.num_connections = 3;
  cfg.duration = seconds(25);
  cfg.trace_path = path;
  return cfg;
}

// Uids are minted per run, not per process: a second identical run in the
// same process writes the same file, uids included.
TEST(Trace, IdenticalRunsInOneProcessWriteIdenticalFiles) {
  const std::string a = temp_path("trace_twin_a.tr");
  const std::string b = temp_path("trace_twin_b.tr");
  (void)Scenario::run_once(small_traced_run(a));
  (void)Scenario::run_once(small_traced_run(b));
  const std::string text = slurp(a);
  EXPECT_GT(lines_of(text).size(), 100u);
  EXPECT_EQ(text, slurp(b));
}

// Each originated packet gets its own nonzero uid; the copies that are
// forwarded and received keep it.
TEST(Trace, OriginatedPacketsCarryDistinctUids) {
  const std::string path = temp_path("trace_uids.tr");
  (void)Scenario::run_once(small_traced_run(path));
  std::set<std::uint64_t> sent;
  std::vector<std::uint64_t> received;
  for (const std::string& line : lines_of(slurp(path))) {
    char ev = 0;
    unsigned long long uid = 0;
    char type[8] = {};
    if (std::sscanf(line.c_str(), "%c %*f %*s RTR %llu %7s", &ev, &uid, type) != 3) continue;
    if (std::string(type) != "cbr") continue;
    if (ev == 's') {
      EXPECT_NE(uid, 0u) << line;
      EXPECT_TRUE(sent.insert(uid).second) << "uid sent twice: " << line;
    } else if (ev == 'r') {
      received.push_back(uid);
    }
  }
  EXPECT_GE(sent.size(), 2u);
  ASSERT_FALSE(received.empty());
  for (const std::uint64_t uid : received) EXPECT_TRUE(sent.contains(uid)) << uid;
}

}  // namespace
}  // namespace manet
