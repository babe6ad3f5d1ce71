#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/json.hpp"
#include "scenario/builder.hpp"

namespace manet::spec {

namespace {

using json::Value;

/// %g rendering of an axis value in a cell label ("AODV/pause:30").
std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Error sink + the typed accessors every section walker shares. These
/// checks are the ones that belong to reading external input: JSON kinds,
/// integer-ness and whether a number fits the type of the field it lands
/// in. Every range and cross-field rule is check()'s (scenario.hpp).
class Checker {
 public:
  explicit Checker(std::vector<Error>& errs) : errs_(errs) {}

  void fail(const Value& at, const std::string& key, std::string msg) {
    errs_.push_back(Error{at.line, key, std::move(msg)});
  }
  void fail_at(int line, const std::string& key, std::string msg) {
    errs_.push_back(Error{line, key, std::move(msg)});
  }

  bool expect_kind(const Value& v, Value::Kind k, const std::string& key) {
    if (v.kind == k) return true;
    fail(v, key,
         std::string("expected ") + Value::kind_name(k) + ", got " + Value::kind_name(v.kind));
    return false;
  }

  bool num(const Value& v, const std::string& key, double& out) {
    if (!expect_kind(v, Value::Kind::kNumber, key)) return false;
    if (!std::isfinite(v.number)) {
      fail(v, key, "must be a finite number");
      return false;
    }
    out = v.number;
    return true;
  }

  bool str(const Value& v, const std::string& key, std::string& out) {
    if (!expect_kind(v, Value::Kind::kString, key)) return false;
    out = v.str;
    return true;
  }

  bool boolean(const Value& v, const std::string& key, bool& out) {
    if (!expect_kind(v, Value::Kind::kBool, key)) return false;
    out = v.boolean;
    return true;
  }

  /// An integer that fits T.
  template <typename T>
  bool integer(const Value& v, const std::string& key, T& out) {
    double x = 0.0;
    if (!num(v, key, x)) return false;
    if (std::floor(x) != x || std::abs(x) > 1e15) {
      fail(v, key, "must be an integer, got " + fmt_g(x));
      return false;
    }
    using Limits = std::numeric_limits<T>;
    if (x < static_cast<double>(Limits::min()) || x > static_cast<double>(Limits::max())) {
      char got[32];
      std::snprintf(got, sizeof got, "%.0f", x);
      fail(v, key,
           "must be in [" + std::to_string(Limits::min()) + ", " +
               std::to_string(Limits::max()) + "], got " + got);
      return false;
    }
    out = static_cast<T>(x);
    return true;
  }

  /// A time in units of `unit_s` seconds (1 for *_s keys, 1e-3 for *_ms).
  bool sim_time(const Value& v, const std::string& key, double unit_s, SimTime& out) {
    double x = 0.0;
    return num(v, key, x) && fit_seconds(v, key, x * unit_s, out);
  }

  /// A packets/s rate as the interval between packets. 0 pps has no
  /// interval; it becomes interval 0, which check() rejects.
  bool rate(const Value& v, const std::string& key, SimTime& out) {
    double x = 0.0;
    // manet-lint: allow-float-eq - exact zero is the one rate with no reciprocal
    return num(v, key, x) && fit_seconds(v, key, x == 0.0 ? 0.0 : 1.0 / x, out);
  }

 private:
  bool fit_seconds(const Value& v, const std::string& key, double s, SimTime& out) {
    if (std::abs(s) > kMaxSeconds) {
      fail(v, key, "must be a time within +-9e9 s, got " + fmt_g(s) + " s");
      return false;
    }
    out = seconds_f(s);
    return true;
  }

  std::vector<Error>& errs_;
};

/// A config under construction, plus the JSON value behind each field it
/// was given (key path and line), keyed by the ScenarioConfig member path
/// check() reports.
struct Staged {
  struct Anchor {
    std::string key;
    int line = 0;
  };
  ScenarioConfig cfg;
  std::map<std::string, Anchor> anchors;

  void wrote(const char* field, const Value& v, const std::string& key) {
    anchors[field] = Anchor{key, v.line};
  }
};

/// One key of a schema object. A plain key names the ScenarioConfig member
/// it writes, both as the path check() reports and as the member itself
/// (`unit_s` scales a time key to seconds: 1e-3 for *_ms). A key with no
/// member is special: its section walker reads it.
struct Key {
  explicit Key(const char* key_name) : name(key_name) {}

  template <typename T>
  Key(const char* key_name, const char* member_path, T& out, double unit_s = 1.0)
      : name(key_name),
        field(member_path),
        read([&out, unit_s](Checker& c, const Value& v, const std::string& p) {
          if constexpr (std::is_same_v<T, SimTime>) {
            return c.sim_time(v, p, unit_s, out);
          } else if constexpr (std::is_same_v<T, bool>) {
            return c.boolean(v, p, out);
          } else if constexpr (std::is_same_v<T, double>) {
            return c.num(v, p, out);
          } else {
            return c.integer(v, p, out);
          }
        }) {}

  const char* name;
  const char* field = nullptr;
  std::function<bool(Checker&, const Value&, const std::string&)> read;
};

/// Read `v` (at key path `p`) into `key`'s member and anchor it there.
void read_key(Checker& c, Staged& s, const Key& key, const Value& v, const std::string& p) {
  if (key.read(c, v, p)) s.wrote(key.field, v, p);
}

using Special = std::function<void(const std::string& k, const Value& v, const std::string& p)>;

/// Walk schema object `o` at `path`: plain keys are read into their members,
/// special ones go to `special`, and any other key is an error naming the
/// accepted set, so typos fail loudly instead of silently running the
/// default.
void apply_object(Checker& c, Staged& s, const Value& o, const std::string& path,
                  const std::vector<Key>& keys, const Special& special = nullptr) {
  if (!c.expect_kind(o, Value::Kind::kObject, path)) return;
  for (const auto& [k, v] : o.object) {
    const std::string p = path + "." + k;
    const auto key =
        std::find_if(keys.begin(), keys.end(), [&k](const Key& x) { return k == x.name; });
    if (key == keys.end()) {
      std::string expected;
      for (const Key& x : keys) expected += (expected.empty() ? "" : ", ") + std::string(x.name);
      c.fail(v, p, "unknown key (expected: " + expected + ")");
    } else if (key->read) {
      read_key(c, s, *key, v, p);
    } else {
      special(k, v, p);
    }
  }
}

// -- section walkers ---------------------------------------------------------
// One function per schema object, each a table of its keys.

void apply_mobility(Checker& c, const Value& o, const std::string& path, Staged& s) {
  ScenarioConfig& cfg = s.cfg;
  apply_object(c, s, o, path,
               {Key("model"), Key("v_min_mps", "v_min", cfg.v_min),
                Key("v_max_mps", "v_max", cfg.v_max), Key("pause_s", "pause", cfg.pause),
                Key("warmup_s", "mobility_warmup", cfg.mobility_warmup),
                Key("block_m", "manhattan.block", cfg.manhattan.block),
                Key("p_turn", "manhattan.p_turn", cfg.manhattan.p_turn)},
               [&](const std::string&, const Value& v, const std::string& p) {
                 std::string m;
                 if (!c.str(v, p, m)) return;
                 if (m == "waypoint") {
                   cfg.mobility = MobilityKind::kRandomWaypoint;
                 } else if (m == "walk") {
                   cfg.mobility = MobilityKind::kRandomWalk;
                 } else if (m == "gauss-markov") {
                   cfg.mobility = MobilityKind::kGaussMarkov;
                 } else if (m == "manhattan") {
                   cfg.mobility = MobilityKind::kManhattan;
                 } else {
                   c.fail(v, p,
                          "unknown mobility model \"" + m +
                              "\" (expected: waypoint, walk, gauss-markov, manhattan)");
                 }
               });
}

void apply_traffic(Checker& c, const Value& o, const std::string& path, Staged& s) {
  ScenarioConfig& cfg = s.cfg;
  if (o.find("rate_pps") != nullptr && o.find("interval_ms") != nullptr) {
    c.fail(*o.find("interval_ms"), path + ".interval_ms", "mutually exclusive with rate_pps");
  }
  apply_object(c, s, o, path,
               {Key("kind"), Key("connections", "num_connections", cfg.num_connections),
                Key("payload_bytes", "payload_bytes", cfg.payload_bytes), Key("rate_pps"),
                Key("interval_ms", "cbr_interval", cfg.cbr_interval, 1e-3),
                Key("start_s", "cbr_start", cfg.cbr_start),
                Key("start_window_s", "cbr_start_window", cfg.cbr_start_window),
                Key("burst_mean_s", "onoff_burst_mean", cfg.onoff_burst_mean),
                Key("idle_mean_s", "onoff_idle_mean", cfg.onoff_idle_mean)},
               [&](const std::string& k, const Value& v, const std::string& p) {
                 if (k == "rate_pps") {
                   if (c.rate(v, p, cfg.cbr_interval)) s.wrote("cbr_interval", v, p);
                   return;
                 }
                 std::string kind;
                 if (!c.str(v, p, kind)) return;
                 if (kind == "cbr") {
                   cfg.traffic = TrafficKind::kCbr;
                 } else if (kind == "onoff") {
                   cfg.traffic = TrafficKind::kOnOff;
                 } else {
                   c.fail(v, p, "unknown traffic kind \"" + kind + "\" (expected: cbr, onoff)");
                 }
               });
}

void apply_radio(Checker& c, const Value& o, const std::string& path, Staged& s) {
  PhyConfig& phy = s.cfg.phy;
  apply_object(c, s, o, path,
               {Key("data_rate_bps", "phy.data_rate_bps", phy.data_rate_bps),
                Key("rx_range_m", "phy.rx_range_m", phy.rx_range_m),
                Key("cs_range_m", "phy.cs_range_m", phy.cs_range_m),
                Key("frame_loss_rate", "phy.frame_loss_rate", phy.frame_loss_rate)});
}

void apply_mac(Checker& c, const Value& o, const std::string& path, Staged& s) {
  MacConfig& mac = s.cfg.mac;
  apply_object(c, s, o, path,
               {Key("use_rts", "mac.use_rts", mac.use_rts),
                Key("rts_threshold_bytes", "mac.rts_threshold", mac.rts_threshold),
                Key("ifq_capacity", "mac.ifq_capacity", mac.ifq_capacity)});
}

void apply_urban(Checker& c, const Value& o, const std::string& path, Staged& s) {
  PhyConfig& phy = s.cfg.phy;
  apply_object(c, s, o, path,
               {Key("street_width_m", "phy.street_width_m", phy.street_width_m),
                Key("nlos_range_m", "phy.nlos_rx_range_m", phy.nlos_rx_range_m),
                Key("nlos_loss", "phy.nlos_loss_rate", phy.nlos_loss_rate)});
}

void apply_fault(Checker& c, const Value& o, const std::string& path, Staged& s) {
  FaultConfig& f = s.cfg.fault;
  apply_object(c, s, o, path,
               {Key("crash_rate", "fault.crash_rate", f.crash_rate),
                Key("downtime_mean_s", "fault.downtime_mean", f.downtime_mean),
                Key("link_blackouts", "fault.link_blackouts", f.link_blackouts),
                Key("blackout_mean_s", "fault.blackout_mean", f.blackout_mean),
                Key("corrupt_rate", "fault.corrupt_rate", f.corrupt_rate),
                Key("corrupt_from_s", "fault.corrupt_from", f.corrupt_from),
                Key("corrupt_until_s", "fault.corrupt_until", f.corrupt_until),
                Key("partition", "fault.partition", f.partition),
                Key("partition_frac", "fault.partition_frac", f.partition_frac),
                Key("partition_from_s", "fault.partition_from", f.partition_from),
                Key("partition_until_s", "fault.partition_until", f.partition_until),
                Key("window_from_s", "fault.window_from", f.window_from)});
}

void apply_transport(Checker& c, const Value& o, const std::string& path, Staged& s) {
  TransportConfig& t = s.cfg.transport;
  apply_object(c, s, o, path,
               {Key("enabled", "transport.enabled", t.enabled),
                Key("rto_initial_ms", "transport.rto_initial", t.rto_initial, 1e-3),
                Key("rto_min_ms", "transport.rto_min", t.rto_min, 1e-3),
                Key("rto_max_ms", "transport.rto_max", t.rto_max, 1e-3),
                Key("cwnd_init", "transport.cwnd_init", t.cwnd_init),
                Key("cwnd_max", "transport.cwnd_max", t.cwnd_max),
                Key("max_retx", "transport.max_retx", t.max_retx),
                Key("buffer_packets", "transport.buffer_packets", t.buffer_packets)});
}

/// The shared settings object: `base` and each explicit cell's `set`.
void apply_settings(Checker& c, const Value& o, const std::string& path, Staged& s) {
  ScenarioConfig& cfg = s.cfg;
  apply_object(
      c, s, o, path,
      {Key("protocol"), Key("seed", "seed", cfg.seed), Key("nodes", "num_nodes", cfg.num_nodes),
       Key("area_m"), Key("static", "static_nodes", cfg.static_nodes),
       Key("duration_s", "duration", cfg.duration),
       Key("trace"), Key("mobility"), Key("traffic"), Key("radio"), Key("mac"), Key("urban"),
       Key("fault"), Key("transport"), Key("aodv"), Key("dsr"), Key("olsr")},
      [&](const std::string& k, const Value& v, const std::string& p) {
        if (k == "protocol") {
          std::string name;
          if (!c.str(v, p, name)) return;
          const ProtocolEntry* e = find_protocol(name);
          if (e == nullptr) {
            c.fail(v, p,
                   "unknown protocol \"" + name + "\" (registered: " + protocol_names() + ")");
          } else {
            cfg.protocol = e->id;
          }
        } else if (k == "area_m") {
          if (!c.expect_kind(v, Value::Kind::kArray, p)) return;
          if (v.array.size() != 2) {
            c.fail(v, p,
                   "expected [width_m, height_m], got " + std::to_string(v.array.size()) +
                       " element(s)");
            return;
          }
          read_key(c, s, Key("area_m", "area.width", cfg.area.width), v.array[0], p + "[0]");
          read_key(c, s, Key("area_m", "area.height", cfg.area.height), v.array[1], p + "[1]");
        } else if (k == "trace") {
          (void)c.str(v, p, cfg.trace_path);
        } else if (k == "mobility") {
          apply_mobility(c, v, p, s);
        } else if (k == "traffic") {
          apply_traffic(c, v, p, s);
        } else if (k == "radio") {
          apply_radio(c, v, p, s);
        } else if (k == "mac") {
          apply_mac(c, v, p, s);
        } else if (k == "urban") {
          apply_urban(c, v, p, s);
        } else if (k == "fault") {
          apply_fault(c, v, p, s);
        } else if (k == "transport") {
          apply_transport(c, v, p, s);
        } else if (k == "aodv") {
          apply_object(c, s, v, p,
                       {Key("expanding_ring", "aodv.expanding_ring", cfg.aodv.expanding_ring)});
        } else if (k == "dsr") {
          apply_object(
              c, s, v, p,
              {Key("intermediate_reply", "dsr.intermediate_reply", cfg.dsr.intermediate_reply)});
        } else if (k == "olsr") {
          apply_object(c, s, v, p,
                       {Key("mpr_flooding", "olsr.mpr_flooding", cfg.olsr.mpr_flooding)});
        }
      });
}

// -- sweep axes --------------------------------------------------------------

struct AxisValue {
  const Value* value = nullptr;
  std::string key;  ///< "sweep.axes[i].values[j]"
};

struct Axis {
  std::string param;          ///< label segment ("pause" -> "AODV/pause:0")
  bool urban_family = false;  ///< values are urban_scenario() node counts
  std::vector<AxisValue> values;
};

constexpr const char* kAxisParams = "pause, vmax, nodes, sources, crash, loss, rate";

/// Copy the urban Manhattan family's derived fields onto the cell, reusing
/// urban_scenario() so the city-size math has exactly one home. A bad node
/// count is the per-cell check()'s to report.
void apply_urban_family(Checker& c, const AxisValue& a, Staged& s) {
  std::uint32_t n = 0;
  if (!c.integer(*a.value, a.key, n)) return;
  ScenarioConfig& cfg = s.cfg;
  const ScenarioConfig u = urban_scenario(n).build();
  cfg.num_nodes = u.num_nodes;
  cfg.area = u.area;
  cfg.mobility = u.mobility;
  cfg.v_min = u.v_min;
  cfg.v_max = u.v_max;
  cfg.num_connections = u.num_connections;
  cfg.phy.street_width_m = u.phy.street_width_m;
  cfg.phy.nlos_rx_range_m = u.phy.nlos_rx_range_m;
  cfg.phy.nlos_loss_rate = u.phy.nlos_loss_rate;
  for (const char* field :
       {"num_nodes", "area.width", "area.height", "mobility", "v_min", "v_max", "num_connections",
        "phy.street_width_m", "phy.nlos_rx_range_m", "phy.nlos_loss_rate"}) {
    s.wrote(field, *a.value, a.key);
  }
}

void apply_axis(Checker& c, const Axis& axis, const AxisValue& a, Staged& s) {
  ScenarioConfig& cfg = s.cfg;
  const Value& v = *a.value;
  if (axis.urban_family) {
    apply_urban_family(c, a, s);
  } else if (axis.param == "pause") {
    read_key(c, s, Key("pause", "pause", cfg.pause), v, a.key);
  } else if (axis.param == "vmax") {
    // The mobility figures' x-axis: the 0 column is the static network.
    double x = 0.0;
    if (!c.num(v, a.key, x)) return;
    cfg.static_nodes = x <= 0.0;
    s.wrote("static_nodes", v, a.key);
    if (x > 0.0) {
      cfg.v_max = x;
      s.wrote("v_max", v, a.key);
    }
  } else if (axis.param == "nodes") {
    read_key(c, s, Key("nodes", "num_nodes", cfg.num_nodes), v, a.key);
  } else if (axis.param == "sources") {
    read_key(c, s, Key("sources", "num_connections", cfg.num_connections), v, a.key);
  } else if (axis.param == "crash") {
    read_key(c, s, Key("crash", "fault.crash_rate", cfg.fault.crash_rate), v, a.key);
  } else if (axis.param == "loss") {
    read_key(c, s, Key("loss", "phy.frame_loss_rate", cfg.phy.frame_loss_rate), v, a.key);
  } else if (axis.param == "rate") {
    // Offered load in packets/s per flow, the paper family's x-axis for the
    // load-collapse figures (same conversion as traffic.rate_pps).
    if (c.rate(v, a.key, cfg.cbr_interval)) s.wrote("cbr_interval", v, a.key);
  }
}

[[nodiscard]] bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (const char ch : s) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '-' || ch == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::string to_string(const Error& e, const std::string& filename) {
  std::ostringstream os;
  os << filename;
  if (e.line > 0) os << ':' << e.line;
  os << ": ";
  if (!e.key.empty()) os << e.key << ": ";
  os << e.message;
  return os.str();
}

std::string ScenarioSpec::error_report() const {
  std::ostringstream os;
  for (const Error& e : errors) os << to_string(e, filename) << '\n';
  return os.str();
}

ScenarioSpec load_string(const std::string& text, const std::string& filename) {
  ScenarioSpec spec;
  spec.filename = filename;
  Checker c(spec.errors);

  Value root;
  std::string perr;
  if (!json::parse(text, root, perr)) {
    c.fail_at(0, "", perr);
    return spec;
  }
  if (!root.is_object()) {
    c.fail(root, "", std::string("top level must be an object, got ") +
                         Value::kind_name(root.kind));
    return spec;
  }

  Staged base;
  const Value* sweep = nullptr;

  for (const auto& [k, v] : root.object) {
    if (k == "name") {
      std::string s;
      if (c.str(v, "name", s)) {
        if (!valid_name(s)) {
          c.fail(v, "name",
                 "must be non-empty [A-Za-z0-9._-] (it keys the results/<name>.* artifacts), "
                 "got \"" +
                     s + "\"");
        } else {
          spec.name = std::move(s);
        }
      }
    } else if (k == "description") {
      std::string s;
      if (c.str(v, "description", s)) spec.description = std::move(s);
    } else if (k == "seeds") {
      long long n = 0;
      if (c.integer(v, "seeds", n)) {
        if (n >= 1 && n <= kMaxSeeds) {
          spec.seeds = static_cast<int>(n);
        } else {
          c.fail(v, "seeds",
                 "must be in [1, " + std::to_string(kMaxSeeds) + "], got " + std::to_string(n));
        }
      }
    } else if (k == "output") {
      if (!c.expect_kind(v, Value::Kind::kObject, "output")) continue;
      for (const auto& [ok, ov] : v.object) {
        if (ok == "dir") {
          std::string s;
          if (c.str(ov, "output.dir", s)) {
            if (s.empty()) {
              c.fail(ov, "output.dir", "must be a non-empty path");
            } else {
              spec.out_dir = std::move(s);
            }
          }
        } else {
          c.fail(ov, "output." + ok, "unknown key (expected: dir)");
        }
      }
    } else if (k == "base") {
      apply_settings(c, v, "base", base);
    } else if (k == "sweep") {
      sweep = &v;
    } else {
      c.fail(v, k,
             "unknown key (expected: name, description, seeds, output, base, sweep)");
    }
  }

  if (root.find("name") == nullptr) {
    c.fail_at(root.line, "name", "required key is missing");
  }

  // -- sweep expansion -------------------------------------------------------
  // Grid cells: (protocol × axis values) in nested-loop order, protocol
  // outermost, so a figure's artifact lists each protocol's series in turn.
  std::vector<std::pair<std::string, Protocol>> protocols;
  std::vector<Axis> axes;
  struct ExplicitCell {
    std::string label;
    const Value* set = nullptr;
  };
  std::vector<ExplicitCell> explicit_cells;
  const int sweep_line = sweep != nullptr ? sweep->line : root.line;

  if (sweep != nullptr && c.expect_kind(*sweep, Value::Kind::kObject, "sweep")) {
    for (const auto& [k, v] : sweep->object) {
      const std::string p = "sweep." + k;
      if (k == "protocols") {
        if (!c.expect_kind(v, Value::Kind::kArray, p)) continue;
        if (v.array.empty()) c.fail(v, p, "must list at least one protocol");
        for (std::size_t i = 0; i < v.array.size(); ++i) {
          const std::string pi = p + "[" + std::to_string(i) + "]";
          std::string s;
          if (!c.str(v.array[i], pi, s)) continue;
          const ProtocolEntry* e = find_protocol(s);
          if (e == nullptr) {
            c.fail(v.array[i], pi,
                   "unknown protocol \"" + s + "\" (registered: " + protocol_names() + ")");
          } else {
            protocols.emplace_back(e->name, e->id);
          }
        }
      } else if (k == "axes") {
        if (!c.expect_kind(v, Value::Kind::kArray, p)) continue;
        for (std::size_t i = 0; i < v.array.size(); ++i) {
          const Value& av = v.array[i];
          const std::string pi = p + "[" + std::to_string(i) + "]";
          if (!c.expect_kind(av, Value::Kind::kObject, pi)) continue;
          Axis axis;
          const Value* values = nullptr;
          for (const auto& [ak, avv] : av.object) {
            const std::string pa = pi + "." + ak;
            if (ak == "param") {
              (void)c.str(avv, pa, axis.param);
            } else if (ak == "values") {
              if (c.expect_kind(avv, Value::Kind::kArray, pa)) values = &avv;
            } else if (ak == "family") {
              std::string s;
              if (c.str(avv, pa, s)) {
                if (s == "urban") {
                  axis.urban_family = true;
                } else {
                  c.fail(avv, pa, "unknown scenario family \"" + s + "\" (expected: urban)");
                }
              }
            } else {
              c.fail(avv, pa, "unknown key (expected: param, values, family)");
            }
          }
          if (axis.param.empty()) {
            c.fail(av, pi, "required key \"param\" is missing");
            continue;
          }
          if (!axis.urban_family && axis.param != "pause" && axis.param != "vmax" &&
              axis.param != "nodes" && axis.param != "sources" && axis.param != "crash" &&
              axis.param != "loss" && axis.param != "rate") {
            c.fail(av, pi + ".param",
                   "unknown sweep param \"" + axis.param + "\" (expected: " + kAxisParams +
                       "; or set \"family\": \"urban\")");
            continue;
          }
          if (values == nullptr || values->array.empty()) {
            c.fail(av, pi, "required key \"values\" must be a non-empty array of numbers");
            continue;
          }
          for (std::size_t j = 0; j < values->array.size(); ++j) {
            const Value& vv = values->array[j];
            const std::string pv = pi + ".values[" + std::to_string(j) + "]";
            if (c.expect_kind(vv, Value::Kind::kNumber, pv)) axis.values.push_back({&vv, pv});
          }
          axes.push_back(std::move(axis));
        }
      } else if (k == "cells") {
        if (!c.expect_kind(v, Value::Kind::kArray, p)) continue;
        for (std::size_t i = 0; i < v.array.size(); ++i) {
          const Value& cv = v.array[i];
          const std::string pi = p + "[" + std::to_string(i) + "]";
          if (!c.expect_kind(cv, Value::Kind::kObject, pi)) continue;
          ExplicitCell cell;
          for (const auto& [ck, cvv] : cv.object) {
            if (ck == "label") {
              std::string s;
              if (c.str(cvv, pi + ".label", s)) {
                if (s.empty()) {
                  c.fail(cvv, pi + ".label", "must be non-empty");
                } else {
                  cell.label = std::move(s);
                }
              }
            } else if (ck == "set") {
              cell.set = &cvv;
            } else {
              c.fail(cvv, pi + "." + ck, "unknown key (expected: label, set)");
            }
          }
          if (cell.label.empty()) {
            c.fail(cv, pi, "required key \"label\" is missing");
            continue;
          }
          explicit_cells.push_back(cell);
        }
      } else {
        c.fail(v, p, "unknown key (expected: protocols, axes, cells)");
      }
    }
  }

  // Default protocol list: the base config's protocol, under its canonical
  // name.
  if (protocols.empty() && (sweep == nullptr || sweep->find("protocols") == nullptr)) {
    protocols.emplace_back(to_string(base.cfg.protocol), base.cfg.protocol);
  }

  // Grid: protocol-major, then each axis left to right.
  std::vector<std::pair<std::string, Staged>> staged;
  const bool grid_wanted =
      sweep == nullptr || !axes.empty() || sweep->find("protocols") != nullptr ||
      explicit_cells.empty();
  if (grid_wanted) {
    for (const auto& [pname, penum] : protocols) {
      std::vector<std::pair<std::string, Staged>> partial;
      partial.emplace_back(pname, base);
      partial.back().second.cfg.protocol = penum;
      for (const Axis& axis : axes) {
        std::vector<std::pair<std::string, Staged>> next;
        next.reserve(partial.size() * axis.values.size());
        for (const auto& [label, cell] : partial) {
          for (const AxisValue& a : axis.values) {
            next.emplace_back(label + "/" + axis.param + ":" + fmt_g(a.value->number), cell);
            apply_axis(c, axis, a, next.back().second);
          }
        }
        partial = std::move(next);
      }
      for (auto& cell : partial) staged.push_back(std::move(cell));
    }
  }

  for (const ExplicitCell& cell : explicit_cells) {
    staged.emplace_back(cell.label, base);
    if (cell.set != nullptr) {
      apply_settings(c, *cell.set, "sweep.cells \"" + cell.label + "\".set", staged.back().second);
    }
  }

  if (staged.empty() && spec.errors.empty()) {
    c.fail_at(sweep_line, "sweep", "the spec expands to zero cells");
  }

  // Label uniqueness (SweepResult::find and manet_report key on labels).
  for (std::size_t i = 0; i < staged.size(); ++i) {
    for (std::size_t j = i + 1; j < staged.size(); ++j) {
      if (staged[i].first == staged[j].first) {
        c.fail_at(sweep_line, "sweep", "duplicate cell label \"" + staged[i].first + "\"");
        j = staged.size();  // report each duplicate label once
      }
    }
  }

  // The scenario contract, per expanded cell. Each error is anchored at the
  // JSON value that wrote the field it blames; a field left at its default
  // is anchored at the cell.
  for (const auto& [label, cell] : staged) {
    for (const ConfigError& e : check(cell.cfg)) {
      const auto it = cell.anchors.find(e.field);
      if (it != cell.anchors.end()) {
        c.fail_at(it->second.line, it->second.key, e.message);
      } else {
        c.fail_at(sweep_line, "cell \"" + label + "\"", e.field + ": " + e.message);
      }
    }
  }

  // A bad base or axis value is written into many cells; report it once,
  // and list the diagnostics in file order.
  std::set<std::string> seen;
  std::erase_if(spec.errors, [&seen](const Error& e) {
    return !seen.insert(std::to_string(e.line) + ':' + e.key + ':' + e.message).second;
  });
  std::stable_sort(spec.errors.begin(), spec.errors.end(),
                   [](const Error& a, const Error& b) { return a.line < b.line; });

  for (auto& [label, cell] : staged) {
    spec.cells.push_back(SweepCell{std::move(label), std::move(cell.cfg)});
  }
  return spec;
}

ScenarioSpec load_file(const std::string& path) {
  std::string text;
  std::string err;
  if (!json::read_file(path, text, err)) {
    ScenarioSpec spec;
    spec.filename = path;
    spec.errors.push_back(Error{0, "", err});
    return spec;
  }
  return load_string(text, path);
}

}  // namespace manet::spec
