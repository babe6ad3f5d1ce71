#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/json.hpp"
#include "scenario/builder.hpp"
#include "scenario/fields.hpp"

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

  /// One of `names`, stored as its value; otherwise an error naming them
  /// all ("unknown <what> \"x\" (expected: a, b)").
  template <typename E>
  bool choice(const Value& v, const std::string& key, const char* what,
              std::initializer_list<std::pair<std::string_view, E>> names, E& out) {
    std::string s;
    if (!str(v, key, s)) return false;
    for (const auto& [name, value] : names) {
      if (s == name) {
        out = value;
        return true;
      }
    }
    std::string expected;
    for (const auto& n : names) expected.append(expected.empty() ? "" : ", ").append(n.first);
    fail(v, key, "unknown " + std::string(what) + " \"" + s + "\" (expected: " + expected + ")");
    return false;
  }

  /// A protocol name, matched case-insensitively; nullptr when unknown.
  const ProtocolEntry* protocol(const Value& v, const std::string& key) {
    std::string name;
    if (!str(v, key, name)) return nullptr;
    const ProtocolEntry* e = find_protocol(name);
    if (e == nullptr) {
      fail(v, key, "unknown protocol \"" + name + "\" (registered: " + protocol_names() + ")");
    }
    return e;
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

  /// A packets/s rate as the interval between packets. 0 pps has no
  /// interval; it becomes interval 0, which check() rejects.
  bool rate(const Value& v, const std::string& key, SimTime& out) {
    double x = 0.0;
    // manet-lint: allow-float-eq - exact zero is the one rate with no reciprocal
    return num(v, key, x) && fit_seconds(v, key, x == 0.0 ? 0.0 : 1.0 / x, out);
  }

  /// `s` seconds as a time, when it fits one.
  bool fit_seconds(const Value& v, const std::string& key, double s, SimTime& out) {
    if (std::abs(s) > kMaxSeconds) {
      fail(v, key, "must be a time within +-9e9 s, got " + fmt_g(s) + " s");
      return false;
    }
    out = seconds_f(s);
    return true;
  }

 private:
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

/// Read `v` (at key path `p`) into field `f` and anchor it there.
void read_field(Checker& c, Staged& s, const Field& f, const Value& v, const std::string& p) {
  const bool ok = f.visit(s.cfg, [&]<typename T>(T& out) {
    if constexpr (std::is_same_v<T, SimTime>) {
      double x = 0.0;  // in units of f.unit seconds
      return c.num(v, p, x) && c.fit_seconds(v, p, x * f.unit, out);
    } else if constexpr (std::is_same_v<T, bool>) {
      if (!c.expect_kind(v, Value::Kind::kBool, p)) return false;
      out = v.boolean;
      return true;
    } else if constexpr (std::is_same_v<T, double>) {
      return c.num(v, p, out);
    } else {
      return c.integer(v, p, out);
    }
  });
  if (ok) s.wrote(f.path, v, p);
}

/// Walk schema object `o` at `path`: each key of `keys` goes to `on_key`
/// with its key path, and any other key is an error naming the accepted
/// set, so typos fail loudly instead of silently running the default.
template <typename OnKey>
void walk(Checker& c, const Value& o, const std::string& path,
          const std::vector<std::string_view>& keys, OnKey&& on_key) {
  if (!c.expect_kind(o, Value::Kind::kObject, path)) return;
  for (const auto& [k, v] : o.object) {
    const std::string p = path.empty() ? k : path + "." + k;
    if (std::ranges::find(keys, k) != keys.end()) {
      on_key(std::string_view(k), v, p);
    } else {
      std::string expected;
      for (const std::string_view x : keys) expected.append(expected.empty() ? "" : ", ").append(x);
      c.fail(v, p, "unknown key (expected: " + expected + ")");
    }
  }
}

/// Walk settings section `section` ("" for the settings object itself):
/// each row of the section is read from its key, and the hand-read `keys`
/// go to `special`.
template <typename Special>
void apply_section(Checker& c, Staged& s, const Value& o, const std::string& path,
                   std::string_view section, std::vector<std::string_view> keys,
                   Special&& special) {
  std::vector<const Field*> rows;
  for (const Field& f : kFields) {
    if (f.section != nullptr && f.section == section) {
      rows.push_back(&f);
      keys.emplace_back(f.key);
    }
  }
  walk(c, o, path, keys, [&](std::string_view k, const Value& v, const std::string& p) {
    const auto row = std::ranges::find_if(rows, [&](const Field* f) { return f->key == k; });
    if (row != rows.end()) {
      read_field(c, s, **row, v, p);
    } else {
      special(k, v, p);
    }
  });
}

// -- section walkers ---------------------------------------------------------
// A section's plain keys are its field rows; these read the rest.

void apply_mobility(Checker& c, const Value& o, const std::string& path, Staged& s) {
  apply_section(c, s, o, path, "mobility", {"model"},
                [&](std::string_view, const Value& v, const std::string& p) {
                  (void)c.choice(v, p, "mobility model",
                                 {{"waypoint", MobilityKind::kRandomWaypoint},
                                  {"walk", MobilityKind::kRandomWalk},
                                  {"gauss-markov", MobilityKind::kGaussMarkov},
                                  {"manhattan", MobilityKind::kManhattan}},
                                 s.cfg.mobility);
                });
}

void apply_traffic(Checker& c, const Value& o, const std::string& path, Staged& s) {
  if (o.find("rate_pps") != nullptr && o.find("interval_ms") != nullptr) {
    c.fail(*o.find("interval_ms"), path + ".interval_ms", "mutually exclusive with rate_pps");
  }
  apply_section(c, s, o, path, "traffic", {"kind", "rate_pps"},
                [&](std::string_view k, const Value& v, const std::string& p) {
                  if (k == "kind") {
                    (void)c.choice(v, p, "traffic kind",
                                   {{"cbr", TrafficKind::kCbr}, {"onoff", TrafficKind::kOnOff}},
                                   s.cfg.traffic);
                  } else if (c.rate(v, p, s.cfg.cbr_interval)) {
                    s.wrote("cbr_interval", v, p);
                  }
                });
}

/// The shared settings object: `base` and each explicit cell's `set`. Its
/// sections are those the rows name, in row order.
void apply_settings(Checker& c, const Value& o, const std::string& path, Staged& s) {
  ScenarioConfig& cfg = s.cfg;
  std::vector<std::string_view> keys = {"protocol", "area_m", "trace"};
  for (const Field& f : kFields) {
    if (f.section != nullptr && *f.section != '\0' &&
        std::ranges::find(keys, f.section) == keys.end()) {
      keys.emplace_back(f.section);
    }
  }
  apply_section(
      c, s, o, path, "", keys, [&](std::string_view k, const Value& v, const std::string& p) {
        if (k == "protocol") {
          if (const ProtocolEntry* e = c.protocol(v, p)) cfg.protocol = e->id;
        } else if (k == "area_m") {
          if (!c.expect_kind(v, Value::Kind::kArray, p)) return;
          if (v.array.size() != 2) {
            c.fail(v, p,
                   "expected [width_m, height_m], got " + std::to_string(v.array.size()) +
                       " element(s)");
            return;
          }
          read_field(c, s, field("area.width"), v.array[0], p + "[0]");
          read_field(c, s, field("area.height"), v.array[1], p + "[1]");
        } else if (k == "trace") {
          (void)c.str(v, p, cfg.trace_path);
        } else if (k == "mobility") {
          apply_mobility(c, v, p, s);
        } else if (k == "traffic") {
          apply_traffic(c, v, p, s);
        } else {
          apply_section(c, s, v, p, k, {}, [](auto&&...) {});
        }
      });
}

// -- sweep axes --------------------------------------------------------------

/// A sweep axis param: the field row its values are read into, or none for
/// the two read by hand (vmax, rate).
struct AxisParam {
  const char* name;  ///< label segment ("pause" -> "AODV/pause:0")
  const Field* field;
};

constexpr AxisParam kAxisParams[] = {
    {"pause", &field("pause")},
    {"vmax", nullptr},
    {"nodes", &field("num_nodes")},
    {"sources", &field("num_connections")},
    {"crash", &field("fault.crash_rate")},
    {"loss", &field("phy.frame_loss_rate")},
    {"rate", nullptr},
};

struct AxisValue {
  const Value* value = nullptr;
  std::string key;  ///< "sweep.axes[i].values[j]"
};

struct Axis {
  std::string param;                  ///< label segment; any name for a family
  const AxisParam* known = nullptr;   ///< kAxisParams row; none for a family
  bool urban_family = false;          ///< values are urban_scenario() node counts
  std::vector<AxisValue> values;
};

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
  } else if (axis.known->field != nullptr) {
    read_field(c, s, *axis.known->field, v, a.key);
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
  } else {
    // "rate": offered load in packets/s per flow, the paper family's x-axis
    // for the load-collapse figures (same conversion as traffic.rate_pps).
    if (c.rate(v, a.key, cfg.cbr_interval)) s.wrote("cbr_interval", v, a.key);
  }
}

/// One `sweep.axes` entry, appended to `axes` when it is well formed.
void read_axis(Checker& c, const Value& av, const std::string& pi, std::vector<Axis>& axes) {
  Axis axis;
  const Value* values = nullptr;
  walk(c, av, pi, {"param", "values", "family"},
       [&](std::string_view k, const Value& v, const std::string& p) {
         if (k == "param") {
           (void)c.str(v, p, axis.param);
         } else if (k == "values") {
           if (c.expect_kind(v, Value::Kind::kArray, p)) values = &v;
         } else {
           (void)c.choice(v, p, "scenario family", {{"urban", true}}, axis.urban_family);
         }
       });
  if (axis.param.empty()) {
    c.fail(av, pi, "required key \"param\" is missing");
    return;
  }
  if (!axis.urban_family) {
    axis.known = std::ranges::find(kAxisParams, std::string_view(axis.param), &AxisParam::name);
    if (axis.known == std::end(kAxisParams)) {
      std::string names;
      for (const AxisParam& a : kAxisParams) names.append(names.empty() ? "" : ", ").append(a.name);
      c.fail(av, pi + ".param",
             "unknown sweep param \"" + axis.param + "\" (expected: " + names +
                 "; or set \"family\": \"urban\")");
      return;
    }
  }
  if (values == nullptr || values->array.empty()) {
    c.fail(av, pi, "required key \"values\" must be a non-empty array of numbers");
    return;
  }
  for (std::size_t j = 0; j < values->array.size(); ++j) {
    const Value& vv = values->array[j];
    const std::string pv = pi + ".values[" + std::to_string(j) + "]";
    if (c.expect_kind(vv, Value::Kind::kNumber, pv)) axis.values.push_back({&vv, pv});
  }
  axes.push_back(std::move(axis));
}

/// A labelled cell of `sweep.cells`: its settings apply on top of `base`.
struct ExplicitCell {
  std::string label;
  const Value* set = nullptr;
};

/// One `sweep.cells` entry, appended to `cells` when it has a label.
void read_cell(Checker& c, const Value& cv, const std::string& pi,
               std::vector<ExplicitCell>& cells) {
  ExplicitCell cell;
  walk(c, cv, pi, {"label", "set"}, [&](std::string_view k, const Value& v, const std::string& p) {
    if (k == "set") {
      cell.set = &v;
      return;
    }
    std::string s;
    if (!c.str(v, p, s)) return;
    if (s.empty()) {
      c.fail(v, p, "must be non-empty");
    } else {
      cell.label = std::move(s);
    }
  });
  if (cell.label.empty()) {
    c.fail(cv, pi, "required key \"label\" is missing");
  } else {
    cells.push_back(cell);
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
  walk(c, root, "", {"name", "description", "seeds", "output", "base", "sweep"},
       [&](std::string_view k, const Value& v, const std::string& p) {
         if (k == "name") {
           std::string s;
           if (!c.str(v, p, s)) return;
           if (!valid_name(s)) {
             c.fail(v, p,
                    "must be non-empty [A-Za-z0-9._-] (it keys the results/<name>.* artifacts), "
                    "got \"" +
                        s + "\"");
           } else {
             spec.name = std::move(s);
           }
         } else if (k == "description") {
           std::string s;
           if (c.str(v, p, s)) spec.description = std::move(s);
         } else if (k == "seeds") {
           long long n = 0;
           if (!c.integer(v, p, n)) return;
           if (n >= 1 && n <= kMaxSeeds) {
             spec.seeds = static_cast<int>(n);
           } else {
             c.fail(v, p,
                    "must be in [1, " + std::to_string(kMaxSeeds) + "], got " + std::to_string(n));
           }
         } else if (k == "output") {
           walk(c, v, p, {"dir"}, [&](std::string_view, const Value& dv, const std::string& dp) {
             std::string s;
             if (!c.str(dv, dp, s)) return;
             if (s.empty()) {
               c.fail(dv, dp, "must be a non-empty path");
             } else {
               spec.out_dir = std::move(s);
             }
           });
         } else if (k == "base") {
           apply_settings(c, v, p, base);
         } else {
           sweep = &v;
         }
       });

  if (root.find("name") == nullptr) {
    c.fail_at(root.line, "name", "required key is missing");
  }

  // -- sweep expansion -------------------------------------------------------
  // Grid cells: (protocol × axis values) in nested-loop order, protocol
  // outermost, so a figure's artifact lists each protocol's series in turn.
  std::vector<std::pair<std::string, Protocol>> protocols;
  std::vector<Axis> axes;
  std::vector<ExplicitCell> explicit_cells;
  const int sweep_line = sweep != nullptr ? sweep->line : root.line;

  if (sweep != nullptr) {
    walk(c, *sweep, "sweep", {"protocols", "axes", "cells"},
         [&](std::string_view k, const Value& v, const std::string& p) {
           if (!c.expect_kind(v, Value::Kind::kArray, p)) return;
           if (k == "protocols" && v.array.empty()) c.fail(v, p, "must list at least one protocol");
           for (std::size_t i = 0; i < v.array.size(); ++i) {
             const Value& e = v.array[i];
             const std::string pi = p + "[" + std::to_string(i) + "]";
             if (k == "protocols") {
               if (const ProtocolEntry* entry = c.protocol(e, pi)) {
                 protocols.emplace_back(entry->name, entry->id);
               }
             } else if (c.expect_kind(e, Value::Kind::kObject, pi)) {
               if (k == "axes") {
                 read_axis(c, e, pi, axes);
               } else {
                 read_cell(c, e, pi, explicit_cells);
               }
             }
           }
         });
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
