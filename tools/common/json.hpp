// Minimal JSON support shared by the repo's tooling.
//
// Two consumers read JSON — tools/manet_report (cross-run metric diffs) and
// the scenario spec loader (src/scenario/spec.*) — and they both talk to
// producers this repo controls. A strict recursive-descent parser over the
// JSON grammar is therefore all that is needed: no external dependency, no
// streaming modes, no lenient extensions. Living here, it is shared instead
// of each consumer growing a hand-rolled copy.
//
// Every parsed Value records the 1-based source line it started on, so
// semantic validators (the scenario spec loader) can report
// "file:line: key: message" errors that point into the user's file, not
// just parse failures.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace manet::json {

/// One parsed JSON value (a tree; objects keep insertion order).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order
  /// 1-based line in the source text where this value started (0 when the
  /// value was built programmatically rather than parsed).
  int line = 0;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// The number, or `fallback` when this value is not a number.
  [[nodiscard]] double num_or(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }

  /// Human name of a Kind ("object", "string", ...) for error messages.
  [[nodiscard]] static const char* kind_name(Kind k);
};

/// Parse `text` into `out`. On failure returns false and sets `err` to
/// "JSON parse error (line N): what".
[[nodiscard]] bool parse(std::string_view text, Value& out, std::string& err);

/// Append `s` to `os` escaped for inclusion inside a JSON string literal
/// (quotes not included).
void escape(std::ostream& os, std::string_view s);

/// `s` escaped as above, returned as a string.
[[nodiscard]] std::string escaped(std::string_view s);

/// Slurp a file. On failure returns false and sets `err`.
[[nodiscard]] bool read_file(const std::filesystem::path& p, std::string& out,
                             std::string& err);

}  // namespace manet::json
