#include "common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

namespace manet::json {

namespace {

/// Arrays and objects nested deeper than this are rejected: the descent
/// recurses once per level, so an unbounded depth lets a hostile file
/// overflow the stack. Artifacts and scenario files nest a few levels.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  Parser(std::string_view text, std::string& err) : s_(text), err_(err) {}

  bool parse(Value& out) {
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters after JSON value");
    return true;
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int depth_ = 0;  ///< arrays and objects open around the current value
  std::string& err_;

  bool fail(const std::string& what) {
    err_ = "JSON parse error (line " + std::to_string(line_) + "): " + what;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      if (s_[pos_] == '\n') ++line_;
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool value(Value& out) {
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    out.line = line_;
    switch (s_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          return fail("nested deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        const bool ok = s_[pos_] == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"': out.kind = Value::Kind::kString; return string(out.str);
      case 't': return keyword("true", out, Value::Kind::kBool, true);
      case 'f': return keyword("false", out, Value::Kind::kBool, false);
      case 'n': return keyword("null", out, Value::Kind::kNull, false);
      default: return number(out);
    }
  }

  bool keyword(std::string_view word, Value& out, Value::Kind kind, bool b) {
    if (s_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    out.kind = kind;
    out.boolean = b;
    return true;
  }

  bool number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("malformed number '" + token + "'");
    out.kind = Value::Kind::kNumber;
    return true;
  }

  bool string(std::string& out) {
    if (!eat('"')) return fail("expected string");
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\n') ++line_;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          // Names in our artifacts are ASCII; decode BMP escapes to UTF-8 so
          // the parser never silently corrupts a name it must match later.
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape digit");
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool array(Value& out) {
    if (!eat('[')) return fail("expected array");
    out.kind = Value::Kind::kArray;
    if (eat(']')) return true;
    for (;;) {
      Value v;
      if (!value(v)) return false;
      out.array.push_back(std::move(v));
      if (eat(']')) return true;
      if (!eat(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool object(Value& out) {
    if (!eat('{')) return fail("expected object");
    out.kind = Value::Kind::kObject;
    if (eat('}')) return true;
    // The line of each key so far. A repeated key is an error: a reader that
    // looks keys up (Value::find) would see the first copy, one that walks
    // the members the last.
    std::map<std::string, int> key_lines;
    for (;;) {
      skip_ws();
      const int key_line = line_;
      std::string key;
      if (!string(key)) return false;
      if (const auto [first, fresh] = key_lines.emplace(key, key_line); !fresh) {
        return fail("duplicate key \"" + escaped(key) + "\" (first on line " +
                    std::to_string(first->second) + ")");
      }
      if (!eat(':')) return fail("expected ':' after object key");
      Value v;
      if (!value(v)) return false;
      // A scalar's own line is where it starts; for error reporting the key's
      // line is the more useful anchor, and they differ only in odd layouts.
      if (v.line == 0) v.line = key_line;
      out.object.emplace_back(std::move(key), std::move(v));
      if (eat('}')) return true;
      if (!eat(',')) return fail("expected ',' or '}' in object");
    }
  }
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const char* Value::kind_name(Kind k) {
  switch (k) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

bool parse(std::string_view text, Value& out, std::string& err) {
  return Parser(text, err).parse(out);
}

void escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

std::string escaped(std::string_view s) {
  std::ostringstream os;
  escape(os, s);
  return os.str();
}

bool read_file(const std::filesystem::path& p, std::string& out, std::string& err) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    err = "cannot read " + p.string();
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace manet::json
