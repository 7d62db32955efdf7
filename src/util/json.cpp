#include "util/json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/check.h"
#include "util/format.h"

namespace shlcp {

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool() const {
  SHLCP_CHECK_MSG(type_ == Type::kBool, "Json::as_bool on non-bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ == Type::kInt) {
    return int_;
  }
  SHLCP_CHECK_MSG(type_ == Type::kUint, "Json::as_int on non-integer");
  SHLCP_CHECK_MSG(
      uint_ <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
      "Json::as_int overflow");
  return static_cast<std::int64_t>(uint_);
}

std::uint64_t Json::as_uint() const {
  if (type_ == Type::kUint) {
    return uint_;
  }
  SHLCP_CHECK_MSG(type_ == Type::kInt, "Json::as_uint on non-integer");
  SHLCP_CHECK_MSG(int_ >= 0, "Json::as_uint on negative value");
  return static_cast<std::uint64_t>(int_);
}

double Json::as_double() const {
  switch (type_) {
    case Type::kDouble:
      return double_;
    case Type::kInt:
      return static_cast<double>(int_);
    case Type::kUint:
      return static_cast<double>(uint_);
    default:
      SHLCP_CHECK_MSG(false, "Json::as_double on non-number");
  }
  return 0.0;  // unreachable
}

const std::string& Json::as_string() const {
  SHLCP_CHECK_MSG(type_ == Type::kString, "Json::as_string on non-string");
  return string_;
}

Json& Json::push_back(Json v) {
  SHLCP_CHECK_MSG(type_ == Type::kArray, "Json::push_back on non-array");
  array_.push_back(std::move(v));
  return array_.back();
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) {
    return array_.size();
  }
  SHLCP_CHECK_MSG(type_ == Type::kObject, "Json::size on non-container");
  return object_.size();
}

const Json& Json::at(std::size_t i) const {
  SHLCP_CHECK_MSG(type_ == Type::kArray, "Json::at(index) on non-array");
  SHLCP_CHECK_MSG(i < array_.size(), "Json::at index out of range");
  return array_[i];
}

const std::vector<Json>& Json::items() const {
  SHLCP_CHECK_MSG(type_ == Type::kArray, "Json::items on non-array");
  return array_;
}

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) {
    type_ = Type::kObject;
  }
  SHLCP_CHECK_MSG(type_ == Type::kObject, "Json::operator[] on non-object");
  for (auto& [k, v] : object_) {
    if (k == key) {
      return v;
    }
  }
  object_.emplace_back(std::string(key), Json());
  return object_.back().second;
}

bool Json::contains(std::string_view key) const {
  SHLCP_CHECK_MSG(type_ == Type::kObject, "Json::contains on non-object");
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return true;
    }
  }
  return false;
}

const Json& Json::at(std::string_view key) const {
  SHLCP_CHECK_MSG(type_ == Type::kObject, "Json::at(key) on non-object");
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return v;
    }
  }
  SHLCP_CHECK_MSG(false, format("Json::at: missing key '%s'",
                                std::string(key).c_str()));
  return object_.front().second;  // unreachable
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  SHLCP_CHECK_MSG(type_ == Type::kObject, "Json::members on non-object");
  return object_;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent >= 0) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(int_);
      break;
    case Type::kUint:
      out += std::to_string(uint_);
      break;
    case Type::kDouble: {
      if (double_ == 0.0 && std::signbit(double_)) {
        out += "-0.0";  // "-0" would parse back as the integer 0
      } else if (std::isfinite(double_)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        out += buf;
      } else {
        out += "null";  // JSON has no inf/nan; degrade to null
      }
      break;
    }
    case Type::kString:
      append_escaped(out, string_);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        append_newline_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        append_newline_indent(out, indent, depth + 1);
        append_escaped(out, object_[i].first);
        out += indent >= 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::canonical_dump_to(std::string& out) const {
  switch (type_) {
    case Type::kArray:
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        array_[i].canonical_dump_to(out);
      }
      out.push_back(']');
      break;
    case Type::kObject: {
      // Sort pointers to the members, not the members: nothing is copied.
      std::vector<const std::pair<std::string, Json>*> order;
      order.reserve(object_.size());
      for (const auto& member : object_) {
        order.push_back(&member);
      }
      std::stable_sort(order.begin(), order.end(),
                       [](const auto* a, const auto* b) {
                         return a->first < b->first;
                       });
      out.push_back('{');
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0) {
          out.push_back(',');
        }
        append_escaped(out, order[i]->first);
        out.push_back(':');
        order[i]->second.canonical_dump_to(out);
      }
      out.push_back('}');
      break;
    }
    default:
      dump_to(out, -1, 0);
  }
}

std::string Json::canonical_dump() const {
  std::string out;
  canonical_dump_to(out);
  return out;
}

namespace {

/// Nesting cap for parse. The parser, canonical_dump, dump, and the
/// Json destructor all recurse once per container level, so untrusted
/// input (service frames arrive straight from the wire) must not be
/// able to choose the recursion depth: a few MiB of '[' would
/// otherwise overflow the stack. 256 is far beyond any document this
/// library produces.
constexpr int kMaxParseDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    SHLCP_CHECK_MSG(pos_ == text_.size(), "Json::parse: trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    SHLCP_CHECK_MSG(pos_ < text_.size(), "Json::parse: unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    SHLCP_CHECK_MSG(next() == c,
                    format("Json::parse: expected '%c' at offset %zu", c, pos_ - 1));
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        SHLCP_CHECK_MSG(consume_literal("true"), "Json::parse: bad literal");
        return Json(true);
      case 'f':
        SHLCP_CHECK_MSG(consume_literal("false"), "Json::parse: bad literal");
        return Json(false);
      case 'n':
        SHLCP_CHECK_MSG(consume_literal("null"), "Json::parse: bad literal");
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    enter_container();
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      const char c = next();
      if (c == '}') {
        --depth_;
        return obj;
      }
      SHLCP_CHECK_MSG(c == ',', "Json::parse: expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    enter_container();
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') {
        --depth_;
        return arr;
      }
      SHLCP_CHECK_MSG(c == ',', "Json::parse: expected ',' or ']' in array");
    }
  }

  void enter_container() {
    ++depth_;
    SHLCP_CHECK_MSG(depth_ <= kMaxParseDepth,
                    format("Json::parse: nesting deeper than %d levels",
                           kMaxParseDepth));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          SHLCP_CHECK_MSG(pos_ + 4 <= text_.size(),
                          "Json::parse: truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              SHLCP_CHECK_MSG(false, "Json::parse: bad \\u escape");
            }
          }
          // We only emit \u escapes for control characters; decode the
          // BMP code point as UTF-8 so round trips are lossless.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          SHLCP_CHECK_MSG(false, "Json::parse: bad escape");
      }
    }
  }

  /// Consumes a run of decimal digits; returns how many.
  std::size_t digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - from;
  }

  /// RFC 8259 numbers only: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  /// Integers stay exact (int64 when negative, else uint64).
  Json parse_number() {
    const std::size_t start = pos_;
    const auto require = [&](bool ok) {
      SHLCP_CHECK_MSG(ok, format("Json::parse: bad number at offset %zu",
                                 start));
    };
    if (peek() == '-') {
      ++pos_;
    }
    const std::size_t int_start = pos_;
    const std::size_t int_digits = digits();
    // "0" is the only integer part that may start with a zero.
    require(int_digits == 1 || (int_digits > 1 && text_[int_start] != '0'));
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      is_double = true;
      require(digits() > 0);
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      is_double = true;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      require(digits() > 0);
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (is_double) {
      return Json(std::strtod(token.c_str(), nullptr));
    }
    errno = 0;
    if (token[0] == '-') {
      const long long v = std::strtoll(token.c_str(), nullptr, 10);
      SHLCP_CHECK_MSG(errno == 0, "Json::parse: integer out of range");
      return Json(static_cast<std::int64_t>(v));
    }
    const unsigned long long v = std::strtoull(token.c_str(), nullptr, 10);
    SHLCP_CHECK_MSG(errno == 0, "Json::parse: integer out of range");
    return Json(static_cast<std::uint64_t>(v));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace shlcp
