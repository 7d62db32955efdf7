// Minimal JSON value type for the observability layer.
//
// The metrics snapshot, the trace sink, and the bench/report harness all
// need to emit (and the tests to re-parse) small JSON documents. Pulling
// in a third-party JSON library for that would be the only external
// dependency in the repo besides gtest/benchmark, so instead we keep a
// deliberately small value type here: ordered objects, arrays, strings,
// integers (signed and unsigned kept exact -- counters are uint64 and
// must survive a dump/parse round trip bit-for-bit), doubles, booleans,
// null. Parsing accepts the JSON this library dumps plus ordinary
// whitespace, and numbers only in the RFC 8259 grammar; it is not a
// general-purpose validator. parse(s).dump() == s for every compact s
// that dump() emits, which is what lets the service splice stored result
// bytes into a response in place of re-serializing them.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shlcp {

/// An ordered JSON value. Objects preserve insertion order so that the
/// emitted BENCH_*.json files are stable and diffable across runs.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(std::int64_t v) : type_(Type::kInt), int_(v) {}
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}
  Json(std::uint64_t v) : type_(Type::kUint), uint_(v) {}
  Json(double v) : type_(Type::kDouble), double_(v) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), string_(s) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}

  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_bool() const { return type_ == Type::kBool; }
  /// Any of kInt / kUint / kDouble.
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kUint || type_ == Type::kDouble;
  }
  /// kInt or kUint (exact integers, not doubles).
  bool is_integer() const { return type_ == Type::kInt || type_ == Type::kUint; }

  /// Typed accessors; SHLCP_CHECK on type mismatch. Integer accessors
  /// convert between signed/unsigned when the value fits.
  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Array access. push_back returns the stored element for chaining.
  Json& push_back(Json v);
  std::size_t size() const;
  const Json& at(std::size_t i) const;
  const std::vector<Json>& items() const;

  /// Object access. operator[] inserts a null member when absent (and
  /// turns a null value into an object, so `j["a"]["b"] = 1` works).
  Json& operator[](std::string_view key);
  bool contains(std::string_view key) const;
  const Json& at(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Serializes. indent < 0 emits a single line (JSONL-friendly);
  /// indent >= 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// The compact dump with every object's members in ascending key
  /// order, recursively (arrays keep their order). Equal to dumping a
  /// copy whose members were stably sorted, without building the copy:
  /// the service keys its cache, its integrity check and its ring on
  /// this string.
  std::string canonical_dump() const;

  /// Parses `text`; throws shlcp::CheckError on malformed input,
  /// trailing garbage, or containers nested deeper than 256 levels
  /// (the cap keeps recursion bounded on untrusted wire input).
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  void canonical_dump_to(std::string& out) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace shlcp
