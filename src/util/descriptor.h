// The codec shared by the ';'-separated plan descriptors: FaultPlan
// (sim/faults.h) and ChaosPlan (service/chaos.h) both print themselves
// as "<label>;key=value;..." and parse that text back.
//
// Parsing is strict. A descriptor with the wrong field count, a
// misnamed key, or a number with trailing junk throws CheckError; it is
// never read as 0, so a typo in a REPRO string cannot silently replay a
// different plan.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace shlcp {

class DescriptorReader {
 public:
  /// Splits `text` at ';'. Throws unless it has exactly `count` fields.
  /// `what` names the descriptor kind in errors ("fault-plan").
  DescriptorReader(const std::string& text, std::size_t count,
                   const char* what);

  /// Field 0, taken verbatim.
  [[nodiscard]] const std::string& label() const { return fields_[0]; }

  /// The value of field `i`, which must read "<key>=<value>".
  [[nodiscard]] std::string value(std::size_t i, const char* key) const;

  /// value(i, key) as an int.
  [[nodiscard]] int integer(std::size_t i, const char* key) const {
    return to_int(value(i, key));
  }

  /// value(i, "seed") as an unsigned 64-bit seed ("0x" prefix allowed).
  [[nodiscard]] std::uint64_t seed(std::size_t i) const;

  /// `text` as a base-10 int, consumed completely.
  [[nodiscard]] int to_int(const std::string& text) const;

 private:
  std::vector<std::string> fields_;
  const char* what_;
};

}  // namespace shlcp
