#include "util/descriptor.h"

#include <cerrno>
#include <climits>
#include <cstdlib>

#include "util/check.h"
#include "util/format.h"

namespace shlcp {

DescriptorReader::DescriptorReader(const std::string& text, std::size_t count,
                                   const char* what)
    : what_(what) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t semi = text.find(';', start);
    fields_.push_back(text.substr(
        start, semi == std::string::npos ? std::string::npos : semi - start));
    if (semi == std::string::npos) {
      break;
    }
    start = semi + 1;
  }
  SHLCP_CHECK_MSG(fields_.size() == count,
                  format("%s descriptor needs %d ';'-fields, got %d: %s", what,
                         static_cast<int>(count),
                         static_cast<int>(fields_.size()), text.c_str()));
}

std::string DescriptorReader::value(std::size_t i, const char* key) const {
  const std::string prefix = std::string(key) + "=";
  SHLCP_CHECK_MSG(fields_[i].rfind(prefix, 0) == 0,
                  format("%s descriptor: expected '%s=...', got '%s'", what_,
                         key, fields_[i].c_str()));
  return fields_[i].substr(prefix.size());
}

std::uint64_t DescriptorReader::seed(std::size_t i) const {
  const std::string text = value(i, "seed");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  SHLCP_CHECK_MSG(!text.empty() && *end == '\0' && errno == 0,
                  format("%s descriptor: '%s' is not a seed", what_,
                         text.c_str()));
  return static_cast<std::uint64_t>(v);
}

int DescriptorReader::to_int(const std::string& text) const {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  SHLCP_CHECK_MSG(!text.empty() && *end == '\0' && errno == 0 &&
                      v >= INT_MIN && v <= INT_MAX,
                  format("%s descriptor: '%s' is not an integer", what_,
                         text.c_str()));
  return static_cast<int>(v);
}

}  // namespace shlcp
