// Precondition / invariant checking for the shlcp library.
//
// Following the C++ Core Guidelines (I.6, E.12) we express preconditions
// explicitly and fail loudly: a violated SHLCP_CHECK throws
// shlcp::CheckError with the failing expression, the file's basename,
// and the line. The library is exact mathematics on small objects, so we
// keep checks on in all build types -- correctness dominates speed
// everywhere except the innermost enumeration loops, which use
// SHLCP_DCHECK (compiled out in NDEBUG builds).

#pragma once

#include <stdexcept>
#include <string>

namespace shlcp {

/// Error thrown when a SHLCP_CHECK precondition or invariant fails.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
/// Builds the CheckError message and throws. Out-of-line so the macro
/// expansion stays small at every call site.
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& msg);
}  // namespace detail

}  // namespace shlcp

/// Always-on invariant check. `msg` may be any expression convertible to
/// std::string (use shlcp::format for interpolation).
#define SHLCP_CHECK(expr)                                              \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::shlcp::detail::check_failed(#expr, __FILE__, __LINE__, "");    \
    }                                                                  \
  } while (false)

#define SHLCP_CHECK_MSG(expr, msg)                                     \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::shlcp::detail::check_failed(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                  \
  } while (false)

/// Debug-only check for hot loops.
#ifdef NDEBUG
#define SHLCP_DCHECK(expr) \
  do {                     \
  } while (false)
#else
#define SHLCP_DCHECK(expr) SHLCP_CHECK(expr)
#endif
