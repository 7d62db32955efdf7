#include "util/check.h"

#include <sstream>
#include <string_view>

namespace shlcp::detail {

void check_failed(const char* expr, const char* file, int line,
                  const std::string& msg) {
  // The file's basename, not __FILE__ itself: __FILE__ holds the path of
  // the tree that was built, and the service returns these messages to
  // clients, whose response bytes must not depend on the checkout.
  std::string_view name(file);
  name.remove_prefix(name.find_last_of('/') + 1);
  std::ostringstream os;
  os << "SHLCP_CHECK failed: (" << expr << ") at " << name << ":" << line;
  if (!msg.empty()) {
    os << " -- " << msg;
  }
  throw CheckError(os.str());
}

}  // namespace shlcp::detail
