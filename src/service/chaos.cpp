#include "service/chaos.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "util/check.h"
#include "util/descriptor.h"
#include "util/format.h"

namespace shlcp::svc {

namespace {

/// Writes all of `data` to `fd`, retrying EINTR and never raising
/// SIGPIPE (sockets take MSG_NOSIGNAL; pipes rely on the caller having
/// ignored the signal, which shlcpd and the chaos bench both do).
bool raw_write_all(int fd, const char* data, std::size_t len) {
  struct stat st{};
  const bool is_socket = ::fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode);
  std::size_t off = 0;
  while (off < len) {
    ssize_t n;
    if (is_socket) {
      n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    } else {
      n = ::write(fd, data + off, len - off);
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool ChaosPlan::enabled() const {
  return write_chop_permille > 0 || read_chop_permille > 0 ||
         corrupt_permille > 0 || reset_permille > 0 ||
         (delay_permille > 0 && max_delay_ms > 0);
}

std::string ChaosPlan::describe() const {
  return format("%s;seed=0x%llx;wchop=%d;rchop=%d;corrupt=%d;reset=%d;"
                "delay=%d@%dms",
                label.c_str(), static_cast<unsigned long long>(seed),
                write_chop_permille, read_chop_permille, corrupt_permille,
                reset_permille, delay_permille, max_delay_ms);
}

ChaosPlan ChaosPlan::parse(const std::string& descriptor) {
  const DescriptorReader d(descriptor, 7, "chaos-plan");
  ChaosPlan plan;
  plan.label = d.label();
  plan.seed = d.seed(1);
  plan.write_chop_permille = d.integer(2, "wchop");
  plan.read_chop_permille = d.integer(3, "rchop");
  plan.corrupt_permille = d.integer(4, "corrupt");
  plan.reset_permille = d.integer(5, "reset");
  const std::string delay = d.value(6, "delay");
  const std::size_t at = delay.find('@');
  SHLCP_CHECK_MSG(at != std::string::npos && delay.size() > at + 2 &&
                      delay.compare(delay.size() - 2, 2, "ms") == 0,
                  "chaos-plan descriptor: delay field needs '<permille>@<N>ms'");
  plan.delay_permille = d.to_int(delay.substr(0, at));
  plan.max_delay_ms = d.to_int(delay.substr(at + 1, delay.size() - at - 3));
  return plan;
}

std::vector<ChaosPlan> ChaosPlan::standard_family(std::uint64_t seed) {
  const auto sub = [&](std::uint64_t salt) { return mix64(seed ^ salt); };
  std::vector<ChaosPlan> family;
  const auto add = [&](ChaosPlan plan) { family.push_back(std::move(plan)); };

  ChaosPlan calm;
  calm.label = "calm";
  calm.seed = sub(1);
  add(calm);

  ChaosPlan chop_light;
  chop_light.label = "chop-light";
  chop_light.seed = sub(2);
  chop_light.write_chop_permille = 250;
  chop_light.read_chop_permille = 250;
  add(chop_light);

  ChaosPlan chop_heavy;
  chop_heavy.label = "chop-heavy";
  chop_heavy.seed = sub(3);
  chop_heavy.write_chop_permille = 900;
  chop_heavy.read_chop_permille = 900;
  add(chop_heavy);

  ChaosPlan corrupt_light;
  corrupt_light.label = "corrupt-light";
  corrupt_light.seed = sub(4);
  corrupt_light.corrupt_permille = 100;
  add(corrupt_light);

  ChaosPlan corrupt_heavy;
  corrupt_heavy.label = "corrupt-heavy";
  corrupt_heavy.seed = sub(5);
  corrupt_heavy.corrupt_permille = 400;
  add(corrupt_heavy);

  ChaosPlan reset;
  reset.label = "reset";
  reset.seed = sub(6);
  reset.reset_permille = 60;
  add(reset);

  ChaosPlan delay;
  delay.label = "delay";
  delay.seed = sub(7);
  delay.delay_permille = 200;
  delay.max_delay_ms = 5;
  add(delay);

  ChaosPlan mixed;
  mixed.label = "mixed";
  mixed.seed = sub(8);
  mixed.write_chop_permille = 400;
  mixed.read_chop_permille = 400;
  mixed.corrupt_permille = 150;
  mixed.reset_permille = 30;
  mixed.delay_permille = 100;
  mixed.max_delay_ms = 3;
  add(mixed);

  return family;
}

FaultyTransport::FaultyTransport(int read_fd, int write_fd, ChaosPlan plan)
    : plan_(std::move(plan)), read_fd_(read_fd), write_fd_(write_fd) {
  SHLCP_CHECK(read_fd >= 0 && write_fd >= 0);
}

FaultyTransport::~FaultyTransport() { kill_connection(); }

Rng FaultyTransport::event_rng(std::uint64_t op, std::uint64_t salt) const {
  std::uint64_t h = plan_.seed;
  h = mix64(h ^ (0x6a09e667f3bcc909ULL + op));
  return Rng(mix64(h ^ salt));
}

void FaultyTransport::kill_connection() {
  if (read_fd_ >= 0) {
    ::close(read_fd_);
  }
  if (write_fd_ >= 0 && write_fd_ != read_fd_) {
    ::close(write_fd_);
  }
  read_fd_ = -1;
  write_fd_ = -1;
  dead_ = true;
}

bool FaultyTransport::pre_op_faults(std::uint64_t op, std::uint64_t salt) {
  if (plan_.reset_permille > 0) {
    Rng rng = event_rng(op, salt ^ 0x7E5E);
    if (rng.next_bool(static_cast<std::uint64_t>(plan_.reset_permille), 1000)) {
      stats_.resets += 1;
      kill_connection();
      return false;
    }
  }
  if (plan_.delay_permille > 0 && plan_.max_delay_ms > 0) {
    Rng rng = event_rng(op, salt ^ 0xDE1A);
    if (rng.next_bool(static_cast<std::uint64_t>(plan_.delay_permille), 1000)) {
      const int ms = rng.next_int(1, plan_.max_delay_ms);
      stats_.delays += 1;
      stats_.delay_ms_total += static_cast<std::uint64_t>(ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }
  return true;
}

bool FaultyTransport::write_all(std::string_view data) {
  if (dead_) {
    return false;
  }
  const std::uint64_t op = write_ops_++;
  stats_.writes += 1;
  if (!pre_op_faults(op, /*salt=*/0x3717E)) {
    return false;
  }
  std::string payload(data);
  if (plan_.corrupt_permille > 0 && !payload.empty()) {
    Rng rng = event_rng(op, /*salt=*/0xC088);
    if (rng.next_bool(static_cast<std::uint64_t>(plan_.corrupt_permille),
                      1000)) {
      const std::size_t pos = rng.next_below(payload.size());
      // Flip a low bit so a corrupted digit stays printable but wrong;
      // XOR with a fixed nonzero mask guarantees the byte changes.
      payload[pos] = static_cast<char>(payload[pos] ^ 0x01);
      stats_.corrupted_bytes += 1;
    }
  }
  bool chopped = false;
  if (plan_.write_chop_permille > 0 && payload.size() > 1) {
    Rng rng = event_rng(op, /*salt=*/0x3C09);
    if (rng.next_bool(static_cast<std::uint64_t>(plan_.write_chop_permille),
                      1000)) {
      chopped = true;
      stats_.chopped_writes += 1;
      std::size_t off = 0;
      while (off < payload.size()) {
        const std::size_t slice =
            std::min<std::size_t>(payload.size() - off,
                                  static_cast<std::size_t>(rng.next_int(1, 8)));
        if (!raw_write_all(write_fd_, payload.data() + off, slice)) {
          kill_connection();
          return false;
        }
        off += slice;
        // Yield between slices so the peer's poll loop can observe the
        // partial frame -- the whole point of a chopped write.
        std::this_thread::yield();
      }
    }
  }
  if (!chopped) {
    if (!raw_write_all(write_fd_, payload.data(), payload.size())) {
      kill_connection();
      return false;
    }
  }
  return true;
}

std::int64_t FaultyTransport::read_some(char* buf, std::size_t cap) {
  if (dead_ || cap == 0) {
    return -1;
  }
  const std::uint64_t op = read_ops_++;
  stats_.reads += 1;
  if (!pre_op_faults(op, /*salt=*/0x8EAD)) {
    return -1;
  }
  std::size_t want = cap;
  if (plan_.read_chop_permille > 0 && cap > 1) {
    Rng rng = event_rng(op, /*salt=*/0x8C09);
    if (rng.next_bool(static_cast<std::uint64_t>(plan_.read_chop_permille),
                      1000)) {
      want = static_cast<std::size_t>(rng.next_int(1, 8));
      want = std::min(want, cap);
      stats_.chopped_reads += 1;
    }
  }
  ssize_t n;
  for (;;) {
    n = ::read(read_fd_, buf, want);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    break;
  }
  if (n < 0) {
    kill_connection();
    return -1;
  }
  if (n > 0 && plan_.corrupt_permille > 0) {
    Rng rng = event_rng(op, /*salt=*/0xC08A);
    if (rng.next_bool(static_cast<std::uint64_t>(plan_.corrupt_permille),
                      1000)) {
      const std::size_t pos = rng.next_below(static_cast<std::uint64_t>(n));
      buf[pos] = static_cast<char>(buf[pos] ^ 0x01);
      stats_.corrupted_bytes += 1;
    }
  }
  return static_cast<std::int64_t>(n);
}

}  // namespace shlcp::svc
