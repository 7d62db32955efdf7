#include "interactive/commit.h"

#include <utility>

#include "util/check.h"
#include "util/format.h"

namespace shlcp::ia {

std::uint64_t commitment(std::string_view session_id, std::uint64_t round,
                         int node, int color, std::uint64_t nonce) {
  return mix64(fnv1a64(format(
      "ia1|%s|%llu|%d|%d|%016llx", std::string(session_id).c_str(),
      static_cast<unsigned long long>(round), node, color,
      static_cast<unsigned long long>(nonce))));
}

CommitProver::CommitProver(std::vector<int> coloring, int k,
                           std::string session_id, std::uint64_t seed)
    : coloring_(std::move(coloring)),
      k_(k),
      session_id_(std::move(session_id)),
      seed_(seed) {
  SHLCP_CHECK_MSG(k_ >= 2, "CommitProver: need k >= 2");
  SHLCP_CHECK_MSG(!coloring_.empty(), "CommitProver: empty coloring");
  for (const int c : coloring_) {
    SHLCP_CHECK_MSG(c >= 0 && c < k_, "CommitProver: color outside [0, k)");
  }
}

std::vector<std::uint64_t> CommitProver::commit_round() {
  // Fresh hiding material per round: the permutation and the nonces are
  // drawn from round-indexed sub-streams, so replaying a session from
  // its seed reproduces the transcript exactly.
  Rng perm_rng = Rng::stream(seed_, kDomPermutation, round_);
  const std::vector<int> perm = random_permutation(k_, perm_rng);
  Rng nonce_rng = Rng::stream(seed_, kDomNonce, round_);

  const std::size_t n = coloring_.size();
  permuted_.assign(n, 0);
  nonces_.assign(n, 0);
  std::vector<std::uint64_t> commits(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    permuted_[v] = perm[static_cast<std::size_t>(coloring_[v])];
    nonces_[v] = nonce_rng.next_u64();
    commits[v] = commitment(session_id_, round_, static_cast<int>(v),
                            permuted_[v], nonces_[v]);
  }
  ++round_;
  return commits;
}

Opening CommitProver::open(int node) const {
  SHLCP_CHECK_MSG(round_ > 0, "CommitProver: open before any commit");
  SHLCP_CHECK_MSG(node >= 0 && node < num_nodes(),
                  "CommitProver: open of unknown node");
  const auto v = static_cast<std::size_t>(node);
  return Opening{node, permuted_[v], nonces_[v]};
}

}  // namespace shlcp::ia
