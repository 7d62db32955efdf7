// Heap allocations of one distributed decoder run, counted exactly.
//
// Wall time on a shared host moves by tens of percent between runs; the
// number of operator new calls does not. This binary replaces the global
// operator new with a counting one and pins the allocations of one
// fault-free run_decoder_distributed_faulty call -- the service's
// run_decoder miss -- on a fixed 12-node tree, so a change that brings
// back per-message knowledge copies shows up as a failed count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "certify/degree_one.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace shlcp {
namespace {

/// Allocations of the one call, after a first call has registered the
/// metrics counters and any other process-lifetime state.
std::uint64_t allocations_of_one_run(const Decoder& decoder,
                                     const Instance& inst) {
  (void)run_decoder_distributed_faulty(decoder, inst, FaultPlan{});
  const std::uint64_t before = g_allocations.load();
  const FaultyRunResult res =
      run_decoder_distributed_faulty(decoder, inst, FaultPlan{});
  const std::uint64_t after = g_allocations.load();
  for (const bool v : res.verdicts) {
    EXPECT_TRUE(v);
  }
  return after - before;
}

TEST(SimAllocTest, FaultFreeRunOnTwelveNodeTree) {
  const DegreeOneLcp lcp;
  Rng rng(12);
  Instance inst = Instance::canonical(make_random_tree(12, rng));
  inst.labels = *lcp.prove(inst.g, inst.ports, inst.ids);
  const std::uint64_t count = allocations_of_one_run(lcp.decoder(), inst);
  std::printf("run_decoder_distributed_faulty, 12-node tree: %llu "
              "allocations\n",
              static_cast<unsigned long long>(count));
  EXPECT_EQ(count, 275u);
}

}  // namespace
}  // namespace shlcp
