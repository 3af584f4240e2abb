// Exact work-count gate: steady-state heap allocations per round of the
// scenario executor and the elastic loop.
//
// This binary replaces the global operator new with a counting one, so
// it is its own executable (and is not built under sanitizers, whose
// runtimes own the allocator).  A round's allocations are measured as
// the difference between a 2R-round and an R-round run of the same
// scenario, so set-up cost cancels and what is left is the per-round
// work.  The counts are exact: a change that adds an allocation to the
// round loop fails here, and one that removes some should lower the
// pinned figure.  They are pinned for GCC 12 with its libstdc++, the only
// toolchain the build registers this test for.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "chaos/executor.h"
#include "chaos/scenario.h"
#include "elastic/session.h"
#include "runtime/runtime.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using redopt::chaos::FaultSpec;
using redopt::chaos::Scenario;

template <typename F>
std::uint64_t allocations_of(F&& fn) {
  g_counting.store(true, std::memory_order_relaxed);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  g_counting.store(false, std::memory_order_relaxed);
  return after - before;
}

/// Allocations per round in steady state: (A(2R) - A(R)) / R, after one
/// warm-up run (first-use registrations are not per-round work).
template <typename Run>
double allocs_per_round(const Scenario& job, Run&& run) {
  Scenario short_job = job;
  Scenario long_job = job;
  long_job.rounds = 2 * job.rounds;
  short_job.validate();
  long_job.validate();
  run(long_job);
  const std::uint64_t a_long = allocations_of([&] { run(long_job); });
  const std::uint64_t a_short = allocations_of([&] { run(short_job); });
  return (static_cast<double>(a_long) - static_cast<double>(a_short)) /
         static_cast<double>(job.rounds);
}

/// A replay-corpus-shaped scenario: n = 10, f = 2, d = 2, CGE, 40 rounds.
Scenario base(const std::string& problem) {
  Scenario s;
  s.name = "alloc-" + problem;
  s.seed = 20260;
  s.problem = problem;
  s.filter = "cge";
  s.n = 10;
  s.f = 2;
  s.d = 2;
  s.rounds = 40;
  return s;
}

FaultSpec byzantine(std::size_t agent) {
  FaultSpec byz;
  byz.kind = FaultSpec::Kind::kByzantine;
  byz.agent = agent;
  byz.from = 2;
  byz.attack = "gradient_reverse";
  byz.attack_param = 1.5;
  return byz;
}

FaultSpec straggler(std::size_t agent) {
  FaultSpec slow;
  slow.kind = FaultSpec::Kind::kStraggler;
  slow.agent = agent;
  slow.from = 2;
  slow.staleness = 2;
  return slow;
}

class AllocCount : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_threads_ = redopt::runtime::threads();
    redopt::runtime::set_threads(1);
  }
  void TearDown() override { redopt::runtime::set_threads(previous_threads_); }

  static double executor(const Scenario& s) {
    return allocs_per_round(s, [](const Scenario& job) { redopt::chaos::run_scenario(job); });
  }

 private:
  std::size_t previous_threads_ = 1;
};

}  // namespace

// Least-squares agents evaluate into per-agent workspaces and every
// gradient-sized buffer is reused, so a fault-free round allocates only
// inside CGE: its norm list, its survivor order and its output.
TEST_F(AllocCount, FaultFreeExecutorRound) {
  EXPECT_EQ(executor(base("block_regression")), 3.0);
  EXPECT_EQ(executor(base("regression")), 3.0);
}

// A Byzantine agent adds the one vector the attack crafts; the
// adversary's view and the straggler's history reuse their buffers.
TEST_F(AllocCount, ByzantineExecutorRound) {
  Scenario s = base("block_regression");
  s.faults = {byzantine(1), straggler(2)};
  EXPECT_EQ(executor(s), 4.0);
}

// Drops, duplicates and delays circulate pooled buffers.  Beyond the
// fault-free round's three, the longer run makes 8 more allocations in
// all (0.2 a round), as the delay line and the buffer pool reach peaks the
// shorter run did not; they are bounded by the scenario's size, not its
// length.
TEST_F(AllocCount, LossyChannelExecutorRound) {
  Scenario s = base("block_regression");
  s.channel.drop_probability = 0.1;
  s.channel.duplicate_probability = 0.1;
  s.channel.max_delay = 2;
  EXPECT_EQ(executor(s), 3.2);
}

// The elastic loop keeps its own round engine (per-replica frames, span
// records and virtual gradients, the coordinator's map inbox), but its
// islands are handed over as snapshots, not through JSON, so the count
// no longer moves with how wall-clock timings format.
TEST_F(AllocCount, ChurnElasticRound) {
  Scenario s = base("block_regression");
  s.faults = {byzantine(1)};
  redopt::chaos::MembershipEvent leave;
  leave.kind = redopt::chaos::MembershipEvent::Kind::kLeave;
  leave.agent = s.n - 1;
  leave.round = 5;
  redopt::chaos::MembershipEvent join = leave;
  join.kind = redopt::chaos::MembershipEvent::Kind::kJoin;
  join.round = 15;
  s.membership = {leave, join};
  EXPECT_EQ(allocs_per_round(s, [](const Scenario& job) { redopt::elastic::run_elastic(job); }),
            135.85);
}
