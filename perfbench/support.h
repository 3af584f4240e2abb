// Shared pieces of the redopt benchmark: timing and statistics, the
// counting allocator switch, process resource usage, the metric report
// printed as the last line of stdout, and the independent x_H oracle
// every workload checks its outputs against.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "core/problem.h"
#include "linalg/vector.h"

namespace perfbench {

namespace chaos = redopt::chaos;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of @p values (mean of the middle pair for even counts); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile, @p p in [0, 1]; 0 when empty.
double percentile(std::vector<double> values, double p);

/// Time-to-result percentiles over consecutive windows of at least
/// @p window_ops operations (whole passes), reported as the median across
/// windows.  At the default of 100 each window's p90 has at least ten
/// samples beyond it, and a burst of load elsewhere on the host moves one
/// window, not the result.
class TtrWindows {
 public:
  explicit TtrWindows(std::size_t window_ops = 100) : window_ops_(window_ops) {}
  /// Adds the time-to-result samples of one whole pass.
  void add_pass(const std::vector<double>& ttr_ms);
  /// Medians across windows; a run too short to close one window uses
  /// its samples as one window.
  double p50() const;
  double p90() const;

 private:
  std::size_t window_ops_;
  std::vector<double> open_;
  std::vector<double> p50_;
  std::vector<double> p90_;
};

// ---- Counting allocator (alloc_count.cpp) -------------------------------

/// Starts / stops counting every operator new in this process (all threads).
void set_alloc_counting(bool on);

/// Allocations counted so far.
std::uint64_t alloc_count();

// ---- Resource usage ------------------------------------------------------

struct Usage {
  double cpu_s = 0.0;       ///< user + system CPU seconds
  double max_rss_mb = 0.0;  ///< peak resident set, MiB
};

/// This process, and its waited-for children, respectively.
Usage self_usage();
Usage children_usage();

/// Current resident set of process @p pid in KiB (from /proc), 0 if unknown.
double rss_kib(int pid);

/// A `redoptd --serve` child process (stdout discarded, stderr appended
/// to @p log); killed and reaped if still running when destroyed.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, const std::string& socket,
                const std::string& state_dir, std::size_t lanes, const std::string& log);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  int pid() const { return pid_; }

  /// Waits (up to 30 s, then kills) for the daemon to exit after a
  /// shutdown request and returns its resource usage.  Throws unless it
  /// exited with status 0.
  Usage wait_exit();

 private:
  int pid_ = -1;
};

// ---- Report ----------------------------------------------------------------

/// Collects named metrics and prints the result line
/// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}.
class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Metric> metrics_;
};

// ---- Independent honest-argmin oracle -------------------------------------

/// The honest set H of a scenario: agents no Byzantine or crash spec ever
/// touches, intersected with the live membership of the final round
/// (folded here from the membership events), falling back to the
/// never-faulty agents when that intersection is empty.
std::vector<std::size_t> honest_agents(const chaos::Scenario& scenario);

struct Oracle {
  bool unique = false;  ///< the affine system had a unique solution
  redopt::linalg::Vector x_h;
};

/// Solves sum_{i in H} grad Q_i(x) = 0 from the costs' public gradients.
/// Every scenario family is quadratic, so the summed gradient is affine:
/// G(x) = A x + g0 with g0 = G(0) and column j of A = G(e_j) - g0.
/// Gaussian elimination with partial pivoting; a residual check confirms
/// the gradient really was affine.
Oracle solve_honest_argmin(const chaos::Scenario& scenario,
                           const redopt::core::MultiAgentProblem& problem);

enum class Verdict {
  kOk,
  kNotConverged,  ///< guaranteed regime, but the Theorem 3 bound was missed
  kWrong,         ///< non-finite, outside the box, or disagreeing with the oracle
};

struct Check {
  Verdict verdict = Verdict::kOk;
  std::string why;
};

/// Checks one finished execution against the oracle.  Every estimate must
/// be finite and inside the [-10, 10]^d projection box.  Guaranteed scenarios
/// (Scenario::guaranteed) must also have a unique x_H that the program's
/// own reference agrees with, and end within
/// max(0.2 ||x^0 - x_H||, 0.08) of it, the tolerance chaos::Properties
/// uses for the guaranteed regime.
Check check_outcome(const chaos::Scenario& scenario, const Oracle& oracle,
                    const redopt::linalg::Vector& estimate, double initial_distance,
                    const redopt::linalg::Vector& program_reference);

}  // namespace perfbench
