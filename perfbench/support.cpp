#include "support.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "util/error.h"
#include "util/json.h"

namespace perfbench {

using redopt::linalg::Vector;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void TtrWindows::add_pass(const std::vector<double>& ttr_ms) {
  open_.insert(open_.end(), ttr_ms.begin(), ttr_ms.end());
  if (open_.size() < window_ops_) return;
  p50_.push_back(percentile(open_, 0.5));
  p90_.push_back(percentile(open_, 0.9));
  open_.clear();
}

double TtrWindows::p50() const { return p50_.empty() ? percentile(open_, 0.5) : median(p50_); }
double TtrWindows::p90() const { return p90_.empty() ? percentile(open_, 0.9) : median(p90_); }

namespace {

Usage from_rusage(const rusage& ru) {
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

Usage usage_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return from_rusage(ru);
}

}  // namespace

Usage self_usage() { return usage_of(RUSAGE_SELF); }
Usage children_usage() { return usage_of(RUSAGE_CHILDREN); }

double rss_kib(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0.0;
}

DaemonProcess::DaemonProcess(const std::string& binary, const std::string& socket,
                             const std::string& state_dir, std::size_t lanes,
                             const std::string& log) {
  // The daemon's default slice (16 rounds) and a job table large enough
  // for the recovered jobs plus every client's jobs in flight.
  std::vector<std::string> args = {binary,      "--serve",   "--socket",  socket,
                                   "--state-dir", state_dir,   "--threads", std::to_string(lanes),
                                   "--max-jobs",  "64"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_ = ::fork();
  REDOPT_REQUIRE(pid_ >= 0, "fork failed");
  if (pid_ == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (null_fd >= 0) ::dup2(null_fd, 1);
    if (log_fd >= 0) ::dup2(log_fd, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

Usage DaemonProcess::wait_exit() {
  rusage ru{};
  int status = 0;
  const auto start = Clock::now();
  while (true) {
    const pid_t got = ::wait4(pid_, &status, WNOHANG, &ru);
    if (got == pid_) break;
    REDOPT_REQUIRE(got == 0, "wait4 failed");
    if (seconds_since(start) > 30.0) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &ru);
      pid_ = -1;
      REDOPT_REQUIRE(false, "redoptd did not exit after shutdown");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  REDOPT_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "redoptd exited abnormally (status " + std::to_string(status) + ")");
  return from_rusage(ru);
}

void Report::add(const std::string& name, const std::string& unit, double value) {
  REDOPT_REQUIRE(std::isfinite(value), "metric " + name + " is not finite");
  metrics_.push_back({name, unit, value});
}

void Report::print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics_.size(); ++k) {
    if (k > 0) os << ", ";
    os << "\"" << metrics_[k].name << "\": {\"value\": "
       << redopt::util::json_number(metrics_[k].value) << ", \"unit\": \"" << metrics_[k].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

std::vector<std::size_t> honest_agents(const chaos::Scenario& s) {
  std::vector<bool> faulty(s.n, false);
  for (const chaos::FaultSpec& spec : s.faults) {
    if (spec.kind != chaos::FaultSpec::Kind::kStraggler) faulty[spec.agent] = true;
  }
  // Fold the membership events: an agent whose first event is a join
  // starts absent; each event flips it.
  std::vector<bool> seen(s.n, false);
  std::vector<bool> live(s.n, true);
  for (const chaos::MembershipEvent& event : s.membership) {
    const bool joins = event.kind == chaos::MembershipEvent::Kind::kJoin;
    if (!seen[event.agent]) {
      seen[event.agent] = true;
      live[event.agent] = !joins;
    }
    live[event.agent] = joins;  // every event fires before the final round
  }
  std::vector<std::size_t> never_faulty;
  std::vector<std::size_t> honest;
  for (std::size_t i = 0; i < s.n; ++i) {
    if (faulty[i]) continue;
    never_faulty.push_back(i);
    if (live[i]) honest.push_back(i);
  }
  return honest.empty() ? never_faulty : honest;
}

Oracle solve_honest_argmin(const chaos::Scenario& s,
                           const redopt::core::MultiAgentProblem& problem) {
  const std::vector<std::size_t> honest = honest_agents(s);
  const std::size_t d = s.d;
  auto summed_gradient = [&](const Vector& x) {
    Vector g(d);
    for (std::size_t i : honest) g += problem.costs[i]->gradient(x);
    return g;
  };
  const Vector zero(d);
  const Vector g0 = summed_gradient(zero);
  // Augmented system [A | -g0], row-major.
  std::vector<std::vector<double>> m(d, std::vector<double>(d + 1, 0.0));
  double scale = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    Vector e(d);
    e[j] = 1.0;
    const Vector column = summed_gradient(e) - g0;
    for (std::size_t r = 0; r < d; ++r) {
      m[r][j] = column[r];
      scale = std::max(scale, std::abs(column[r]));
    }
  }
  for (std::size_t r = 0; r < d; ++r) m[r][d] = -g0[r];

  Oracle out;
  for (std::size_t c = 0; c < d; ++c) {
    std::size_t pivot = c;
    for (std::size_t r = c + 1; r < d; ++r) {
      if (std::abs(m[r][c]) > std::abs(m[pivot][c])) pivot = r;
    }
    if (!(std::abs(m[pivot][c]) > 1e-10 * std::max(scale, 1e-300))) return out;
    std::swap(m[c], m[pivot]);
    for (std::size_t r = c + 1; r < d; ++r) {
      const double factor = m[r][c] / m[c][c];
      if (factor == 0.0) continue;
      for (std::size_t k = c; k <= d; ++k) m[r][k] -= factor * m[c][k];
    }
  }
  Vector x(d);
  for (std::size_t c = d; c-- > 0;) {
    double acc = m[c][d];
    for (std::size_t k = c + 1; k < d; ++k) acc -= m[c][k] * x[k];
    x[c] = acc / m[c][c];
  }
  const double residual = summed_gradient(x).norm();
  REDOPT_REQUIRE(residual <= 1e-7 * (1.0 + g0.norm() + scale * x.norm()),
                 "oracle: summed honest gradient is not affine (residual " +
                     std::to_string(residual) + ")");
  out.unique = true;
  out.x_h = x;
  return out;
}

Check check_outcome(const chaos::Scenario& s, const Oracle& oracle, const Vector& estimate,
                    double initial_distance, const Vector& program_reference) {
  Check c;
  auto wrong = [&](const std::string& why) {
    c.verdict = Verdict::kWrong;
    c.why = s.name + ": " + why;
    return c;
  };
  if (estimate.size() != s.d) return wrong("estimate has the wrong dimension");
  for (double v : estimate) {
    if (!std::isfinite(v)) return wrong("non-finite estimate");
    if (std::abs(v) > 10.0 + 1e-9) return wrong("estimate outside the projection box");
  }
  if (s.guaranteed()) {
    if (!oracle.unique) return wrong("guaranteed scenario without a unique x_H");
    if (redopt::linalg::distance(program_reference, oracle.x_h) >
        1e-6 * (1.0 + oracle.x_h.norm())) {
      return wrong("program reference disagrees with the oracle's x_H");
    }
    const double dist = redopt::linalg::distance(estimate, oracle.x_h);
    const double bound = std::max(0.2 * initial_distance, 0.08);
    if (!(dist <= bound)) {
      c.verdict = Verdict::kNotConverged;
      c.why = s.name + ": final distance " + std::to_string(dist) + " > Theorem 3 bound " +
              std::to_string(bound);
    }
  }
  return c;
}

}  // namespace perfbench
