// replay-corpus and replay-socket: in-process scenario replay and the
// fork + Unix-socket transport, one scenario at a time.
#include <sched.h>

#include <iostream>
#include <sstream>
#include <thread>

#include "chaos/executor.h"
#include "chaos/generator.h"
#include "chaos/properties.h"
#include "elastic/session.h"
#include "rng/rng.h"
#include "runtime/runtime.h"
#include "telemetry/ship.h"
#include "transport/session.h"
#include "util/error.h"
#include "workloads.h"

namespace perfbench {

namespace {

using redopt::linalg::Vector;

/// The corpus: the first kCorpusDefault draws of the default generator
/// spec and the first kCorpusChurn draws of a spec that layers membership
/// churn on every draw, both from one fixed seed.  The corpus does not
/// depend on --seed (which only permutes the replay order), so the
/// scenarios that fail the paper's bound fail in every run.
constexpr std::uint64_t kCorpusSeed = 2026;
constexpr std::size_t kCorpusDefault = 2000;
constexpr std::size_t kCorpusChurn = 40;

/// replay-socket: scenarios per pass.
constexpr std::size_t kSocketPool = 16;

struct Entry {
  chaos::Scenario scenario;
  Oracle oracle;
  Vector reference;  ///< the program's own reference, for the agreement check
};

Entry make_entry(chaos::Scenario s) {
  const chaos::MaterializedScenario built = chaos::materialize_scenario(s);
  Entry e;
  e.oracle = solve_honest_argmin(s, built.problem);
  e.reference = built.reference;
  e.scenario = std::move(s);
  return e;
}

std::vector<chaos::Scenario> corpus_scenarios() {
  std::vector<chaos::Scenario> out;
  chaos::Generator base(chaos::GeneratorSpec{}, kCorpusSeed);
  for (std::size_t k = 0; k < kCorpusDefault; ++k) out.push_back(base.next());
  chaos::GeneratorSpec churn_spec;
  churn_spec.elastic_probability = 1.0;
  chaos::Generator churn(churn_spec, kCorpusSeed);
  for (std::size_t k = 0; k < kCorpusChurn; ++k) {
    chaos::Scenario s = churn.next();
    s.name = "churn-" + s.name;
    out.push_back(std::move(s));
  }
  return out;
}

/// One timed phase: whole passes over the inputs until `seconds` elapse.
/// Rates are kept per pass and reported as medians, so a burst of load
/// from elsewhere on the host moves one pass, not the result.
struct Phase {
  std::uint64_t ops = 0;
  std::vector<double> jobs_per_s;
  std::vector<double> rounds_per_s;
  std::vector<double> cpu_ms_per_job;
  TtrWindows ttr;

  void end_pass(const std::vector<double>& ttr_ms, std::uint64_t pass_rounds, double wall_s,
                double cpu_s) {
    const auto pass_ops = static_cast<double>(ttr_ms.size());
    ops += ttr_ms.size();
    jobs_per_s.push_back(pass_ops / wall_s);
    rounds_per_s.push_back(static_cast<double>(pass_rounds) / wall_s);
    cpu_ms_per_job.push_back(1e3 * cpu_s / pass_ops);
    ttr.add_pass(ttr_ms);
  }
};

/// Adds the end-to-end metrics of @p phase.
void report_end_to_end(Report& report, const Phase& phase, double setup_s, double peak_rss_mb) {
  report.add("setup_s", "s", setup_s);
  report.add("jobs_per_s", "1/s", median(phase.jobs_per_s));
  report.add("rounds_per_s", "1/s", median(phase.rounds_per_s));
  report.add("ttr_p50_ms", "ms", phase.ttr.p50());
  report.add("ttr_p90_ms", "ms", phase.ttr.p90());
  report.add("cpu_ms_per_job", "ms", median(phase.cpu_ms_per_job));
  report.add("peak_rss_mb", "MiB", peak_rss_mb);
}

/// Runs whole passes of @p pass until @p seconds elapse.  Untraced runs
/// put every pass in @p plain; traced runs alternate passes between
/// @p plain and @p traced (allocation counting on), so the two halves see
/// the same warm-up and machine load and their difference is the tracing
/// overhead.
///
/// Each pass runs on a fresh thread.  telemetry::Registry keeps a
/// thread-local cache with one entry per registry ever used on the thread
/// and never drops entries, and every replica island is a new registry,
/// so on one thread each pass would run slower than the last and a run's
/// figures would depend on how many passes it fits.
template <typename Pass>
void run_passes(double seconds, Pass&& pass, Phase& plain, Phase* traced) {
  const auto start = Clock::now();
  bool trace_next = false;
  do {
    Phase& phase = trace_next ? *traced : plain;
    set_alloc_counting(trace_next);
    std::thread([&] { pass(phase); }).join();
    set_alloc_counting(false);
    if (traced != nullptr) trace_next = !trace_next;
  } while (seconds_since(start) < seconds || (traced != nullptr && traced->ops == 0));
}

double overhead_pct(const Phase& plain, const Phase& traced) {
  return 100.0 * (traced.ttr.p50() / plain.ttr.p50() - 1.0);
}

redopt::chaos::ScenarioResult replay(const chaos::Scenario& s) {
  // Routed as chaos-replay routes: churn goes through the elastic loop.
  if (s.elastic()) return redopt::elastic::run_elastic(s).result;
  return redopt::chaos::run_scenario(s);
}

}  // namespace

int run_replay_corpus(const Options& options) {
  redopt::runtime::set_threads(1);

  // Set-up: generate the corpus and solve every scenario's x_H.
  std::vector<Entry> corpus;
  std::vector<double> setups;
  for (int rep = 0; rep < 9; ++rep) {
    const auto start = Clock::now();
    corpus.clear();
    for (chaos::Scenario& s : corpus_scenarios()) corpus.push_back(make_entry(std::move(s)));
    setups.push_back(seconds_since(start));
  }
  const std::vector<std::size_t> order =
      redopt::rng::Rng(options.seed).fork("corpus-order").permutation(corpus.size());

  bool correct = true;
  std::string first_error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  if (options.print_failures) {
    // One scenario JSON per line: save a line to a file and run
    // `chaos-replay --scenario FILE` to reproduce the failure.
    for (const Entry& e : corpus) {
      const auto r = replay(e.scenario);
      const Check c = check_outcome(e.scenario, e.oracle, r.estimate, r.initial_distance,
                                    e.reference);
      if (c.verdict != Verdict::kOk) std::cout << e.scenario.to_json() << "\n";
    }
    return 0;
  }

  auto pass = [&](Phase& phase) {
    const Usage before = self_usage();
    const auto start = Clock::now();
    std::uint64_t rounds = 0;
    std::vector<double> ttr_ms;
    for (std::size_t idx : order) {
      const Entry& e = corpus[idx];
      const auto t0 = Clock::now();
      const auto r = replay(e.scenario);
      const Check c =
          check_outcome(e.scenario, e.oracle, r.estimate, r.initial_distance, e.reference);
      ttr_ms.push_back(1e3 * seconds_since(t0));
      ++attempted;
      rounds += e.scenario.rounds;
      // The program's own property checker must flag exactly the
      // scenarios the oracle flags.
      const bool program_ok = redopt::chaos::check_properties(e.scenario, r).ok;
      if (c.verdict == Verdict::kNotConverged && !program_ok) {
        ++failed;
      } else if (c.verdict != Verdict::kOk || !program_ok) {
        correct = false;
        if (first_error.empty()) {
          first_error = c.why.empty() ? e.scenario.name + ": property checker disagrees" : c.why;
        }
      }
    }
    phase.end_pass(ttr_ms, rounds, seconds_since(start), self_usage().cpu_s - before.cpu_s);
  };

  Report report;
  Phase plain;
  if (!options.trace) {
    run_passes(options.seconds, pass, plain, nullptr);
    report_end_to_end(report, plain, median(setups), self_usage().max_rss_mb);
  } else {
    probe_layers(options, report);
    Phase traced;
    run_passes(options.seconds, pass, plain, &traced);
    report.add("trace.overhead_pct", "%", overhead_pct(plain, traced));
  }
  if (!first_error.empty()) std::cerr << "perfbench: " << first_error << "\n";
  report.print(correct, attempted, failed);
  return 0;
}

namespace {

/// A paper-scale socket scenario: n = 4, f = 1, d = 2, CGE, one
/// Byzantine agent; every other one also has a lossy, duplicating,
/// delaying channel (and so sits in the degradation regime).
chaos::Scenario socket_scenario(std::uint64_t seed, std::size_t k) {
  static const char* const kAttacks[] = {"gradient_reverse", "lie", "ipm", "camouflage"};
  redopt::rng::Rng r = redopt::rng::Rng(seed).fork("socket-" + std::to_string(k));
  chaos::Scenario s;
  s.name = "socket-" + std::to_string(k);
  s.problem = k % 2 == 0 ? "mean" : "block_regression";
  s.filter = "cge";
  s.n = 4;
  s.f = 1;
  s.d = 2;
  s.rounds = 40;
  chaos::FaultSpec byz;
  byz.kind = chaos::FaultSpec::Kind::kByzantine;
  byz.agent = static_cast<std::size_t>(r.uniform_int(0, 3));
  byz.from = static_cast<std::size_t>(r.uniform_int(0, 10));
  byz.attack = kAttacks[r.uniform_int(0, 3)];
  byz.attack_param = r.uniform(0.5, 2.0);
  s.faults = {byz};
  if (k % 4 >= 2) {
    s.channel.drop_probability = 0.1;
    s.channel.duplicate_probability = 0.1;
    s.channel.max_delay = 1;
  }
  s.seed = r.next_u64() >> 1;
  s.validate();
  return s;
}

/// Everything deterministic about a session, as bytes: the estimate trace
/// (exact bit patterns), the fault counters, the transport's stable
/// counters and the stable projection of the shipped agent telemetry.
std::string session_bytes(const redopt::transport::ScenarioSession& session) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const Vector& x : session.estimates) {
    for (double v : x) os << v << ",";
    os << ";";
  }
  const auto& r = session.result;
  os << "|" << r.final_distance << "|" << r.max_distance << "|" << r.nonfinite << "|"
     << r.byzantine_replies << "|" << r.crashed_absences << "|" << r.stale_replies << "|"
     << r.dropped_replies << "|" << r.delayed_replies << "|" << r.duplicated_replies << "|"
     << r.superseded_replies << "|" << r.filter_rebuilds << "|" << session.transport.exchanges
     << "|" << session.transport.frames_delivered << "|" << session.transport.bytes_on_wire
     << "|" << session.transport.reduce_rounds << "|"
     << redopt::telemetry::stable_json_projection(redopt::telemetry::render_merged_manifest(
            redopt::telemetry::Snapshot{}, session.agents));
  return os.str();
}

}  // namespace

int run_replay_socket(const Options& options) {
  redopt::runtime::set_threads(1);
  // Run this process, and so every thread and forked agent it starts, on
  // one CPU.  On a host that shares its CPUs with other machines, a socket
  // round spread over 5 processes waits for whichever CPU the host has
  // taken away: with 3-15% steal, unpinned runs made 74-122 sessions/s,
  // pinned ones 87-93/s.  What is measured is then the CPU cost of the
  // socket path (fork, frame codec, syscalls, context switches), not how
  // the host schedules the agents.
  const int cpu = ::sched_getcpu();
  REDOPT_REQUIRE(cpu >= 0, "sched_getcpu failed");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  REDOPT_REQUIRE(::sched_setaffinity(0, sizeof(one), &one) == 0, "sched_setaffinity failed");
  redopt::transport::SessionOptions socket;
  socket.backend = redopt::transport::BackendKind::kSocket;
  socket.topology = redopt::transport::Topology::kStar;
  redopt::transport::SessionOptions inproc;

  // Set-up: generate the scenarios, solve their x_H, and start (fork)
  // and stop one socket transport of the workload's size.
  std::vector<Entry> pool;
  std::vector<double> setups;
  for (int rep = 0; rep < 9; ++rep) {
    const auto start = Clock::now();
    pool.clear();
    for (std::size_t k = 0; k < kSocketPool; ++k) {
      pool.push_back(make_entry(socket_scenario(options.seed, k)));
    }
    {
      auto transport = redopt::transport::make_transport(
          socket, 4, [](std::size_t, std::size_t, const Vector&) {
            return std::vector<redopt::util::Frame>{};
          });
    }
    setups.push_back(seconds_since(start));
  }
  // The property every socket session must meet: byte-identical to the
  // same scenario on the in-process backend.
  std::vector<std::string> expected;
  for (const Entry& e : pool) {
    expected.push_back(session_bytes(redopt::transport::run_scenario_transport(e.scenario, inproc)));
  }

  bool correct = true;
  std::string first_error;
  std::uint64_t attempted = 0;
  auto fail = [&](const std::string& why) {
    correct = false;
    if (first_error.empty()) first_error = why;
  };

  auto pass = [&](Phase& phase) {
    const Usage self_before = self_usage();
    const Usage children_before = children_usage();
    const auto start = Clock::now();
    std::uint64_t rounds = 0;
    std::vector<double> ttr_ms;
    for (std::size_t k = 0; k < pool.size(); ++k) {
      const Entry& e = pool[k];
      const auto t0 = Clock::now();
      const auto session = redopt::transport::run_scenario_transport(e.scenario, socket);
      const Check c = check_outcome(e.scenario, e.oracle, session.result.estimate,
                                    session.result.initial_distance, e.reference);
      const bool same = session_bytes(session) == expected[k];
      ttr_ms.push_back(1e3 * seconds_since(t0));
      ++attempted;
      rounds += e.scenario.rounds;
      if (c.verdict != Verdict::kOk) fail(c.why);
      if (!same) fail(e.scenario.name + ": socket session differs from the inproc session");
      if (!session.attribution.ok()) fail(e.scenario.name + ": attribution does not reconcile");
    }
    phase.end_pass(ttr_ms, rounds, seconds_since(start),
                   (self_usage().cpu_s - self_before.cpu_s) +
                       (children_usage().cpu_s - children_before.cpu_s));
  };

  Report report;
  Phase plain;
  if (!options.trace) {
    run_passes(options.seconds, pass, plain, nullptr);
    report_end_to_end(report, plain, median(setups),
                      std::max(self_usage().max_rss_mb, children_usage().max_rss_mb));
  } else {
    probe_layers(options, report);
    Phase traced;
    run_passes(options.seconds, pass, plain, &traced);
    report.add("trace.overhead_pct", "%", overhead_pct(plain, traced));
  }
  if (!first_error.empty()) std::cerr << "perfbench: " << first_error << "\n";
  report.print(correct, attempted, 0);
  return 0;
}

}  // namespace perfbench
