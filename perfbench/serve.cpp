// serve-wide: the real `redoptd --serve` as a child process, driven by a
// closed loop of client threads.
//
// The timed phase is a sequence of whole episodes.  Each episode copies a
// state dir of in-flight checkpoints, starts a daemon over it (which
// recovers them), runs a fixed number of client jobs to their results,
// fetches the recovered jobs' results, and shuts the daemon down.  A
// fixed episode keeps a daemon's job table (which never shrinks) the
// same size in every run, so throughput does not depend on how long the
// run was.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "rng/rng.h"
#include "runtime/runtime.h"
#include "serving/client.h"
#include "serving/daemon.h"
#include "serving/runner.h"
#include "serving/scheduler.h"
#include "telemetry/ship.h"
#include "util/error.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using redopt::linalg::Vector;
using redopt::serving::JobSpec;

/// serve-wide: a 2-lane daemon; each episode recovers kRecovered in-flight
/// checkpoints, then kClients clients each run kJobsPerClient jobs with
/// kInFlight submitted at a time, cycling a pool of kPool job scenarios.
constexpr std::size_t kLanes = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kInFlight = 2;
constexpr std::size_t kJobsPerClient = 8;
constexpr std::size_t kRecovered = 2;
constexpr std::size_t kPool = 6;
/// Pause after a status sweep that found no job done.
constexpr std::chrono::microseconds kPollInterval{1000};

/// A wide job: block regression n = 16, f = 3, d in {64, 96}, CGE,
/// 100 rounds, two or three Byzantine agents from the start.
chaos::Scenario wide_job(std::uint64_t seed, std::size_t k) {
  static const char* const kAttacks[] = {"gradient_reverse", "lie", "ipm", "large_norm"};
  redopt::rng::Rng r = redopt::rng::Rng(seed).fork("wide-" + std::to_string(k));
  chaos::Scenario s;
  s.name = "wide-" + std::to_string(k);
  s.problem = "block_regression";
  s.filter = "cge";
  s.n = 16;
  s.f = 3;
  s.d = k % 2 == 0 ? 64 : 96;
  s.rounds = 100;
  const auto agents = r.subset(s.n, static_cast<std::size_t>(r.uniform_int(2, 3)));
  for (std::size_t agent : agents) {
    chaos::FaultSpec byz;
    byz.kind = chaos::FaultSpec::Kind::kByzantine;
    byz.agent = agent;
    byz.from = 0;
    byz.attack = kAttacks[r.uniform_int(0, 3)];
    byz.attack_param = byz.attack == "large_norm" ? 1e4 : r.uniform(0.5, 2.0);
    s.faults.push_back(byz);
  }
  s.seed = r.next_u64() >> 1;
  s.validate();
  return s;
}

/// Runs @p spec to completion in process (no interruption) and returns
/// the stable projection of its final manifest, plus the instance.
std::string uninterrupted_manifest(const JobSpec& spec, chaos::MaterializedScenario* built_out) {
  redopt::serving::SchedulerOptions options;
  redopt::serving::Scheduler scheduler(options);
  const std::string reason = scheduler.submit(spec);
  REDOPT_REQUIRE(reason.empty(), "in-process submit rejected: " + reason);
  while (!scheduler.idle()) scheduler.step({});
  const auto* ck = scheduler.finished_checkpoint(spec.job_id);
  const auto* built = scheduler.built(spec.job_id);
  if (built_out != nullptr) *built_out = *built;
  return redopt::telemetry::stable_json_projection(
      redopt::serving::job_manifest_json(*ck, *built, 0.0));
}

/// The manifest bytes inside a `result` response, or "" when malformed.
std::string manifest_of(const std::string& response, const std::string& job_id) {
  const std::string prefix = "{\"ok\":true,\"job\":\"" + job_id + "\",\"manifest\":";
  if (response.size() < prefix.size() + 1 || response.compare(0, prefix.size(), prefix) != 0 ||
      response.back() != '}') {
    return "";
  }
  return response.substr(prefix.size(), response.size() - prefix.size() - 1);
}

/// Expected manifest of pool job @p expected (rendered under id "pool")
/// re-labelled with @p job_id.
std::string relabel(const std::string& expected, const std::string& job_id) {
  const std::string from = "{\"job\":\"pool\",";
  return "{\"job\":\"" + job_id + "\"," + expected.substr(from.size());
}

bool is_done(const std::string& status_response) {
  const redopt::util::JsonValue doc = redopt::util::json_parse(status_response);
  REDOPT_REQUIRE(doc.at("ok").as_bool(), "status failed: " + status_response);
  return doc.at("state").as_string() == "done";
}

/// Per-episode samples; the report takes medians of the per-episode rates
/// and percentiles.  An episode's ttr p90 is set by the few jobs admitted
/// first, next to the recovered ones, and those move most with load
/// elsewhere on the host, so each episode is its own window: a burst of
/// load moves a few of the run's episodes (about one a second), not the
/// median across them.
struct Totals {
  TtrWindows ttr{1};
  std::vector<double> request_ms;
  std::vector<double> setup_s;
  std::vector<double> jobs_per_s;
  std::vector<double> cpu_ms_per_job;
  std::vector<double> peak_rss_mb;
  std::vector<double> retained_kib_per_job;
  std::uint64_t attempted = 0;
};

}  // namespace

int run_serve_wide(const Options& options) {
  // The in-process reference runs need no parallelism (results are
  // identical at every lane count); keep the load process small.
  redopt::runtime::set_threads(1);

  // ---- Inputs (not timed): the job pool, the in-flight checkpoints the
  // daemon recovers, and the expected manifest of every job. ----
  std::vector<JobSpec> pool(kPool);
  std::vector<std::string> expected(kPool);
  bool correct = true;
  std::string first_error;
  std::mutex error_mutex;
  auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(error_mutex);
    correct = false;
    if (first_error.empty()) first_error = why;
  };
  for (std::size_t k = 0; k < kPool; ++k) {
    pool[k].job_id = "pool";
    pool[k].scenario = wide_job(options.seed, k);
    chaos::MaterializedScenario built;
    expected[k] = uninterrupted_manifest(pool[k], &built);
    // Oracle check on the uninterrupted result; every daemon result must
    // equal it byte for byte, so the check covers them all.
    const redopt::util::JsonValue manifest = redopt::util::json_parse(expected[k]);
    const auto& result = manifest.at("result");
    Vector estimate;
    for (const auto& v : result.at("estimate").as_array()) estimate.data().push_back(v.as_number());
    const Check c = check_outcome(pool[k].scenario,
                                  solve_honest_argmin(pool[k].scenario, built.problem), estimate,
                                  result.at("initial_distance").as_number(), built.reference);
    if (c.verdict != Verdict::kOk) fail(c.why);
  }

  std::vector<JobSpec> recovered(kRecovered);
  std::vector<std::string> recovered_ckpt(kRecovered);
  std::vector<std::string> recovered_expected(kRecovered);
  {
    redopt::serving::Scheduler scheduler(redopt::serving::SchedulerOptions{});
    for (std::size_t k = 0; k < kRecovered; ++k) {
      recovered[k].job_id = "rec-" + std::to_string(k);
      recovered[k].scenario = wide_job(options.seed ^ 0x5eedULL, 1000 + k);
      REDOPT_REQUIRE(scheduler.submit(recovered[k]).empty(), "recovered job rejected");
    }
    // One slice each: every job is in flight, none finished.
    for (std::size_t k = 0; k < kRecovered; ++k) scheduler.step({});
    for (std::size_t k = 0; k < kRecovered; ++k) {
      recovered_ckpt[k] = scheduler.checkpoint(recovered[k].job_id)->to_json();
      recovered_expected[k] = uninterrupted_manifest(recovered[k], nullptr);
    }
  }

  const std::string root = options.run_dir;
  fs::create_directories(root);
  const std::string log = root + "/redoptd.log";

  // ---- One episode. ----
  auto run_episode = [&](std::size_t episode, Totals& totals) {
    const std::string dir = root + "/ep" + std::to_string(episode);
    const std::string state = dir + "/state";
    const std::string socket = dir + "/d.sock";
    fs::remove_all(dir);

    const auto setup_start = Clock::now();
    fs::create_directories(state);
    for (std::size_t k = 0; k < kRecovered; ++k) {
      std::ofstream out(state + "/" + recovered[k].job_id + ".ckpt.json", std::ios::binary);
      out << recovered_ckpt[k];
    }
    DaemonProcess daemon(options.redoptd, socket, state, kLanes, log);
    {
      redopt::serving::Client probe(socket, 30000, 30000);
      const std::string listed = probe.list();
      REDOPT_REQUIRE(redopt::util::json_parse(listed).at("ok").as_bool(), "list failed");
    }
    totals.setup_s.push_back(seconds_since(setup_start));
    const double rss_start = options.trace ? rss_kib(daemon.pid()) : 0.0;

    // Closed loop: each client keeps kInFlight jobs submitted, polls
    // their status and fetches each result as soon as it is done.
    std::vector<std::vector<double>> ttr(kClients);
    std::vector<std::vector<double>> requests(kClients);
    std::vector<std::thread> threads;
    const auto serve_start = Clock::now();
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          redopt::serving::Client client(socket, 30000, 30000);
          struct Flight {
            std::string id;
            std::size_t pool = 0;
            Clock::time_point submitted;
          };
          std::vector<Flight> flights;
          std::size_t submitted = 0;
          auto submit_next = [&] {
            Flight f;
            f.id = "c" + std::to_string(c) + "-j" + std::to_string(submitted);
            f.pool = (c + kClients * submitted + episode) % kPool;
            JobSpec spec = pool[f.pool];
            spec.job_id = f.id;
            f.submitted = Clock::now();
            const std::string response = client.submit(spec);
            REDOPT_REQUIRE(redopt::util::json_parse(response).at("ok").as_bool(),
                           "submit rejected: " + response);
            flights.push_back(std::move(f));
            ++submitted;
          };
          while (submitted < kInFlight && submitted < kJobsPerClient) {
            submit_next();
          }
          while (!flights.empty()) {
            bool finished_any = false;
            for (std::size_t i = 0; i < flights.size();) {
              const auto t0 = Clock::now();
              const std::string status = client.status(flights[i].id);
              requests[c].push_back(1e3 * seconds_since(t0));
              if (!is_done(status)) {
                ++i;
                continue;
              }
              const std::string manifest = manifest_of(client.result(flights[i].id), flights[i].id);
              if (manifest != relabel(expected[flights[i].pool], flights[i].id)) {
                fail(flights[i].id + ": daemon manifest differs from the in-process run");
              }
              ttr[c].push_back(1e3 * seconds_since(flights[i].submitted));
              flights.erase(flights.begin() + static_cast<std::ptrdiff_t>(i));
              finished_any = true;
              if (submitted < kJobsPerClient) submit_next();
            }
            // Paced polling: a client that found nothing done waits a
            // little, so status requests do not crowd out the slices.
            if (!finished_any) std::this_thread::sleep_for(kPollInterval);
          }
        } catch (const std::exception& e) {
          fail(std::string("client: ") + e.what());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double serve_s = seconds_since(serve_start);

    // The recovered jobs must end exactly as an uninterrupted run does.
    redopt::serving::Client client(socket, 30000, 30000);
    for (std::size_t k = 0; k < kRecovered; ++k) {
      const std::string& id = recovered[k].job_id;
      while (!is_done(client.status(id))) {
      }
      if (manifest_of(client.result(id), id) != recovered_expected[k]) {
        fail(id + ": recovered manifest differs from the uninterrupted run");
      }
    }
    const std::uint64_t jobs = kClients * kJobsPerClient;
    if (options.trace) {
      totals.retained_kib_per_job.push_back((rss_kib(daemon.pid()) - rss_start) /
                                            static_cast<double>(jobs));
    }
    client.shutdown_daemon();
    const Usage usage = daemon.wait_exit();
    fs::remove_all(dir);

    totals.jobs_per_s.push_back(static_cast<double>(jobs) / serve_s);
    totals.cpu_ms_per_job.push_back(1e3 * usage.cpu_s / static_cast<double>(jobs));
    totals.peak_rss_mb.push_back(usage.max_rss_mb);
    totals.attempted += jobs + kRecovered;
    std::vector<double> episode_ttr;
    for (std::size_t c = 0; c < kClients; ++c) {
      episode_ttr.insert(episode_ttr.end(), ttr[c].begin(), ttr[c].end());
      totals.request_ms.insert(totals.request_ms.end(), requests[c].begin(), requests[c].end());
    }
    totals.ttr.add_pass(episode_ttr);
  };

  Report report;
  if (options.trace) probe_layers(options, report);

  // Whole episodes until the time is up; traced runs alternate episodes
  // between plain and traced (allocation counting on) halves.
  Totals plain;
  Totals traced;
  std::size_t episode = 0;
  const auto start = Clock::now();
  do {
    const bool trace_this = options.trace && episode % 2 == 1;
    set_alloc_counting(trace_this);
    run_episode(episode, trace_this ? traced : plain);
    set_alloc_counting(false);
    ++episode;
  } while (seconds_since(start) < options.seconds || (options.trace && episode < 2));

  const std::uint64_t attempted = plain.attempted + traced.attempted;
  if (!options.trace) {
    report.add("setup_s", "s", median(plain.setup_s));
    // Every pool job has the same round count.
    const double jobs_per_s = median(plain.jobs_per_s);
    report.add("jobs_per_s", "1/s", jobs_per_s);
    report.add("rounds_per_s", "1/s", jobs_per_s * static_cast<double>(pool[0].scenario.rounds));
    report.add("ttr_p50_ms", "ms", plain.ttr.p50());
    report.add("ttr_p90_ms", "ms", plain.ttr.p90());
    report.add("cpu_ms_per_job", "ms", median(plain.cpu_ms_per_job));
    report.add("peak_rss_mb", "MiB", median(plain.peak_rss_mb));
  } else {
    report.add("trace.overhead_pct", "%",
               100.0 * (traced.ttr.p50() / plain.ttr.p50() - 1.0));
    report.add("serving.request_ms", "ms", median(traced.request_ms));
    report.add("serving.retained_kib_per_job", "KiB", median(traced.retained_kib_per_job));
  }
  if (!first_error.empty()) std::cerr << "perfbench: " << first_error << "\n";
  report.print(correct, attempted, 0);
  return 0;
}

}  // namespace perfbench
