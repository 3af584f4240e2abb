// Per-layer probes: each metric times or counts calls into one layer's
// public functions at the workload's shape.  Timings are medians of
// repeated calls.  Counts (allocations, bytes, files, frames) repeat run
// to run, because the probe shapes do not depend on --seed; the one
// exception, elastic.allocs_per_round, is explained in README.md.
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "chaos/executor.h"
#include "core/batch_gradient.h"
#include "elastic/session.h"
#include "filters/registry.h"
#include "rng/rng.h"
#include "runtime/runtime.h"
#include "serving/checkpoint.h"
#include "serving/client.h"
#include "serving/daemon.h"
#include "serving/runner.h"
#include "serving/scheduler.h"
#include "telemetry/metrics.h"
#include "telemetry/ship.h"
#include "transport/session.h"
#include "util/error.h"
#include "util/frame.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using redopt::linalg::Vector;

/// Median per-call microseconds of @p fn: calls are batched so one sample
/// lasts at least 50 us, and samples are taken until @p min_samples exist
/// and @p budget_s has passed (at most 31).
template <typename F>
double per_call_us(F&& fn, std::size_t min_samples = 7, double budget_s = 0.1) {
  fn();  // warm-up
  std::size_t batch = 1;
  while (batch < (1u << 20)) {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < batch; ++b) fn();
    if (seconds_since(t0) >= 50e-6) break;
    batch *= 4;
  }
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < min_samples || (samples.size() < 31 && seconds_since(start) < budget_s)) {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < batch; ++b) fn();
    samples.push_back(1e6 * seconds_since(t0) / static_cast<double>(batch));
  }
  return median(samples);
}

/// Allocations made by one call of @p fn.
template <typename F>
double allocations_of(F&& fn) {
  set_alloc_counting(true);
  const std::uint64_t before = alloc_count();
  fn();
  const std::uint64_t after = alloc_count();
  set_alloc_counting(false);
  return static_cast<double>(after - before);
}

/// @p job with its round count replaced (fault windows start early, so
/// both lengths stay valid).
chaos::Scenario with_rounds(chaos::Scenario job, std::size_t rounds) {
  job.rounds = rounds;
  job.validate();
  return job;
}

/// @p job plus one leave/rejoin of its last agent (fault-free in every
/// probe shape), so it runs through the elastic loop.
chaos::Scenario churned(chaos::Scenario job) {
  chaos::MembershipEvent leave;
  leave.kind = chaos::MembershipEvent::Kind::kLeave;
  leave.agent = job.n - 1;
  leave.round = 5;
  chaos::MembershipEvent join = leave;
  join.kind = chaos::MembershipEvent::Kind::kJoin;
  join.round = 15;
  job.membership = {leave, join};
  job.validate();
  return job;
}

/// Steady-state allocations and microseconds per round of @p run: the
/// difference between a 2R-round and an R-round execution, so fixed
/// set-up cost cancels.
template <typename Run>
double allocs_per_round(const chaos::Scenario& job, Run&& run) {
  const std::size_t r = job.rounds / 2;
  const chaos::Scenario short_job = with_rounds(job, r);
  const chaos::Scenario long_job = with_rounds(job, 2 * r);
  run(long_job);  // warm-up: first-use registrations are not per-round work
  return (allocations_of([&] { run(long_job); }) - allocations_of([&] { run(short_job); })) /
         static_cast<double>(r);
}

template <typename Run>
double us_per_round(const chaos::Scenario& job, Run&& run) {
  const std::size_t r = job.rounds / 2;
  const chaos::Scenario short_job = with_rounds(job, r);
  const chaos::Scenario long_job = with_rounds(job, 2 * r);
  const double t_short = per_call_us([&] { run(short_job); }, 3, 0.05);
  const double t_long = per_call_us([&] { run(long_job); }, 3, 0.05);
  return std::max(0.0, t_long - t_short) / static_cast<double>(r);
}

redopt::serving::JobSpec job_spec(const chaos::Scenario& s, const std::string& id) {
  redopt::serving::JobSpec spec;
  spec.job_id = id;
  spec.scenario = s;
  return spec;
}

std::size_t rounds_done(const redopt::serving::Scheduler& scheduler) {
  std::size_t total = 0;
  for (const auto& status : scheduler.list()) total += status.rounds_done;
  return total;
}

/// A checkpoint cut after the first slice (straggler history and
/// in-flight replies populated).
redopt::serving::JobCheckpoint mid_run_checkpoint(
    const chaos::Scenario& job, const redopt::serving::SchedulerOptions& options) {
  redopt::serving::Scheduler scheduler(options);
  scheduler.submit(job_spec(job, "ckpt"));
  scheduler.step({});
  return *scheduler.checkpoint("ckpt");
}

/// A live redoptd at the workload's shape: status round trips, and
/// resident memory kept per finished job.
void probe_daemon(const Options& options, const chaos::Scenario& job, std::size_t lanes,
                  Report& report) {
  const std::string dir = options.run_dir + "/daemon-probe";
  fs::remove_all(dir);
  fs::create_directories(dir + "/state");
  const std::string socket = dir + "/d.sock";
  DaemonProcess daemon(options.redoptd, socket, dir + "/state", lanes, dir + "/redoptd.log");
  redopt::serving::Client client(socket, 30000, 30000);
  client.list();
  const double rss_start = rss_kib(daemon.pid());
  const std::size_t jobs = 40;
  std::vector<double> request_ms;
  for (std::size_t k = 0; k < jobs; ++k) {
    const std::string id = "p" + std::to_string(k);
    client.submit(job_spec(job, id));
    while (true) {
      const auto t0 = Clock::now();
      const std::string status = client.status(id);
      request_ms.push_back(1e3 * seconds_since(t0));
      if (redopt::util::json_parse(status).at("state").as_string() == "done") break;
    }
    client.result(id);
  }
  const double rss_end = rss_kib(daemon.pid());
  client.shutdown_daemon();
  daemon.wait_exit();
  fs::remove_all(dir);
  report.add("serving.request_ms", "ms", median(request_ms));
  report.add("serving.retained_kib_per_job", "KiB",
             (rss_end - rss_start) / static_cast<double>(jobs));
}

/// Files the daemon writes per job: an in-process Daemon runs @p jobs
/// jobs while inotify counts the files renamed into its state dir.
double files_written_per_job(const chaos::Scenario& job, const std::string& dir,
                             std::size_t jobs) {
  fs::remove_all(dir);
  fs::create_directories(dir + "/state");
  redopt::serving::DaemonOptions options;
  options.socket_path = dir + "/probe.sock";
  options.state_dir = dir + "/state";
  options.scheduler.max_jobs = jobs;
  redopt::serving::Daemon daemon(options);
  const int fd = inotify_init1(IN_NONBLOCK);
  REDOPT_REQUIRE(fd >= 0, "inotify_init1 failed");
  REDOPT_REQUIRE(inotify_add_watch(fd, options.state_dir.c_str(), IN_MOVED_TO) >= 0,
                 "inotify_add_watch failed");
  std::uint64_t files = 0;
  auto drain = [&] {
    alignas(inotify_event) char buffer[1 << 16];
    while (true) {
      const ssize_t got = ::read(fd, buffer, sizeof(buffer));
      if (got <= 0) break;
      for (ssize_t at = 0; at < got;) {
        const auto* event = reinterpret_cast<const inotify_event*>(buffer + at);
        ++files;
        at += static_cast<ssize_t>(sizeof(inotify_event) + event->len);
      }
    }
  };
  for (std::size_t k = 0; k < jobs; ++k) {
    const std::string response = daemon.handle_request(
        "{\"op\":\"submit\",\"job\":" + job_spec(job, "probe-" + std::to_string(k)).to_json() +
        "}");
    REDOPT_REQUIRE(redopt::util::json_parse(response).at("ok").as_bool(),
                   "probe submit rejected: " + response);
    drain();
  }
  while (!daemon.scheduler().idle()) {
    daemon.poll_once();
    drain();
  }
  drain();
  ::close(fd);
  fs::remove_all(dir);
  return static_cast<double>(files) / static_cast<double>(jobs);
}

/// serving.step_us.after_run: Scheduler::step on a scheduler holding
/// kFinishedJobs finished jobs (tiny one-round jobs, since only the size
/// of the table it scans matters).  The size is fixed, so the figure does
/// not depend on how many jobs a run completed.
void probe_step_after_run(Report& report) {
  constexpr std::size_t kFinishedJobs = 5000;
  chaos::Scenario tiny;
  tiny.name = "tiny";
  tiny.problem = "mean";
  tiny.n = 4;
  tiny.f = 1;
  tiny.d = 1;
  tiny.rounds = 1;
  redopt::serving::SchedulerOptions options;
  options.max_jobs = 1 << 16;
  redopt::serving::Scheduler full(options);
  for (std::size_t k = 0; k < kFinishedJobs; ++k) {
    full.submit(job_spec(tiny, "t" + std::to_string(k)));
    while (!full.idle()) full.step({});
  }
  report.add("serving.step_us.after_run", "us", per_call_us([&] { full.step({}); }));
}

/// telemetry.inc_us.fresh and .after_islands: Counter::inc on the first
/// registry a thread records into, and on one created after the thread
/// has recorded into kIslands short-lived registries, as it does when it
/// builds replica islands or job manifests.  Runs on a fresh thread, so
/// what ran before on this one does not count.
void probe_registry(Report& report) {
  constexpr std::size_t kIslands = 5000;
  std::thread([&] {
    {
      redopt::telemetry::Registry first;
      const redopt::telemetry::Counter counter = first.counter("probe");
      report.add("telemetry.inc_us.fresh", "us", per_call_us([&] { counter.inc(); }));
    }
    for (std::size_t k = 0; k < kIslands; ++k) {
      redopt::telemetry::Registry island;
      island.counter("probe").inc();
    }
    redopt::telemetry::Registry later;
    const redopt::telemetry::Counter counter = later.counter("probe");
    report.add("telemetry.inc_us.after_islands", "us", per_call_us([&] { counter.inc(); }));
  }).join();
}

/// The shape a workload's probes run at: its representative job (fixed,
/// so exact counts repeat across seeds), the runtime lane count, and how
/// many jobs the scheduler stacks together.
struct ProbeShape {
  chaos::Scenario job;
  std::size_t lanes = 1;
  std::size_t live_jobs = 1;
  bool daemon_probe = true;  ///< measure serving.request_ms / retained_kib_per_job here
};

ProbeShape probe_shape(const std::string& workload) {
  ProbeShape shape;
  chaos::Scenario& s = shape.job;
  s.name = "probe-" + workload;
  s.seed = 20260;
  chaos::FaultSpec byz;
  byz.kind = chaos::FaultSpec::Kind::kByzantine;
  byz.agent = 1;
  byz.from = 2;
  byz.attack = "gradient_reverse";
  byz.attack_param = 1.5;
  chaos::FaultSpec straggler;
  straggler.kind = chaos::FaultSpec::Kind::kStraggler;
  straggler.agent = 2;
  straggler.from = 2;
  straggler.staleness = 2;
  if (workload == "serve-wide") {
    s.problem = "block_regression";
    s.n = 16;
    s.f = 3;
    s.d = 64;
    s.rounds = 64;
    s.faults = {byz};
    shape.lanes = 2;
    shape.live_jobs = 4;
    shape.daemon_probe = false;
  } else if (workload == "replay-socket") {
    s.problem = "mean";
    s.n = 4;
    s.f = 1;
    s.d = 2;
    s.rounds = 40;
    s.faults = {byz};
    s.channel.drop_probability = 0.1;
    s.channel.duplicate_probability = 0.1;
    s.channel.max_delay = 1;
  } else {  // replay-corpus: a typical generated scenario
    s.problem = "block_regression";
    s.n = 10;
    s.f = 2;
    s.d = 2;
    s.rounds = 80;
    s.faults = {byz, straggler};
    s.channel.duplicate_probability = 0.1;
    s.channel.max_delay = 1;
  }
  s.filter = "cge";
  s.validate();
  return shape;
}

}  // namespace

void probe_layers(const Options& options, Report& report) {
  const ProbeShape shape = probe_shape(options.workload);
  const chaos::Scenario& job = shape.job;
  const std::size_t n = job.n;
  const std::size_t d = job.d;
  const chaos::Scenario elastic_job = churned(job);
  auto run_chaos = [](const chaos::Scenario& s) { redopt::chaos::run_scenario(s); };
  auto run_elastic = [](const chaos::Scenario& s) { redopt::elastic::run_elastic(s); };
  fs::create_directories(options.run_dir);

  // ---- Exact work counts, first and at one lane: the process is in the
  // same state in every run here (allocation counts depend on what ran
  // before, e.g. on how far process-wide caches have grown). ----
  redopt::runtime::set_threads(1);
  report.add("chaos.allocs_per_round", "count", allocs_per_round(job, run_chaos));
  report.add("elastic.allocs_per_round", "count", allocs_per_round(elastic_job, run_elastic));
  redopt::serving::SchedulerOptions scheduler_options;
  scheduler_options.max_jobs = 1 << 16;
  {
    redopt::serving::Scheduler scheduler(scheduler_options);
    for (std::size_t k = 0; k < shape.live_jobs; ++k) {
      scheduler.submit(job_spec(job, "j" + std::to_string(k)));
    }
    double allocations = 0.0;
    std::size_t rounds = 0;
    while (!scheduler.idle()) {
      const std::size_t before = rounds_done(scheduler);
      allocations += allocations_of([&] { scheduler.step({}); });
      rounds += rounds_done(scheduler) - before;
    }
    report.add("serving.slice_allocs_per_round", "count", allocations / static_cast<double>(rounds));
  }
  const redopt::serving::JobCheckpoint ck = mid_run_checkpoint(job, scheduler_options);
  const std::string ck_bytes = ck.to_json();
  report.add("serving.ckpt_bytes", "B", static_cast<double>(ck_bytes.size()));
  report.add("serving.ckpt_allocs", "count", allocations_of([&] {
        redopt::serving::checkpoint_from_json(ck.to_json());
      }));
  report.add("serving.files_written_per_job", "count",
      files_written_per_job(job, options.run_dir + "/files-probe", 2));
  redopt::transport::SessionOptions socket;
  socket.backend = redopt::transport::BackendKind::kSocket;
  {
    const auto stats = redopt::transport::run_scenario_transport(job, socket).transport;
    report.add("transport.frames_per_round", "count",
        static_cast<double>(stats.frames_delivered) / static_cast<double>(stats.exchanges));
    report.add("transport.bytes_per_round", "B",
        static_cast<double>(stats.bytes_on_wire) / static_cast<double>(stats.exchanges));
  }

  // ---- Timings, at the workload's lane count. ----
  redopt::runtime::set_threads(shape.lanes);
  report.add("chaos.round_us", "us", us_per_round(job, run_chaos));
  report.add("elastic.round_us", "us", us_per_round(elastic_job, run_elastic));
  report.add("chaos.materialize_ms", "ms",
      1e-3 * per_call_us([&] { redopt::chaos::materialize_scenario(job); }, 5, 0.2));

  // Filters: one apply at (n, f, d).
  std::vector<Vector> gradients;
  redopt::rng::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) gradients.emplace_back(rng.gaussian_vector(d));
  for (const char* name : {"cge", "cwtm", "krum"}) {
    redopt::filters::FilterParams params;
    params.n = n;
    params.f = job.f;
    const auto filter = redopt::filters::make_filter(name, params);
    report.add(std::string("filters.") + name + "_us", "us",
        per_call_us([&] { filter->apply(gradients); }));
  }

  // Core: every agent's gradient for one round, and cross-job stacking.
  const chaos::MaterializedScenario built = redopt::chaos::materialize_scenario(job);
  const Vector x(d, 0.25);
  if (auto evaluator = redopt::core::BatchGradientEvaluator::try_create(built.problem.costs)) {
    std::vector<Vector> out;
    report.add("core.gradient_us", "us", per_call_us([&] { evaluator->evaluate_all(x, out); }));
  } else {
    report.add("core.gradient_us", "us", per_call_us([&] {
          for (const auto& cost : built.problem.costs) cost->gradient(x);
        }));
  }
  std::vector<std::vector<redopt::core::CostPtr>> groups;
  for (std::size_t g = 0; g < shape.live_jobs; ++g) {
    chaos::Scenario variant = job;
    variant.seed += g;
    groups.push_back(redopt::chaos::materialize_scenario(variant).problem.costs);
  }
  report.add("core.restack_ms", "ms",
      1e-3 * per_call_us([&] { redopt::core::BatchGradientEvaluator::try_create_grouped(groups); },
                         5, 0.1));

  // Runtime: fan-out over n agents.
  std::vector<double> slots(n);
  report.add("runtime.fanout_us", "us", per_call_us([&] {
        redopt::runtime::parallel_for(0, n, [&](std::size_t i) { slots[i] = 0.5 * i; });
      }));

  // Serving: admission, slices, codec, persistence, manifest.
  std::size_t submitted = 0;
  report.add("serving.submit_us", "us", per_call_us(
                                     [&] {
                                       redopt::serving::Scheduler scheduler(scheduler_options);
                                       scheduler.submit(
                                           job_spec(job, "s" + std::to_string(submitted++)));
                                     },
                                     5, 0.1));
  {
    redopt::serving::Scheduler scheduler(scheduler_options);
    for (std::size_t k = 0; k < shape.live_jobs; ++k) {
      scheduler.submit(job_spec(job, "t" + std::to_string(k)));
    }
    std::vector<double> slice_us;
    while (!scheduler.idle()) {
      const auto t0 = Clock::now();
      scheduler.step({});
      slice_us.push_back(1e6 * seconds_since(t0));
    }
    report.add("serving.slice_us", "us", median(slice_us));
  }
  {
    redopt::serving::Scheduler empty(scheduler_options);
    report.add("serving.step_us.fresh", "us", per_call_us([&] { empty.step({}); }));
  }
  probe_step_after_run(report);
  report.add("serving.ckpt_encode_us", "us", per_call_us([&] { ck.to_json(); }));
  report.add("serving.ckpt_decode_us", "us",
      per_call_us([&] { redopt::serving::checkpoint_from_json(ck_bytes); }));
  {
    const std::string path = options.run_dir + "/probe.ckpt.json";
    report.add("serving.persist_us", "us",
        per_call_us([&] { redopt::serving::atomic_write_file(path, ck_bytes); }, 7, 0.1));
    fs::remove(path);
  }
  {
    redopt::serving::Scheduler scheduler(scheduler_options);
    scheduler.submit(job_spec(job, "m"));
    while (!scheduler.idle()) scheduler.step({});
    const auto* done = scheduler.finished_checkpoint("m");
    const auto* done_built = scheduler.built("m");
    report.add("serving.manifest_us", "us", per_call_us([&] {
          redopt::telemetry::stable_json_projection(
              redopt::serving::job_manifest_json(*done, *done_built, 0.0));
        }));
  }
  if (shape.daemon_probe) probe_daemon(options, job, shape.lanes, report);

  // Transport: socket sessions, star topology.
  {
    const std::size_t r = job.rounds / 2;
    std::vector<double> t_short;
    std::vector<double> t_long;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      redopt::transport::run_scenario_transport(with_rounds(job, r), socket);
      t_short.push_back(1e6 * seconds_since(t0));
      t0 = Clock::now();
      redopt::transport::run_scenario_transport(with_rounds(job, 2 * r), socket);
      t_long.push_back(1e6 * seconds_since(t0));
    }
    report.add("transport.round_us", "us",
        std::max(0.0, median(t_long) - median(t_short)) / static_cast<double>(r));
    std::vector<double> starts;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      auto transport = redopt::transport::make_transport(
          socket, n, [](std::size_t, std::size_t, const Vector&) {
            return std::vector<redopt::util::Frame>{};
          });
      starts.push_back(1e3 * seconds_since(t0));
    }
    report.add("transport.session_start_ms", "ms", median(starts));
  }
  {
    redopt::util::Frame frame;
    frame.agent = 1;
    frame.round = 3;
    frame.emitted = 3;
    frame.payload = rng.gaussian_vector(d);
    report.add("util.frame_us", "us", per_call_us([&] {
          redopt::util::decode_frame(redopt::util::encode_frame(frame));
        }));
  }
  probe_registry(report);
  redopt::runtime::set_threads(1);
}

}  // namespace perfbench
