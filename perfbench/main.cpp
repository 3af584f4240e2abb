// perfbench: the redopt benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --redoptd PATH
//             [--run-dir DIR] [--print-failures]
//
// Workloads: replay-corpus, serve-wide, replay-socket (see
// README.md).  The last stdout line is the JSON result; --trace 1 swaps
// the end-to-end metrics for the per-layer ones.  --print-failures (with
// replay-corpus) prints each corpus scenario that fails its check as one
// JSON line that `chaos-replay --scenario FILE` replays.
#include <filesystem>
#include <iostream>

#include "util/cli.h"
#include "util/error.h"
#include "workloads.h"

namespace {

int run(int argc, char** argv) {
  using namespace perfbench;
  const redopt::util::Cli cli(argc, argv, {"workload", "seed", "seconds", "trace", "redoptd",
                                           "run-dir", "print-failures"});
  Options options;
  options.workload = cli.get_string("workload", "");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  options.seconds = cli.get_double("seconds", 10.0);
  options.trace = cli.get_int("trace", 0) != 0;
  options.redoptd = cli.get_string("redoptd", "");
  options.print_failures = cli.get_bool("print-failures", false);
  options.run_dir = cli.get_string("run-dir", ".bench_run/" + options.workload);
  REDOPT_REQUIRE(options.seconds > 0.0, "--seconds must be positive");
  REDOPT_REQUIRE(!options.redoptd.empty(), "--redoptd PATH is required");

  int status = 2;
  if (options.workload == "replay-corpus") {
    status = run_replay_corpus(options);
  } else if (options.workload == "replay-socket") {
    status = run_replay_socket(options);
  } else if (options.workload == "serve-wide") {
    status = run_serve_wide(options);
  } else {
    REDOPT_REQUIRE(false, "unknown --workload: " + options.workload);
  }
  std::filesystem::remove_all(options.run_dir);
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
