// The three benchmark workloads and the per-layer probes behind the
// traced run.  Each workload prints one result line (support.h Report).
#pragma once

#include <cstdint>
#include <string>

#include "support.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string redoptd;  ///< path of the redoptd binary (serve-wide and probes)
  std::string run_dir;  ///< scratch directory for sockets and state dirs
  bool print_failures = false;
};

int run_replay_corpus(const Options& options);
int run_replay_socket(const Options& options);
int run_serve_wide(const Options& options);

/// Times and counts calls into each layer's public functions at the
/// workload's shape (probes.cpp) and adds the per-layer metrics, all but
/// trace.overhead_pct.  serve-wide measures serving.request_ms and
/// serving.retained_kib_per_job on its own daemons, so this adds those
/// two only for the others.  Traced runs call it before their timed
/// phase, so its exact counts see the same process state in every run.
void probe_layers(const Options& options, Report& report);

}  // namespace perfbench
