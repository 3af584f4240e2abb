#!/usr/bin/env python3
"""Build and run the redopt benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check [--seconds S]
  python3 perfbench/run.py --print-failures

Run from the repository root.  The first call builds the redopt library,
redoptd and the perfbench binary from source into .bench_build/ (the
directory CARGO_TARGET_DIR names, when set); later calls rebuild only what
changed.  The last line of stdout is the JSON result of the run.

--self-check runs every workload for a few seconds, untraced once and
traced twice, and checks that each output names every metric of
BENCHMARK.json with its unit, reports whole attempted/failed counts, and
that the exact counts (units count and B) of the two traced runs are
identical; INEXACT_COUNTS lists the one count that cannot be, and why.

--print-failures prints each replay-corpus scenario that fails its check
as one JSON line; save a line to a file and replay it with
`chaos-replay --scenario FILE`.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["replay-corpus", "serve-wide", "replay-socket"]
RUN_TIMEOUT_S = 175
# Units whose values are exact work counts: they must repeat run to run.
COUNT_UNITS = {"count", "B"}
# Counts that cannot repeat exactly, and why.
INEXACT_COUNTS = {
    "elastic.allocs_per_round":
        "the elastic loop formats wall-clock span durations into each replica's "
        "telemetry island, and whether a formatted number fits a string's inline "
        "buffer depends on its digits, so the count moves with timing",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds perfbench and redoptd; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the redopt sources (CMakeLists.txt, src/) are missing next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    # Keep the compiler's and the programs' temporary files in the checkout.
    tmp_dir = os.path.join(ROOT, target, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            fail("build failed: " + " ".join(step))
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "redopt", "tools", "redoptd", "redoptd"))


def run_once(binaries, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout text)."""
    perfbench, redoptd = binaries
    # Sockets and state dirs live under the checkout; the path stays short
    # (relative) because Unix socket paths are limited to 107 bytes.
    run_dir = os.path.join(".bench_run", "%s-%d" % (workload, os.getpid()))
    command = [perfbench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--redoptd", redoptd, "--run-dir", run_dir] + list(extra)
    # Its own process group, so a run that hangs or dies is stopped together
    # with the daemon and agent processes it started.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass  # the whole group has already exited
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_run"))
        except OSError:
            pass  # another run is still using it
    return proc.returncode, stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_check(binaries, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        results = {}
        for label, seed, trace in (("untraced", 1, 0), ("traced-a", 1, 1), ("traced-b", 2, 1)):
            code, stdout = run_once(binaries, workload, seed, seconds, trace)
            result = last_json(stdout) if code == 0 else None
            if result is None:
                problems.append("%s %s: exit %d, no result" % (workload, label, code))
                continue
            results[label] = result
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s %s: wrong top-level keys" % (workload, label))
                continue
            if result["correct"] is not True:
                problems.append("%s %s: outputs failed their checks" % (workload, label))
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int) and result["failed"] >= 0):
                problems.append("%s %s: bad attempted/failed counts" % (workload, label))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s %s: metrics %s, expected %s"
                                % (workload, label, sorted(got.items()),
                                   sorted(expected[trace].items())))
            print("%-14s %-9s attempted=%d failed=%d metrics=%d"
                  % (workload, label, result["attempted"], result["failed"], len(got)))
        if "traced-a" in results and "traced-b" in results:
            a = results["traced-a"]["metrics"]
            b = results["traced-b"]["metrics"]
            for name, unit in expected[1].items():
                if unit not in COUNT_UNITS or name not in a or name not in b:
                    continue
                if a[name]["value"] == b[name]["value"]:
                    continue
                message = "%s: count %s differs between traced runs (%r vs %r)" % (
                    workload, name, a[name]["value"], b[name]["value"])
                if name in INEXACT_COUNTS:
                    print("note " + message + ": " + INEXACT_COUNTS[name])
                else:
                    problems.append(message)
    for p in problems:
        print("FAIL " + p)
    print("self-check: " + ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--print-failures", action="store_true")
    args = parser.parse_args()

    binaries = build()
    if args.self_check:
        return self_check(binaries, args.seconds or 2)
    if args.print_failures:
        code, stdout = run_once(binaries, "replay-corpus", args.seed, 1, 0, ["--print-failures"])
        sys.stdout.write(stdout)
        return code
    if args.workload is None:
        parser.error("pass --workload NAME, --self-check or --print-failures")
    code, stdout = run_once(binaries, args.workload, args.seed, args.seconds or 10, args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code == 0 and last_json(stdout) is None:
        fail("the run printed no result")
    return code


if __name__ == "__main__":
    sys.exit(main())
