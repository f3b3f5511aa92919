#!/usr/bin/env python3
"""The repository's benchmark: builds bgpintent and the perfbench binary,
generates one workload's seeded inputs, runs the workload and prints its
result as the last line of stdout (see DESIGN.md).

    python3 perfbench/run.py --workload batch_infer --seed 1 --seconds 10 --trace 0

Everything it writes stays under .bench_build/ in the checkout: the Release
build, a per-run work directory (deleted at the end) and, for traced runs,
the span files of the run under .bench_build/traces/.  A traced run
generates every workload's inputs, because it measures every layer.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("batch_infer", "stream_journal", "serve_mixed")
# A run must end within 180 s; leave room for clean-up.
RUN_DEADLINE_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False
    return done.returncode == 0


def build():
    """Configures (once) and builds the binaries; paths or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: no src/ tree next to perfbench/; nothing to build")
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"], 300):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target",
                       "perfbench", "bgpintent"], 840):
        return None
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "bgpintent", "cli", "bgpintent"))


def run_group(cmd, timeout):
    """Runs `cmd` in its own process group, killing the whole group on
    timeout; returns (returncode, stdout) or (None, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log("timed out: " + " ".join(cmd))
        return None, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binaries = build()
    if binaries is None:
        return 2
    perfbench, cli = binaries
    started = time.monotonic()

    work = os.path.join(BUILD_ROOT, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    # A traced run measures every layer on its own workload's inputs.
    generated = WORKLOADS if args.trace else (args.workload,)
    try:
        for workload in generated:
            code, out = run_group([perfbench, "generate", "--workload", workload,
                                   "--seed", str(args.seed), "--dir", work], 60)
            sys.stderr.write(out)
            if code != 0:
                log("error: input generation failed")
                return 2
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        code, out = run_group([perfbench, "run", "--workload", args.workload,
                               "--dir", work, "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--cli", cli],
                              remaining)
        sys.stdout.write(out)
        sys.stdout.flush()
        traces = os.path.join(BUILD_ROOT, "traces")
        for workload in generated:
            spans = os.path.join(work, workload, "spans.txt")
            if args.trace and os.path.isfile(spans):
                os.makedirs(traces, exist_ok=True)
                shutil.copy(spans, os.path.join(traces, "%s-seed%d-%s.txt"
                                                % (args.workload, args.seed, workload)))
        return 2 if code is None else code
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
