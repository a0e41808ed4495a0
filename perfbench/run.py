#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve|serve|dist --seed N \
        --seconds S --trace 0|1 [--corrupt-reference 1]

The library and driver are built with CMake into .bench_build/ (Release).
The machine profile, result records and span traces live in
perfbench/.state/. The driver's last line of standard output is the JSON
result; build output goes to standard error. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
STATE_DIR = os.path.join(BENCH_DIR, ".state")
PROFILE = os.path.join(STATE_DIR, "machine_profile.json")

# A run must end within 180 s; the first one in a checkout also builds
# and profiles the machine and may take up to 900 s in total.
RUN_TIMEOUT_S = 170
PROFILE_TIMEOUT_S = 500


def build():
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(BUILD_DIR, "perfbench")


def source_hash():
    """SHA-256 over the library and benchmark sources and build files."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.join("perfbench", "src")):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    paths.append(os.path.join(BENCH_DIR, "CMakeLists.txt"))
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    # Only this checkout's own repository counts, not one that encloses it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["solve", "serve", "dist"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-reference", type=int, choices=[0, 1], default=0,
                    help="perturb the reference vectors (gate self-test)")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    os.makedirs(STATE_DIR, exist_ok=True)
    state = ["--state-dir", os.path.relpath(STATE_DIR, ROOT)]
    if not os.path.exists(PROFILE):
        # Profile in a process of its own, so the measured run that follows
        # carries neither its time nor its memory.
        code = run_child([binary, "--workload", "profile"] + state,
                         dict(os.environ), PROFILE_TIMEOUT_S)
        if code != 0:
            return code
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SOURCE_HASH=source_hash())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--corrupt-reference", str(args.corrupt_reference)] + state
    return run_child(cmd, env, RUN_TIMEOUT_S)


def run_child(cmd, env, timeout):
    """Run `cmd` from the checkout root; stop it if it overstays."""
    sys.stdout.flush()
    # Own process group, so a run that overstays is stopped together with
    # the rank processes it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s; stopping it",
              file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
