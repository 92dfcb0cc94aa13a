#!/usr/bin/env python3
"""Builds and runs the ldpm pipeline benchmark.

    python3 perfbench/run.py --workload <ingest_mux|ingest_bitmap|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the ldpm library from src/ plus the benchmark) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
rebuild only what changed. The benchmark binary's stdout is passed through
unchanged: its last line is the result object. Exits nonzero, without a
result, when the build fails or the run does not finish in time.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE_DIRS = ("src", "perfbench")
SELFTEST_TIMEOUT_S = 120


def run_timeout(seconds):
    """Allowance for one run: its measured window, then the gates, the traced
    run's direct passes and probes, and teardown."""
    return 2 * seconds + 80


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def tree_hash():
    """A hash of the sources the benchmark builds: src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def git(*args):
    """stdout of a git command in ROOT, or None when git cannot answer."""
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def source_id():
    """The git commit, with the tree hash appended when src/ or perfbench/
    differ from it; the tree hash alone outside a git checkout."""
    head = (git("rev-parse", "HEAD") or "").strip()
    if not head:
        return tree_hash()
    dirty = git("status", "--porcelain", "--", *SOURCE_DIRS)
    if dirty is None or dirty.strip():
        return f"{head}+dirty:{tree_hash()}"
    return head


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "collector.h")):
        log(f"no ldpm sources under {ROOT}/src")
        return False
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, capture_output=True, text=True)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              timeout=SELFTEST_TIMEOUT_S).returncode

    command = [os.path.join(build_dir, "pipeline_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(root, "perfbench-out")]
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    timeout = run_timeout(args.seconds)
    sys.stdout.flush()
    try:
        # stdout is inherited: the binary prints the result line itself.
        return subprocess.run(command, env=env, cwd=ROOT,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout:g} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
