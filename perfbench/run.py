#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Builds the library and the benchmark from
source with CMake into .bench_build (or $CARGO_TARGET_DIR when set), then
runs the benchmark binary with the given arguments.  Build output goes to
standard error, so the benchmark's JSON result stays the last line of
standard output.  Exits nonzero, without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_quiet(cmd):
    """Runs a build step; returns True on success, echoing its log on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def configure(out):
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    return run_quiet(cmd)


def build():
    out = build_dir()
    configured = os.path.exists(os.path.join(out, "CMakeCache.txt"))
    if not configured and not configure(out):
        return None
    jobs = str(os.cpu_count() or 1)
    targets = ["--target", "perfbench", "perfbench_selftest"]
    if run_quiet(["cmake", "--build", out, "-j", jobs] + targets):
        return out
    if not configured:
        return None
    # A cache left by another source location or generator: start over once.
    shutil.rmtree(out, ignore_errors=True)
    if configure(out) and run_quiet(["cmake", "--build", out, "-j", jobs] + targets):
        return out
    return None


def main(argv):
    if shutil.which("cmake") is None:
        sys.stderr.write("perfbench: cmake not found\n")
        return 3
    out = build()
    if out is None:
        return 3
    if argv == ["--selftest"]:
        return subprocess.call([os.path.join(out, "perfbench_selftest")], cwd=ROOT)
    return subprocess.call([os.path.join(out, "perfbench")] + argv, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
