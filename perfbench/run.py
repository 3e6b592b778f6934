#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <ingest|search|incident> \
        --seed <n> --seconds <s> --trace <0|1>

The `perfbench` binary is built with CMake into `$CARGO_TARGET_DIR/perfbench`
(default `.bench_build/perfbench`) on first use; later runs only
re-check it. Build output goes to stderr, so the last line on stdout is
the binary's JSON result. Exits non-zero when the build or the run
fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build(bdir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", bdir, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def main(argv):
    bdir = build_dir()
    try:
        exe = build(bdir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run([exe] + argv + ["--out-dir", out_dir],
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
