#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --selftest

The package is configured and built (incrementally) under
.bench_build/perfbench in the checkout; CARGO_TARGET_DIR, when set, replaces
the .bench_build part. Build output goes to stderr, so the last line on
stdout is the benchmark's JSON result. A traced run (--trace 1) also writes
its spans to trace-<workload>-seed<seed>.jsonl in the build directory.
--selftest builds and runs the tests of the benchmark's own arithmetic.

The library runs at its default thread count and kernel backend: the
MEMHD_NUM_THREADS and MEMHD_BATCH_KERNEL overrides are removed from the
environment. Exits non-zero when the build fails, an output check fails,
or the run exceeds its time limit.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "bulk", "serve-train")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no library sources in {ROOT}; cannot build")
        return False
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", out, "-j", jobs, "--target", *targets]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run(cmd, timeout):
    """Runs cmd with stdout passed through; kills it on timeout or exit."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("MEMHD_NUM_THREADS", "MEMHD_BATCH_KERNEL")}
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    # SIGTERM unwinds through run(), which kills the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.selftest:
        if not build(["perfbench_tests"]):
            return 1
        return run([os.path.join(build_dir(), "perfbench_tests")], 120)

    if not build(["perfbench"]):
        return 1
    cmd = [os.path.join(build_dir(), "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), f"trace-{args.workload}-seed{args.seed}.jsonl")]
    return run(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
