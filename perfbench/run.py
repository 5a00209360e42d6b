#!/usr/bin/env python3
"""Build the serving benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the checkout. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. A traced run (--trace 1)
also writes its spans to .bench_build/perfbench/traces/.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources under src/ to build")
    os.makedirs(BUILD, exist_ok=True)
    # Concurrent first runs in one checkout build once.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                sys.exit("perfbench: configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        compile_cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
        if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")


def main(argv):
    build()
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
        args += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    main(sys.argv[1:])
