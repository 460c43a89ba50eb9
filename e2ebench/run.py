#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

The benchmark is a CMake project of its own (e2ebench/CMakeLists.txt) that
compiles the appliance libraries from ../src. It is built under
$CARGO_TARGET_DIR (default .bench_build) and keeps its data directories under
.e2ebench_data; both are removed by nothing but the user. The last line of
standard output is the benchmark's JSON result; build output goes to stderr.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)


def main():
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")), "e2ebench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--self-test"]:
        binary, args = os.path.join(build_dir, "e2e_checks_test"), []
    else:
        binary, args = os.path.join(build_dir, "e2e_bench"), sys.argv[1:]
    if not os.path.exists(binary):
        print(f"e2ebench: {binary} was not built (the self-test needs GTest)",
              file=sys.stderr)
        return 2
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
