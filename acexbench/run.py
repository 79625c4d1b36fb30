#!/usr/bin/env python3
"""Build and run acexbench from a checkout of the repository.

    python3 acexbench/run.py --workload bulk_link --seed 1 --seconds 20 --trace 0

Configures acexbench/ (which builds the acex libraries from src/) into
$CARGO_TARGET_DIR/acexbench, or .bench_build/acexbench when that is unset,
builds it optimised, and runs it. The benchmark's stdout is passed through
unchanged; its last line is the JSON result. Build logs go to stderr.
Exits non-zero, without a result, when the sources or the build are missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"acexbench/run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "acexbench")


def build(out):
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=300)
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "--build", out, "--target", "acexbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    return os.path.join(out, "acexbench")


def source_id():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "acexbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bulk_link", "daemon_live", "shm_fanout"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no acex sources under {ROOT}/src; nothing to benchmark")
        return 2
    try:
        binary = build(build_dir())
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--source", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    result = lines[-1] if lines else ""
    try:
        ok = set(json.loads(result)) == RESULT_KEYS
    except (ValueError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(run.stdout)
        log(f"benchmark produced no result (exit {run.returncode})")
        return run.returncode or 4
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
