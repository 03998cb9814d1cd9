#!/usr/bin/env python3
"""Request-path benchmark of autobi_serve.

Builds the daemon and the benchmark client from this checkout's sources,
trains the daemon's model once (cached beside the build), and runs one
workload:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Run from the repository root. The last line of standard output is the JSON
result; everything before it is the human-readable report. The build goes
to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench). See
e2ebench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures --seconds plus set-up and checks; this is its hard cap.
RUN_TIMEOUT_S = 175


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                   + targets, check=True, stdout=sys.stderr)


def trained_model(build_dir, bench):
    """The daemon's default model, trained once per build of the client."""
    model = os.path.join(build_dir, "model.txt")
    stamp_path = model + ".stamp"
    st = os.stat(bench)
    stamp = f"{st.st_size} {st.st_mtime_ns}"
    if os.path.isfile(model) and os.path.isfile(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return model
    log("training the daemon's model (once per build)")
    subprocess.run([bench, "--train_model", model + ".tmp"], check=True,
                   stdout=sys.stderr)
    os.replace(model + ".tmp", model)
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return model


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no repository sources at {ROOT}/src; run from a full checkout")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "e2ebench")
    try:
        build(build_dir, ["e2e_bench", "autobi_serve", "e2e_bench_test"])
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    bench = os.path.join(build_dir, "e2e_bench")
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "e2e_bench_test")]
                              ).returncode
    model = trained_model(build_dir, bench)

    # Relative paths keep the daemon's socket path short whatever the
    # checkout's location.
    os.chdir(ROOT)
    rel_build = os.path.relpath(build_dir, ROOT)
    work_dir = os.path.join(rel_build, f"run-{os.getpid()}")
    traces = os.path.join(rel_build, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", os.path.join(rel_build, "autobi_src", "serve",
                                   "autobi_serve"),
           "--model", model, "--work_dir", work_dir,
           "--spans", os.path.join(
               traces, f"{args.workload}-seed{args.seed}.spans.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
