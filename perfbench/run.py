#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the UMGAD libraries and the perfbench
harness from source into .bench_build/ (CMake, Release), generates the
workload's inputs from the seed (cached per seed and binary under
.bench_build/inputs/), then runs the timed program, which loads only those
inputs. The timed program's last stdout line is the one-line JSON result;
the full result (run record, metric notes, gate failures) is written to
.bench_build/results/ and traced runs write their spans to
.bench_build/traces/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("dgfin", "tsocial")
ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
GEN_TIMEOUT_S = 300
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, log_path, timeout):
    """Runs cmd with output to log_path; returns True on exit code 0."""
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, env=bench_env())
        except subprocess.TimeoutExpired:
            return False
    return proc.returncode == 0


def bench_env():
    env = dict(os.environ)
    # Partitioned training would change the operators Fit builds; the traced
    # training loop mirrors the default (flat) engine only. Dataset-dir
    # lookups and thread-count overrides would make inputs or lanes depend
    # on the caller's shell instead of the seed and the host.
    for key in ("UMGAD_PARTITIONS", "UMGAD_PARTITION_METHOD", "UMGAD_THREADS",
                "UMGAD_DATASET_DIR"):
        env.pop(key, None)
    # The compiler's temporary files stay inside the checkout too.
    env["TMPDIR"] = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under ./src; run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], log, 600):
            fail("configure failed; see " + log)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                      "perfbench", "perfbench_tests"], log, 1500):
        fail("build failed; see " + log)
    return os.path.join(BUILD_DIR, "perfbench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest():
    """sha256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                h.update(file_digest(path).encode())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def inputs_for(binary, workload, seed):
    """Generates (or reuses) the workload's inputs for this seed and binary."""
    tag = file_digest(binary)[:12]
    final = os.path.join(BUILD_ROOT, "inputs", workload, "seed-%d-%s" % (seed, tag))
    if os.path.isfile(os.path.join(final, "complete")):
        return final
    # Inputs made by another binary are stale once it is rebuilt.
    parent = os.path.dirname(final)
    if os.path.isdir(parent):
        for name in os.listdir(parent):
            if not name.startswith("seed-") or not name.endswith("-" + tag):
                shutil.rmtree(os.path.join(parent, name), ignore_errors=True)
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    log = os.path.join(tmp, "gen.log")
    if not run_quiet([binary, "gen", "--workload", workload, "--seed", str(seed),
                      "--inputs", tmp], log, GEN_TIMEOUT_S):
        fail("input generation failed; see " + log)
    open(os.path.join(tmp, "complete"), "w").close()
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    return final


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.selftest:
        tests = os.path.join(BUILD_DIR, "perfbench_tests")
        sys.exit(subprocess.run([tests], cwd=BUILD_DIR, timeout=RUN_TIMEOUT_S,
                                env=bench_env()).returncode)

    inputs = inputs_for(binary, args.workload, args.seed)
    # Write freshly generated inputs back now, so that the kernel's
    # writeback does not compete with the timed run.
    os.sync()
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(BUILD_ROOT, sub), exist_ok=True)
    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--inputs", inputs,
           "--result", os.path.join(BUILD_ROOT, "results", stem + ".json"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD_ROOT, "traces", stem + ".spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              env=bench_env())
    except subprocess.TimeoutExpired:
        fail("timed run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
