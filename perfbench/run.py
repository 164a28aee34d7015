#!/usr/bin/env python3
"""Runs one measurement of the serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the daemon (`pulphd_cli`) and the load generator
(`perfbench_loadgen`) from the checkout's sources into
.bench_build/perfbench (incremental after the first run), then runs the
load generator, which generates the workload from the seed, starts
`pulphd_cli serve` on the generated model files and measures it. Build
output goes to .bench_build/perfbench/build.log; the load generator's
stdout is passed through, so the last line is the result object. Exits non-zero,
printing no result, when the sources are missing, the build fails or the
run fails.
"""
import argparse
import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Relative to ROOT: the daemon's Unix socket lives in the work directory,
# and a relative path stays within the 108-byte socket-path limit.
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["paper-stream", "bulk-text", "bulk-binary"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def die_with_parent():
    """Runs in the load generator before exec: SIGTERM it if this script
    dies. It stops its daemon on SIGTERM."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGTERM)


def source_id():
    """The commit, or a hash of the sources when the tree is not a git repo."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha1()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build():
    """Configures (a no-op when nothing changed), then builds the two
    targets incrementally."""
    build_dir = os.path.join(ROOT, BUILD)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench_loadgen", "pulphd_cli",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)
    loadgen = os.path.join(build_dir, "perfbench_loadgen")
    cli = os.path.join(build_dir, "pulphd", "tools", "pulphd_cli")
    return loadgen, cli


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ["CMakeLists.txt", os.path.join("src", "serve", "server.cpp"),
                   os.path.join("tools", "pulphd_cli.cpp")]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the program's sources are missing (" + needed + " not found)", 2)
    loadgen, cli = build()

    work = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    command = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cli", os.path.relpath(cli, ROOT), "--work", work, "--commit", source_id()]
    if args.trace:
        traces = os.path.join(ROOT, BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_out = os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))
        if os.path.exists(trace_out):
            os.remove(trace_out)
        command += ["--trace-out", trace_out]
    # SIGTERM unwinds through the finally below, which stops the load
    # generator (and so its daemon) before removing the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    loadgen_run = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  preexec_fn=die_with_parent)
    try:
        out, _ = loadgen_run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if loadgen_run.poll() is None:
            loadgen_run.terminate()
            loadgen_run.wait()
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    if loadgen_run.returncode != 0:
        fail("load generator exited with code %d" % loadgen_run.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
