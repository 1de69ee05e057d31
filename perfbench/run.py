#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the checkout root); build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's:
non-zero when a set-up step fails or an answer does not verify.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookup", "ingest", "analytics", "mixed")
RUN_TIMEOUT_S = 175


class Stopped(Exception):
    """A SIGTERM or SIGINT arrived while a child was running."""

    def __init__(self, signum):
        super().__init__(signum)
        self.signum = signum


def _raise_stopped(signum, _frame):
    raise Stopped(signum)


def run_child(cmd, timeout=None, **kwargs):
    """Runs cmd in its own process group and returns its exit code. On a
    timeout, or a SIGTERM/SIGINT to this script, the whole group (make and
    compilers included) is killed and reaped first."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("run.py: %s exceeded %d s" % (cmd[0], timeout), file=sys.stderr)
        return 1
    except Stopped as stop:
        sys.exit(128 + stop.signum)
    finally:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: engine sources (src/) not found beside perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if run_child(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr):
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_child(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets,
                 stdout=sys.stderr):
        sys.exit("run.py: build failed")
    return bdir


def child_env(bdir):
    # Keep any scratch file the engine makes inside the checkout.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def selftest():
    bdir = build(["perfbench", "perfbench_selftest"])
    env = child_env(bdir)
    ok = run_child([os.path.join(bdir, "perfbench_selftest")], env=env) == 0
    listed = subprocess.run([os.path.join(bdir, "perfbench"), "--list-metrics"],
                            env=env, capture_output=True, text=True, check=True)
    catalogue = json.loads(listed.stdout)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[key]]
        got = [(m["name"], m["unit"]) for m in catalogue[key]]
        if want != got:
            print("FAIL: BENCHMARK.json %s differs from the harness: %s vs %s"
                  % (key, want, got), file=sys.stderr)
            ok = False
    for w in spec["workloads"]:
        if w["name"] not in WORKLOADS:
            print("FAIL: unknown workload %s" % w["name"], file=sys.stderr)
            ok = False
    print("run.py selftest: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    signal.signal(signal.SIGTERM, _raise_stopped)
    signal.signal(signal.SIGINT, _raise_stopped)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")

    bdir = build(["perfbench"])
    tag = "%s-seed%d" % (args.workload, args.seed)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(bdir, "run", "%s-%d" % (tag, os.getpid()))]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, tag + ".json")]
    return run_child(cmd, timeout=RUN_TIMEOUT_S, cwd=ROOT, env=child_env(bdir))


if __name__ == "__main__":
    sys.exit(main())
