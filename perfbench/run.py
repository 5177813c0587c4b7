#!/usr/bin/env python3
"""Benchmark of the semantic-locking runtime: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call builds the library
sources (../src) and the benchmark with CMake into .bench_build (or
$CARGO_TARGET_DIR when set); later calls reuse the build. Every SEMLOCK_*
variable is removed from the benchmark's environment, the self-tests run,
then the workload runs and the last line of stdout is its result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes the run's spans to .bench_build/spans/). The exit code is 0
only when every correctness check passed. perfbench/README.md describes the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def clean_env():
    """The caller's environment without any SEMLOCK_* knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEMLOCK_")}
    dropped = sorted(k for k in os.environ if k.startswith("SEMLOCK_"))
    if dropped:
        log("unset " + " ".join(dropped))
    return env


def source_id():
    """The git commit when run from a git checkout, else a digest of the
    library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src; run from the root "
            "of a source checkout")
        return None
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return bdir


def expected_names(workload, trace):
    """Metric names BENCHMARK.json promises for this run, or None when the
    workload is not listed there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, workload, trace):
    """Problems with the result line, as a list of messages."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    for name, m in result["metrics"].items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} does not match "
                            "[A-Za-z0-9][A-Za-z0-9_.-]*")
        if set(m) != {"value", "unit"}:
            problems.append(f"metric {name} keys {sorted(m)}")
    want = expected_names(workload, trace)
    if want is not None:
        got = set(result["metrics"])
        if got != want:
            problems.append(f"metrics missing {sorted(want - got)}, "
                            f"unexpected {sorted(got - want)}")
    return problems


def selftest(bdir, env):
    res = subprocess.run([os.path.join(bdir, "perfbench_selftest")], env=env,
                         stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    bad = [n for n in ("0bad start", ".lead", "a b", "x" * 65)
           if NAME_RE.match(n)]
    good = [n for n in ("latency_p99_us.light", "semlock.acquire_ns.p50",
                        "setup_s") if not NAME_RE.match(n)]
    if bad or good:
        log(f"metric-name check wrong on {bad + good}")
        return False
    return res.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["uncontended", "hot-bank",
                                           "server-open"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the self-tests only")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    env = clean_env()
    bdir = build(env)
    if bdir is None:
        return 2
    if not selftest(bdir, env):
        log("self-tests failed")
        return 1
    if args.selftest:
        return 0

    spans = os.path.join(bdir, "spans",
                         f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source-id", source_id()]
    if args.trace:
        cmd += ["--spans-out", spans]
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = [ln for ln in res.stdout.splitlines() if ln.strip()]
    if not lines:
        log(f"benchmark printed no result (exit {res.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON: " + lines[-1])
        return 1
    problems = validate(result, args.workload, args.trace == 1)
    for p in problems:
        log("invalid result: " + p)
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if res.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
