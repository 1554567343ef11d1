#!/usr/bin/env python3
"""Layered native-path benchmark for convgen's ConversionService.

Run from the repository root:

    python3 perfbench/run.py --workload small-allpairs --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark driver from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the driver once in a fresh work
directory that holds the run's JIT cache, outcome store and compiler scratch
files, removes that directory, checks that the driver judged every reply
correct and that the result names every metric BENCHMARK.json declares for
the mode with its declared unit, and prints the result JSON as the last line
of standard output; otherwise it exits non-zero without a result. --trace 1 also writes the
run's spans to <build dir>/spans/<workload>-seed<seed>.jsonl.

    python3 perfbench/run.py --self-check [--seconds 2]

runs every workload in both modes on two seeds and fails unless each run
is correct and prints every declared metric with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BENCH_DIR = os.path.join(ROOT, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("run from the root of a convgen checkout (CMakeLists.txt and src/ missing)")
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench_driver")


def clean_env():
    """The process environment minus every convgen knob, so each run sees
    the library's defaults; the driver sets the isolation knobs itself."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONVGEN_")}
    env.pop("OMP_NUM_THREADS", None)
    return env


def run_once(driver, workload, seed, seconds, trace):
    """Runs the driver; returns (exit code, stdout lines)."""
    base = build_dir()
    spans = os.path.join(base, "spans")
    os.makedirs(spans, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    cmd = [
        driver,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", work,
    ]
    if trace:
        cmd += ["--spans", os.path.join(spans, "%s-seed%s.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(), text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def declared(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(spec, trace, result):
    """Names every declared metric that is missing, extra or in the wrong unit."""
    want = declared(spec, trace)
    got = result.get("metrics", {})
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append("missing metric %s" % name)
        elif got[name].get("unit") != unit:
            problems.append("%s in %s, declared %s" % (name, got[name].get("unit"), unit))
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append("%s has no numeric value" % name)
    problems += ["undeclared metric %s" % n for n in got if n not in want]
    return problems


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    driver = build()
    if args.self_check:
        seconds = args.seconds or 2
        bad = 0
        for w in spec["workloads"]:
            for seed in (1, 2):
                for trace in (0, 1):
                    code, lines = run_once(driver, w["name"], seed, seconds, trace)
                    try:
                        result = json.loads(lines[-1])
                        problems = check_metrics(spec, trace, result)
                        if result.get("correct") is not True:
                            problems.append("result not correct")
                    except (IndexError, ValueError):
                        problems = ["no result line"]
                    if code != 0:
                        problems.append("exit code %d" % code)
                    status = "ok" if not problems else "; ".join(problems)
                    print("%-16s seed %d trace %d: %s" % (w["name"], seed, trace, status))
                    bad += bool(problems)
        sys.exit(1 if bad else 0)

    if not args.workload:
        fail("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    code, lines = run_once(driver, args.workload, args.seed, seconds, args.trace)
    if code != 0 or not lines:
        fail("driver exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result line")
    problems = check_metrics(spec, args.trace, result)
    if result.get("correct") is not True:
        problems.append("the driver reported an incorrect result")
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
