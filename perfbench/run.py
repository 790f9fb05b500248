#!/usr/bin/env python3
"""End-to-end benchmark of the spinner library.

Builds the benchmark driver (perfbench/CMakeLists.txt) from the checkout's
sources, runs one workload, checks its outputs, prints every metric with
its unit, and ends standard output with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs (--trace 0) report the end-to-end metrics of BENCHMARK.json;
traced runs (--trace 1) report its per-layer metrics, with 0 for a layer
metric the workload does not exercise. The full record, with host and
input context, is written under the build directory's results/.

    python3 perfbench/run.py --workload batch_inproc --seed 1 \\
        --seconds 35 --trace 0
    python3 perfbench/run.py --self-test   # tiny inputs, all workloads

The build directory is $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, subdirectory perfbench/.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"), "perfbench")
BINARY = os.path.join(BUILD_DIR, "spinner_e2e")
# Compilers and the driver keep their temporary files inside the checkout.
TMPDIR = os.path.join(BUILD_DIR, "tmp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_PATH}: {e}")


def child_env():
    os.makedirs(TMPDIR, exist_ok=True)
    return dict(os.environ, TMPDIR=TMPDIR)


def run_checked(cmd, timeout):
    """Runs `cmd` with output on stderr, in its own process group so a
    timeout can stop everything it started."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, env=child_env(),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd)}")
    if code != 0:
        raise BenchError(f"exit {code}: {' '.join(cmd)}")


def stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def build():
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        try:
            run_checked(cmd, BUILD_TIMEOUT_S)
        except BenchError:
            # A failed configure leaves a cache that would mask the next
            # attempt's generator choice.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "spinner_e2e",
                 "-j", str(min(4, os.cpu_count() or 1))], BUILD_TIMEOUT_S)


def run_driver(workload, seed, seconds, trace, tiny=False):
    """Runs the driver binary; returns its record (its last stdout line)."""
    workdir = os.path.join(BUILD_DIR, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--workdir={workdir}"] + (["--tiny"] if tiny else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, env=child_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S}s")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: driver exited {proc.returncode} "
                         "without a record")
    try:
        record = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload}: unreadable record: {lines[-1]!r}")
    record["exit_code"] = proc.returncode
    return record


def compose(spec, record, trace):
    """The contract's result: exactly the metrics BENCHMARK.json lists for
    this mode, or a list of problems."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = record.get("metrics", {})
    problems = []
    names = {m["name"] for m in wanted}
    for name in sorted(set(measured) - names):
        problems.append(f"metric {name} is not listed in BENCHMARK.json")
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                problems.append(f"end-to-end metric {m['name']} missing")
                continue
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} != "
                            f"{m['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a number")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if record.get("exit_code") != 0:
        problems.append(f"driver exited {record.get('exit_code')}")
    problems += [f"check failed: {f}" for f in record.get("failures", [])]
    correct = bool(record.get("correct")) and not problems
    attempted = max(1, int(record.get("attempted", 0)))
    failed = int(record.get("failed", 0))
    if not correct:
        failed = max(failed, 1)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, problems


def print_table(record, result, problems):
    print(f"workload {record.get('workload')}  seed {record.get('seed')}  "
          f"trace {record.get('trace')}")
    for key, value in record.get("context", {}).items():
        print(f"  context {key:<24} {value}")
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<34} {rate:>16.6g} 1  "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for p in problems:
        print(f"  PROBLEM {p}")


def save(record, result):
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(
        results, f"{record.get('workload')}-seed{record.get('seed')}-"
                 f"trace{record.get('trace')}.json")
    with open(path, "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)


def run_one(args):
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        raise BenchError(f"unknown workload {args.workload}; known: {known}")
    build()
    record = run_driver(args.workload, args.seed, args.seconds, args.trace)
    result, problems = compose(spec, record, args.trace)
    save(record, result)
    print_table(record, result, problems)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------- self-test

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def spec_problems(spec):
    """BENCHMARK.json against the benchmark contract's schema."""
    p = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        p.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return p
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 and
                not c.startswith("/") and ".." not in c.split("/")
                for c in cmd)):
        p.append("command must be 1-32 relative strings")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and
            all(PATH.match(x) and not x.startswith("/") and
                ".." not in x.split("/") for x in paths)):
        p.append("paths must be 1-16 relative directory names")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        p.append("run_seconds must be an integer in [1, 60]")
    names = []
    wl = spec["workloads"]
    if not 2 <= len(wl) <= 8:
        p.append("2-8 workloads")
    for w in wl:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or \
                len(w["why"]) > 200 or "\n" in w["why"]:
            p.append(f"bad workload {w}")
        names.append(w["name"])
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    if not 1 <= len(e2e) <= 16:
        p.append("1-16 end_to_end metrics")
    if not 1 <= len(layer) <= 128:
        p.append("1-128 per_layer metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            p.append(f"bad end_to_end metric {m}")
    for m in layer:
        if set(m) != {"name", "unit", "better"}:
            p.append(f"bad per_layer metric {m}")
    for m in e2e + layer:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or \
                m["better"] not in ("lower", "higher"):
            p.append(f"bad metric {m}")
        names.append(m["name"])
    if len(names) != len(set(names)):
        p.append("names must be unique")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        p.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        p.append("setup_s must carry the largest bound")
    if os.path.getsize(SPEC_PATH) > 64 * 1024:
        p.append("BENCHMARK.json exceeds 64 KiB")
    return p


def self_test():
    """Every workload, untraced and traced, at tiny sizes: the checks must
    pass and each result must match BENCHMARK.json."""
    start = time.monotonic()
    spec = load_spec()
    problems = spec_problems(spec)
    if not problems:
        build()
        for w in spec["workloads"]:
            for trace in (0, 1):
                record = run_driver(w["name"], 1, 1, trace, tiny=True)
                result, found = compose(spec, record, trace)
                tag = f"{w['name']} trace={trace}"
                problems += [f"{tag}: {f}" for f in found]
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{tag}: not correct")
                metrics = result["metrics"]
                if trace == 0:
                    problems += [f"{tag}: {n} is 0" for n, m in
                                 metrics.items() if m["value"] == 0]
                else:
                    dist = {n: m["value"] for n, m in metrics.items()
                            if n.startswith("dist.")}
                    if w["name"] != "batch_dist" and any(dist.values()):
                        problems.append(f"{tag}: dist metrics not zero")
                    if dist.get("dist.recoveries"):
                        problems.append(f"{tag}: worker recoveries")
                print(f"self-test {tag}: {result['attempted']} operations, "
                      f"{result['failed']} failed")
    for p in problems:
        print(f"self-test PROBLEM {p}")
    print(f"self-test {'FAILED' if problems else 'OK'} in "
          f"{time.monotonic() - start:.1f}s")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        return run_one(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
