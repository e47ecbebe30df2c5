#!/usr/bin/env python3
"""Builds and runs the SilkMoth benchmark.

One run of one workload:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload in turn (same flags, --workload all), or the steadiness
evidence: each workload N times with seeds N, N+1, ..., alternating the
workload order, then the median, quartiles, min/max and spread per metric:
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0 --repeat 10

Run it from the root of a checkout. The binary is built with CMake from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build). A
run prints its metrics and run health, then one JSON result line last. The
exit code is non-zero when the build fails, a run fails, or an answer is
wrong.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once and builds incrementally; returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "silkmoth_perfbench")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_one(binary, design, name, seed, seconds, trace):
    """Runs one workload; returns the binary's report dict or None."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", work]
    for key, value in design["workloads"][name]["params"].items():
        cmd += ["--param", f"{key}={value}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{name}: timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"{name}: exited with {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def print_report(report, trace):
    name = report["workload"]
    metrics = report["layers"] if trace else report["metrics"]
    for key in sorted(metrics):
        m = metrics[key]
        print(f"{name} {key} = {m['value']:.6g} {m['unit']} "
              f"(samples {m['samples']})")
    attempted, failed = report["attempted"], report["failed"]
    pct = 100.0 * failed / attempted if attempted else 0.0
    print(f"{name} failed_pct = {pct:.4g} % ({failed} of {attempted})")
    for key in sorted(report["health"]):
        print(f"{name} health.{key} = {json.dumps(report['health'][key])}")
    for what in report["mismatches"]:
        print(f"{name} MISMATCH: {what}")


def result_line(reports, bench, trace):
    """The contract line: every listed metric, summed counts."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    correct = all(r["failed"] == 0 and not r["mismatches"] for r in reports)
    out = {"correct": correct,
           "attempted": sum(r["attempted"] for r in reports),
           "failed": sum(r["failed"] for r in reports),
           "metrics": {}}
    if len(reports) == 1:
        got = reports[0]["layers" if trace else "metrics"]
        for m in wanted:
            if m["name"] not in got:
                raise KeyError(f"run did not report metric {m['name']}")
            out["metrics"][m["name"]] = {"value": got[m["name"]]["value"],
                                         "unit": m["unit"]}
    return out


def spread_table(values_by_key):
    """Prints median, quartiles, min/max and (Q3 - Q1) / median per key."""
    summary = {}
    for key in sorted(values_by_key):
        vals = values_by_key[key]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        summary[key] = {"median": med, "q1": q1, "q3": q3, "min": min(vals),
                        "max": max(vals), "iqr_over_median": rel,
                        "runs": len(vals)}
        print(f"{key}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"min {min(vals):.6g} max {max(vals):.6g} "
              f"spread {100 * rel:.2f}% (runs {len(vals)})")
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()

    design = load_json(os.path.join(HERE, "design.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = list(design["workloads"])
    if args.workload != "all" and args.workload not in names:
        log(f"unknown workload '{args.workload}'; one of {names} or all")
        return 2
    chosen = names if args.workload == "all" else [args.workload]

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    reports = []
    values = {}
    for rnd in range(args.repeat):
        order = chosen if rnd % 2 == 0 else list(reversed(chosen))
        for name in order:
            seed = args.seed + rnd
            report = run_one(binary, design, name, seed, args.seconds,
                             args.trace)
            if report is None:
                return 1
            print_report(report, args.trace)
            reports.append(report)
            metrics = report["layers"] if args.trace else report["metrics"]
            for key, m in metrics.items():
                values.setdefault(f"{name} {key}", []).append(m["value"])
    if args.repeat > 1:
        summary = spread_table(values)
        print(json.dumps({"repeat": args.repeat, "seed": args.seed,
                          "summary": summary}))

    line = result_line(reports, bench, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
