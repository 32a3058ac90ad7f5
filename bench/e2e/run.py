#!/usr/bin/env python3
"""End-to-end benchmark of the serving stack (STM -> serve -> wire -> router -> tuner).

Builds bench/e2e/autopn_e2e from this checkout, runs each workload as fresh
autopn_e2e processes, aggregates their raw measurements into the metrics named in
BENCHMARK.json, prints every metric by name and unit, and writes one result
JSON. The last line of stdout is a JSON object with the keys correct,
attempted, failed and metrics. The exit code is nonzero when any correctness
check of any process failed, or when autopn_e2e cannot be built.

  python3 bench/e2e/run.py                       # every workload, untraced
  python3 bench/e2e/run.py --workload tpcc-nested --seed 3 --seconds 30
  python3 bench/e2e/run.py --trace 1             # per-layer metrics
  python3 bench/e2e/run.py --repeat 5 --out A.json
  python3 bench/e2e/run.py --smoke               # correctness only, ~10 s

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, measured in traced processes, plus the tracing overhead
against untraced processes of the same run. See bench/e2e/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Processes per run. A serving run splits --seconds over PROCESSES processes
# of warm-up / open loop / closed loop each and reports medians over them:
# on a small shared VM, speed drifts over seconds to minutes, and thread
# placement differs from process to process, so many short processes spread
# over the run are steadier than a few long ones.
PROCESSES = 20
PHASE_SPLIT = {"warmup": 0.15, "open": 0.45, "closed": 0.40}
# autotune-shift runs one process for the whole run (the tuner needs the
# time), plus set-up-only processes: setup_s and rss_mb are their medians
# (the run's own memory grows with the throughput the tuner reaches, since
# TPC-C keeps every order).
SETUP_ONLY_PROCESSES = 15
# Grace on top of a process's own load time before it is killed; small
# enough that a hung run still ends within a few minutes.
PROCESS_TIMEOUT_GRACE = 15.0


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build():
    """Configures (once) and builds autopn_e2e; returns its path."""
    if not (ROOT / "src").is_dir():
        sys.exit("run.py: no src/ beside bench/e2e: needs a full source checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            sys.exit("run.py: build failed: " + " ".join(step))
    return out / "autopn_e2e"


def run_process(binary, args, budget):
    """Runs one autopn_e2e process; returns its JSON record (or a failure record)."""
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True, text=True,
                              timeout=budget + PROCESS_TIMEOUT_GRACE)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": "timed out", "args": args}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"correct": False}
    if proc.returncode != 0:
        record["correct"] = False
        record["stderr"] = proc.stderr[-2000:]
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def process_seed(seed, index):
    """Distinct, reproducible seed per process of a run."""
    return seed * 1000 + index


def run_workload(binary, workload, seed, seconds, trace, trace_dir):
    """One run of one workload: its processes and their raw records."""
    full, setup_only = [], []
    traced = []  # per process of `full`: run it with tracing?
    if workload == "autotune-shift":
        # Traced runs split the time between an untraced and a traced process
        # so the tracing overhead is measured within the run.
        layout = [(seconds / 2, False), (seconds / 2, True)] if trace else [(seconds, False)]
        for index, (duration, with_trace) in enumerate(layout):
            args = ["--workload", workload, "--seed", str(process_seed(seed, index)),
                    "--duration", repr(duration)]
            traced.append(with_trace)
            full.append((args, duration))
    else:
        budget = seconds / PROCESSES
        for index in range(PROCESSES):
            args = ["--workload", workload, "--seed", str(process_seed(seed, index))]
            for phase, share in PHASE_SPLIT.items():
                args += ["--" + phase, repr(budget * share)]
            traced.append(trace and index % 2 == 1)
            full.append((args, budget))
    records = []
    for index, ((args, budget), with_trace) in enumerate(zip(full, traced)):
        if with_trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
            args = args + ["--trace", "1", "--trace-out",
                           str(trace_dir / f"{workload}-seed{seed}-{index}.json")]
        record = run_process(binary, args, budget)
        record["traced"] = with_trace
        records.append(record)
    if workload == "autotune-shift":
        for index in range(SETUP_ONLY_PROCESSES):
            args = ["--workload", workload, "--setup-only",
                    "--seed", str(process_seed(seed, 100 + index))]
            setup_only.append(run_process(binary, args, 0.0))
    return records, setup_only


def aggregate(records, setup_only, trace):
    """Folds process records into the run's metrics (see README.md)."""
    untraced = [r for r in records if not r.get("traced")]
    traced = [r for r in records if r.get("traced")]

    def e2e(rs):
        return {
            "setup_s": median([r.get("setup_s", 0.0) for r in rs + setup_only]),
            "p50_ms": median([r.get("p50_ms", 0.0) for r in rs]),
            "p99_ms": median([median(r.get("p99_ms_slices", [])) for r in rs]),
            "capacity_rps": median([r.get("capacity_rps", 0.0) for r in rs]),
            "rss_mb": median([r.get("rss_mb", 0.0) for r in (setup_only or rs)]),
        }

    if not trace:
        values = e2e(untraced)
        units = E2E_UNITS
    else:
        values = {}
        for name in LAYER_UNITS:
            layer, metric = name.split(".", 1)
            samples = [r["layers"][layer][metric] for r in traced
                       if metric in r.get("layers", {}).get(layer, {})]
            # A layer the workload does not cross (no wire on the in-process
            # workloads, no tuner on the pinned ones) reads 0.
            values[name] = median(samples)
        base, with_trace = e2e(untraced), e2e(traced)
        # Client latency comes from the untraced processes of the run.
        values["client.p50_ms"] = base["p50_ms"]
        values["client.p99_ms"] = base["p99_ms"]
        values["trace.overhead_p50_frac"] = (
            (with_trace["p50_ms"] - base["p50_ms"]) / base["p50_ms"]
            if base["p50_ms"] else 0.0)
        values["trace.overhead_capacity_frac"] = (
            (base["capacity_rps"] - with_trace["capacity_rps"]) / base["capacity_rps"]
            if base["capacity_rps"] else 0.0)
        units = LAYER_UNITS
    every = records + setup_only
    return {
        "correct": all(r.get("correct") is True for r in every),
        # Processes whose generator fell behind its schedule (a host stall):
        # their latencies are suspect, but nothing the program did was wrong.
        "invalid_processes": sum(r.get("valid") is False for r in every),
        "attempted": int(sum(r.get("sent", 0) for r in every)),
        "failed": int(sum(r.get("failed", 0) for r in every)),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def machine_info(records):
    info = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu_model": "unknown",
        "compiler": next((r["compiler"] for r in records if "compiler" in r), "unknown"),
        "build_type": next((r["build_type"] for r in records if "build_type" in r),
                           "unknown"),
        "git_sha": "unknown",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            info["git_sha"] = proc.stdout.strip()
    return info


def print_table(workload, seed, result, trace):
    print(f"\n{workload} (seed {seed}, {'traced' if trace else 'untraced'}): "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} invalid_processes={result['invalid_processes']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")


def smoke(binary):
    """Correctness only: one short process per workload, no timing checks."""
    proc = subprocess.run([str(binary), "--smoke", "--workload", "all", "--seed", "1"],
                          capture_output=True, text=True, timeout=120)
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    for r in records:
        print(f"{r['workload']:20s} correct={r['correct']} sent={r.get('sent', 0)}")
    ok = proc.returncode == 0 and len(records) == len(WORKLOADS)
    if not ok:
        sys.stderr.write(proc.stderr[-4000:])
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="invocations, with seeds seed, seed+1, ...")
    parser.add_argument("--out", help="result file (default: under the build dir)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.smoke:
        sys.exit(0 if smoke(binary) else 1)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    trace_dir = build_dir() / "traces"
    invocations, all_records = [], []
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for seed in range(args.seed, args.seed + args.repeat):
        started = time.monotonic()
        results = {}
        for workload in workloads:
            records, setup_only = run_workload(binary, workload, seed, args.seconds,
                                               bool(args.trace), trace_dir)
            all_records += records
            result = aggregate(records, setup_only, bool(args.trace))
            result["processes"] = records + setup_only
            results[workload] = result
            print_table(workload, seed, result, bool(args.trace))
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                key = name if len(workloads) == 1 else f"{workload}/{name}"
                summary["metrics"][key] = metric
        invocations.append({"seed": seed, "trace": args.trace, "seconds": args.seconds,
                            "wall_s": time.monotonic() - started, "workloads": results})

    out = Path(args.out) if args.out else (
        build_dir() / "results" /
        f"{args.workload}-seed{args.seed}-trace{args.trace}-x{args.repeat}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": machine_info(all_records),
                               "invocations": invocations}, indent=1) + "\n")
    print(f"\nresult: {out}")
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
