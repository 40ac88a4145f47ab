#!/usr/bin/env python3
"""FungusBench: one command per workload run.

    python3 fungusbench/run.py --workload serve_scan --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds fungusd and the fungusbench driver
from source (CMake, Release) under $CARGO_TARGET_DIR (default
.bench_build), runs one workload in a fresh per-run directory there, and
prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics (0 where a layer does no
work on the workload), and the per-layer table with span self times is
written to <build>/layers/<workload>.txt.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"fungusbench: {message}", file=sys.stderr)
    reap_orphans()
    sys.exit(code)


def become_subreaper():
    """fungusd children orphaned by a driver that died (they get SIGKILL
    from the kernel then) are reparented here, so reap_orphans can wait
    for them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_orphans(deadline_s=10):
    end = time.time() + deadline_s
    while time.time() < end:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def build(build_dir):
    """Configures once, then builds the two targets (a no-op when fresh)."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "fungusbench",
                  "fungusd", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed ({' '.join(step[:2])}); see {log_path}")


def run_driver(args, build_dir, workdir):
    cmd = [os.path.join(build_dir, "fungusbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fungusd", os.path.join(build_dir, "fungusdb", "tools", "fungusd"),
           "--workdir", workdir]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def forward(signum, _frame):
        # The driver kills and reaps its fungusd children on SIGTERM.
        child.send_signal(signal.SIGTERM)
        child.wait()
        reap_orphans()
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, forward)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            child.kill()  # its children die with it (parent-death signal)
            child.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if child.returncode != 0:
        fail(f"driver exited with {child.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


# --- Traced runs: span self times and the per-layer table. ---

def self_times(spans):
    """spans: list of (name, tid, start, end, parent-or-None). A span's
    self time is its duration minus the part its children cover."""
    by_id = {}
    children = {}
    for i, (name, tid, start, end, parent) in enumerate(spans):
        by_id[i] = (name, start, end)
        if parent is not None:
            children.setdefault(parent, []).append(i)
    totals = {}
    for i, (name, start, end) in by_id.items():
        covered = 0
        cursor = start
        for c in sorted(children.get(i, []), key=lambda c: by_id[c][1]):
            c_start, c_end = max(by_id[c][1], cursor), min(by_id[c][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += (end - start) - covered
    return totals


def bench_spans(path):
    if not os.path.exists(path):
        return []
    rows = [json.loads(line) for line in open(path) if line.strip()]
    index = {r["id"]: i for i, r in enumerate(rows)}
    return [(r["name"], 0, r["start_us"], max(r["end_us"], r["start_us"]),
             index.get(r["parent"])) for r in rows]


def chrome_spans(path):
    """Parents from nesting: within one thread, a span inside another."""
    if not os.path.exists(path):
        return []
    try:
        events = json.load(open(path)).get("traceEvents", [])
    except ValueError:
        return []
    events = sorted((e for e in events if e.get("ph") == "X"),
                    key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    spans = []
    stack = []
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        while stack and (spans[stack[-1]][1] != e["tid"] or
                         spans[stack[-1]][3] < end):
            stack.pop()
        spans.append((e["name"], e["tid"], start, end,
                      stack[-1] if stack else None))
        stack.append(len(spans) - 1)
    return spans


def write_layer_table(args, spec, result, metrics, workdir, build_dir):
    out_dir = os.path.join(build_dir, "layers")
    os.makedirs(out_dir, exist_ok=True)
    lines = [f"# FungusBench per-layer table: {args.workload}, seed {args.seed}, "
             f"{args.seconds} s, {os.cpu_count()} cores", ""]
    lines.append(f"{'metric':40} {'value':>16} unit")
    for m in spec["per_layer"]:
        lines.append(f"{m['name']:40} {metrics[m['name']]['value']:16.4f} {m['unit']}")
    untraced = os.path.join(build_dir, "last", f"{args.workload}-{args.seed}.json")
    if os.path.exists(untraced):
        base = json.load(open(untraced))
        lines += ["", "tracing overhead (traced run against the last untraced "
                  "run with the same seed):"]
        for name in ("ops_per_s", "op_p50_us", "op_p99_us"):
            if name in base and name in result["metrics"]:
                b, t = base[name], result["metrics"][name]["value"]
                lines.append(f"  {name:12} untraced {b:12.2f} traced {t:12.2f} "
                             f"({(t - b) / b * 100:+.1f}%)")
    for title, spans in (
            ("benchmark spans (calls into each layer)",
             bench_spans(os.path.join(workdir, "spans.jsonl"))),
            ("fungusd spans (\\trace dump; the ring keeps the latest events)",
             chrome_spans(os.path.join(workdir, "fungusd_trace.json"))),
            ("in-process library spans",
             chrome_spans(os.path.join(workdir, "inprocess_trace.json")))):
        totals = self_times(spans)
        if not totals:
            continue
        lines += ["", title, f"  {'span':28} {'count':>9} {'total_ms':>12} "
                  f"{'self_ms':>12} {'self_us/call':>13}"]
        for name, (n, total, own) in sorted(totals.items(),
                                            key=lambda kv: -kv[1][2]):
            lines.append(f"  {name:28} {n:9d} {total / 1e3:12.3f} "
                         f"{own / 1e3:12.3f} {own / n:13.2f}")
    path = os.path.join(out_dir, f"{args.workload}.txt")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    become_subreaper()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no FungusDB sources next to the benchmark; run from a "
             "checkout of the repository", code=2)
    spec = json.load(open(spec_path))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}", code=2)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "fungusbench")
    binary = os.path.join(build_dir, "fungusbench")
    built_before = os.path.getmtime(binary) if os.path.exists(binary) else None
    build(build_dir)
    if os.path.getmtime(binary) != built_before:
        time.sleep(5)  # let the machine settle after a compile on every core

    workdir = os.path.join(build_dir, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result = run_driver(args, build_dir, workdir)
        if args.trace == 0:
            metrics = {}
            for m in spec["end_to_end"]:
                if m["name"] not in result["metrics"]:
                    fail(f"driver did not measure {m['name']}")
                metrics[m["name"]] = {"value": result["metrics"][m["name"]]["value"],
                                      "unit": m["unit"]}
            last = os.path.join(build_dir, "last")
            os.makedirs(last, exist_ok=True)
            with open(os.path.join(last, f"{args.workload}-{args.seed}.json"),
                      "w") as f:
                json.dump({k: v["value"] for k, v in metrics.items()}, f)
        else:
            layers = dict(result["layers"])
            layers["trace.ops_per_s"] = result["metrics"]["ops_per_s"]["value"]
            layers["trace.op_p50_us"] = result["metrics"]["op_p50_us"]["value"]
            for name, n in result["faults"].items():
                layers[f"faults.{name}"] = n
            # A layer that does no work on this workload reads 0.
            metrics = {m["name"]: {"value": layers.get(m["name"], 0.0),
                                   "unit": m["unit"]} for m in spec["per_layer"]}
            table = write_layer_table(args, spec, result, metrics, workdir,
                                      build_dir)
    finally:
        reap_orphans()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  {args.seconds} s  "
          f"trace {args.trace}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          + "  ".join(f"{k}={v}" for k, v in sorted(result["faults"].items())))
    for m in result["mismatches"]:
        print(f"  MISMATCH: {m}")
    if args.trace == 0:
        for name, m in metrics.items():
            print(f"  {name:24} {m['value']:14.4f} {m['unit']}")
    else:
        print(f"  per-layer table: {table}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
