#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --repeat R [--seconds S] [--seed N]

Run from the root of a checkout.  It builds perfbench/onion_perf.exe with
dune, generates the workload's inputs from the seed under perfbench/.work,
runs the measuring program on them and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  A failed correctness check, build or run exits non-zero
without a result line.  --repeat runs every workload R times, alternating
their order, and prints the median and quartiles of every metric.  See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "onion_perf.exe")
# Set-ups per untraced run; setup_s reports their median.
SETUPS = 3
# Budget for a whole run after the build: a fixed allowance for set-up
# and checks plus twice the measured time (a traced run measures 5/3 of
# --seconds); --repeat has none.  170 s at the default 20 s.
def run_budget(seconds):
    return 130 + 2 * seconds


deadline = None


class Failure(Exception):
    pass


def fail(msg):
    raise Failure(msg)


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def child_env():
    """The program's environment: compute domains and daemon workers
    pinned to at most the cores this process may use, the paged block
    cache at its default budget named explicitly, no fault injection,
    and no dune cache outside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ONION_")}
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    env["ONION_DOMAINS"] = str(max(1, min(2, cores)))
    env["ONION_BLOCK_CACHE_BYTES"] = str(256 * 1024 * 1024)
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    p = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/onion_perf.exe"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=850)
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def call(args, cwd):
    """Run the measuring program; return the JSON object on its last
    stdout line.  Its stderr (the daemon's shutdown log) passes through."""
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        p = subprocess.run([EXE] + args, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(args)}")
    lines = p.stdout.strip().splitlines()
    out = None
    if lines:
        try:
            out = json.loads(lines[-1])
        except ValueError:
            pass
    if p.returncode != 0:
        if out is not None:
            print("checks: " + json.dumps(out.get("checks", {})), file=sys.stderr)
        fail(f"exit {p.returncode}: {' '.join(args)}")
    if out is None:
        fail(f"no result from {' '.join(args)}")
    return out


def fresh_dir(work, name):
    d = os.path.join(work, name)
    if os.path.exists(d):
        shutil.rmtree(d)
    return d


def measure(workload, seed, seconds, trace, size, work):
    """One workload run: set up (SETUPS times when untraced), then
    measure.  Returns the measuring program's object plus setup_s."""
    gen = ["gen", "--workload", workload, "--seed", str(seed), "--size", size]
    gens = []
    for _ in range(1 if trace else SETUPS):
        d = fresh_dir(work, workload)
        gens.append(call(gen + ["--dir", d], work)["gen_s"])
    out = call(["run", "--workload", workload, "--seed", str(seed), "--dir", d,
                "--seconds", repr(seconds), "--trace", "1" if trace else "0",
                "--size", size], work)
    with open(os.path.join(d, "dropped.txt")) as f:
        out["notes"]["keyword_named_drawn_out"] = f.read().strip()
    out["setup_s"] = statistics.median(gens) + float(out["notes"]["warmup_s"])
    shutil.rmtree(d)
    return out


def single(args, spec, work):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.trace:
        # A traced run measures the named workload for --seconds, then the
        # other two for a third of that each, so that every per-layer
        # metric comes from the workload it belongs to.  attempted and
        # failed count the named workload only.
        main = measure(args.workload, args.seed, args.seconds, True, args.size, work)
        metrics = dict(main["metrics"])
        checks = {args.workload: main["checks"]}
        for other in [w for w in names if w != args.workload]:
            o = measure(other, args.seed, max(1.0, args.seconds / 3), True, args.size, work)
            metrics.update(o["metrics"])
            checks[other] = o["checks"]
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        main = measure(args.workload, args.seed, args.seconds, False, args.size, work)
        metrics = dict(main["metrics"])
        metrics["setup_s"] = {"value": main["setup_s"], "unit": "s"}
        checks = {args.workload: main["checks"]}
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [m for m in wanted if m not in metrics]
    if missing:
        fail(f"metrics not measured: {missing}")
    for k, v in main["notes"].items():
        print(f"{args.workload} {k}: {v}")
    print("checks: " + json.dumps(checks))
    result = {
        "correct": main["correct"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {m: metrics[m] for m in wanted},
    }
    print(json.dumps(result))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args, spec, work):
    """Every workload args.repeat times, alternating the order, on seeds
    args.seed, args.seed + 1, ...; then one traced run of each.  Prints
    the median and quartiles of every metric and the tracing overhead."""
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in names}
    for i in range(args.repeat):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            t0 = time.monotonic()
            o = measure(w, args.seed + i, args.seconds, False, args.size, work)
            o["metrics"]["setup_s"] = {"value": o["setup_s"], "unit": "s"}
            runs[w].append(o)
            print(f"run {i + 1}/{args.repeat} {w} seed {args.seed + i}: "
                  f"{o['attempted']} ops, {o['failed']} failed, "
                  f"{time.monotonic() - t0:.1f} s wall", flush=True)
    traced = {w: measure(w, args.seed, args.seconds, True, args.size, work) for w in names}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print()
    print(f"{'workload':<11} {'metric':<12} {'unit':<5} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'iqr/med':>8} {'bound':>6}")
    for w in names:
        for m in [e["name"] for e in spec["end_to_end"]]:
            vals = [o["metrics"][m]["value"] for o in runs[w]]
            q1, med, q3 = quartiles(vals)
            unit = runs[w][0]["metrics"][m]["unit"]
            print(f"{w:<11} {m:<12} {unit:<5} {q1:>11.4f} {med:>11.4f} {q3:>11.4f} "
                  f"{(q3 - q1) / med:>8.4f} {bounds[m]:>6}")
        shares = sorted({o["failed"] / o["attempted"] for o in runs[w]})
        print(f"{w:<11} failed share over {len(runs[w])} runs: {shares}")
    print()
    print("traced run (seed %d), per-layer metrics:" % args.seed)
    for w in names:
        for k, v in traced[w]["metrics"].items():
            print(f"  {w:<11} {k:<36} {v['value']:>12.4f} {v['unit']}")
        p50 = statistics.median([o["metrics"]["op_p50_ms"]["value"] for o in runs[w]])
        tp50 = traced[w]["metrics"]["trace." + w.replace("-", "_") + "_op_p50_ms"]["value"]
        print(f"  {w:<11} tracing overhead on op p50: {tp50 - p50:+.4f} ms "
              f"(traced {tp50:.4f} vs untraced median {p50:.4f})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not args.repeat and args.workload is None:
        ap.error("--workload is required")
    build()
    if not args.repeat:
        global deadline
        deadline = time.monotonic() + run_budget(args.seconds)
    work = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.repeat:
            repeat(args, spec, work)
        else:
            single(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, ".work"))
        except OSError:
            pass


if __name__ == "__main__":
    try:
        main()
    except Failure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
