#!/usr/bin/env python3
"""Quick self-test of the benchmark, at the tiny input size.

    python3 perfbench/selftest.py

Runs every workload untraced and one traced run (which traces all three)
for one second each, and asserts that every metric BENCHMARK.json names
is printed with its unit, that the result line has exactly its four
keys, and that every correctness check ran on at least one case and
passed.  Then copies BENCHMARK.json and perfbench/ alone into a fresh
directory under perfbench/.work and asserts that the benchmark fails
there without printing a result.  Takes about fifteen seconds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CHECKS = {
    "query-flat": ["reply_equals_cold_reference", "tuples_satisfy_where", "only_keyword_probe_fails"],
    "edit-lint": ["incremental_lint_equals_cold", "edit_in_effect_on_disk",
                  "edited_sources_equal_replayed_originals"],
    "cold-open": ["routed_answer_equals_full_space", "tuples_satisfy_where", "only_keyword_probe_fails"],
}


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def expect(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload, trace in [(w["name"], 0) for w in spec["workloads"]] + [("query-flat", 1)]:
        p = run(ROOT, workload, trace)
        label = f"{workload} trace={trace}"
        expect(p.returncode == 0, f"{label}: exit {p.returncode}\n{p.stderr[-2000:]}")
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"{label}: result keys {sorted(result)}")
        expect(result["correct"] is True, f"{label}: not correct")
        expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
               f"{label}: attempted {result['attempted']}")
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        expect(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
               f"{label}: metric names differ from BENCHMARK.json")
        for m in wanted:
            got = result["metrics"][m["name"]]
            expect(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
            expect(isinstance(got["value"], (int, float)), f"{label}: {m['name']} value {got['value']}")
        checks = json.loads(next(l for l in lines if l.startswith("checks: "))[len("checks: "):])
        ran = [workload] if not trace else list(CHECKS)
        for w in ran:
            expect(sorted(checks.get(w, {})) == sorted(CHECKS[w]), f"{label}: {w} checks {checks.get(w)}")
            for name, c in checks[w].items():
                expect(c["cases"] > 0 and c["bad"] == 0, f"{label}: {w} check {name} {c}")
        print(f"ok  {label}: {result['attempted']} ops, {result['failed']} failed, "
              f"{len(result['metrics'])} metrics")
    # Alone, without the program it measures, the benchmark must fail
    # without a result line.
    bare = os.path.join(HERE, ".work", f"selftest-bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work"))
        p = run(bare, "query-flat", 0)
        expect(p.returncode != 0, "bare checkout: exit 0")
        last = (p.stdout.strip().splitlines() or [""])[-1]
        expect('"metrics"' not in last, "bare checkout: printed a result")
        print(f"ok  bare checkout fails with exit {p.returncode} and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, ".work"))
        except OSError:
            pass


if __name__ == "__main__":
    main()
