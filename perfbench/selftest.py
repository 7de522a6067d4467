#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs a small variant of every workload, untraced and traced, and checks
that each metric BENCHMARK.json names is printed with its unit, that the
outputs are correct and that the exact-count sentinels repeat.  Then
runs the negative controls — a wrong expected map, a tampered parity
report and a tampered result payload — each of which must fail.
Finally checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
Takes under a minute on a 2-core box after the first build.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SENTINELS = ("engine.deliveries", "engine.total_bits", "engine.max_state_bits",
             "iset.terminal_intervals")
failures = []


def run(workload, trace, *extra, cwd=ROOT):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--small", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return p


def result(p):
    lines = p.stdout.strip().split("\n")
    return json.loads(lines[-1])


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    for w in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [run(w, trace) for _ in range(2 if trace else 1)]
            for p in runs:
                expect(p.returncode == 0, f"{w} trace={trace}: exit 0")
            r = result(runs[0])
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} trace={trace}: correct, 0 failed of {r['attempted']}")
            ms = r["metrics"]
            for m in bench[key]:
                got = ms.get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{w} trace={trace}: {m['name']} printed in {m['unit']}")
            expect(set(ms) == {m["name"] for m in bench[key]},
                   f"{w} trace={trace}: no undeclared metric")
            if key == "end_to_end":
                expect(ms["ok_frac"]["value"] == 1.0, f"{w}: ok_frac = 1")
            else:
                again = result(runs[1])["metrics"]
                for s in SENTINELS:
                    expect(ms[s]["value"] == again[s]["value"],
                           f"{w}: sentinel {s} repeats exactly")
            expect("failed_frac" in runs[0].stdout, f"{w} trace={trace}: failed_frac printed")

    for w, tamper in (("interval-protocols", "map"), ("scalar-engines", "parity"),
                      ("serve-mix", "result")):
        p = run(w, 0, "--tamper", tamper)
        r = result(p)
        expect(not r["correct"] and r["failed"] > 0
               and r["metrics"]["ok_frac"]["value"] < 1.0,
               f"{w} --tamper {tamper}: failed_frac > 0")

    bare = os.path.join(ROOT, "perfbench", "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    p = run(names[0], 0, cwd=bare)
    expect(p.returncode != 0 and '"correct"' not in p.stdout,
           "bare directory: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
