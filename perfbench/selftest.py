#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py [--seconds S] [--workload NAME ...]

Run from the root of a source checkout (about two minutes at the default
length). For every workload it checks that:

  * every metric BENCHMARK.json names prints, with its declared unit, in the
    untraced (--trace 0) and the traced (--trace 1) output, and every run is
    correct and exits 0;
  * the exact counts (alloc_mb_per_op, paper.*, rtts_per_op,
    engine.events_per_op and the other per-op counts, net.rtts_per_op)
    repeat bit-for-bit across two invocations with the same --seed;
  * another --seed changes the generated inputs but not the metric set.

Finally it checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Counts that must repeat exactly for a fixed seed.
EXACT_E2E = ["alloc_mb_per_op", "paper.Q", "paper.M", "paper.T", "rtts_per_op"]
EXACT_LAYER = ["engine.events_per_op", "query.calls_per_op",
               "protocol.sends_per_op", "protocol.bits_per_op",
               "protocol.receives_per_op", "arbiter.calls_per_op", "net.rtts_per_op"]


def fail(msg):
    print("FAIL " + msg)
    sys.exit(1)


def run(workload, seed, seconds, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return p.returncode, p.stdout.splitlines()


def result(workload, seed, seconds, trace):
    rc, lines = run(workload, seed, seconds, trace)
    if rc != 0 or not lines:
        fail("%s seed %d trace %d: exit %d" % (workload, seed, trace, rc))
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(res)))
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail("%s seed %d trace %d: incorrect run %s" % (workload, seed, trace, lines[-1]))
    diag = json.loads(lines[-2].split(" ", 1)[1])
    return res["metrics"], diag["inputs"]


def check_units(workload, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        fail("%s: metric set %s, expected %s" % (workload, sorted(metrics), sorted(want)))
    for name, unit in want.items():
        m = metrics[name]
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            fail("%s: %s printed as %s, expected unit %s" % (workload, name, m, unit))


def check_exact(workload, a, b, names):
    for name in names:
        if a[name]["value"] != b[name]["value"]:
            fail("%s: %s differs across invocations with one seed: %r vs %r"
                 % (workload, name, a[name]["value"], b[name]["value"]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    for w in names:
        e2e_a, inputs_a = result(w, 7, args.seconds, 0)
        e2e_b, inputs_b = result(w, 7, args.seconds, 0)
        e2e_c, inputs_c = result(w, 8, args.seconds, 0)
        layer_a, _ = result(w, 7, args.seconds, 1)
        layer_b, _ = result(w, 7, args.seconds, 1)
        for m in (e2e_a, e2e_b, e2e_c):
            check_units(w, m, SPEC["end_to_end"])
        for m in (layer_a, layer_b):
            check_units(w, m, SPEC["per_layer"])
        check_exact(w, e2e_a, e2e_b, EXACT_E2E)
        check_exact(w, layer_a, layer_b, EXACT_LAYER)
        if inputs_a != inputs_b:
            fail("%s: one seed generated different inputs" % w)
        if inputs_a == inputs_c:
            fail("%s: another seed generated the same inputs" % w)
        print("ok %s" % w, flush=True)

    # A directory holding only the benchmark's own files must be refused.
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
    rc, lines = run(names[0], 1, 1, 0, cwd=bare)
    shutil.rmtree(bare)
    if rc == 0 or any(l.startswith("{\"correct\"") for l in lines):
        fail("bare directory: exit %d, output %s" % (rc, lines))
    print("ok bare directory refused (exit %d)" % rc)


if __name__ == "__main__":
    main()
