#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/bench.exe with dune
(from source, into the checkout's _build), runs one workload and relays its
output; the last line is the result object described in perfbench/README.md.
Exits nonzero without a result when the checkout, the build or the run is
broken, or when an operation fails its correctness check.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the net workload forks peer processes) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", os.path.join("lib", "core"), os.path.join("lib", "net")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a source checkout (missing %s under %s)" % (need, ROOT), 2)
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH", 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    rc, _ = run_group([dune, "build", "--root", ROOT, "./perfbench/bench.exe"], BUILD_TIMEOUT_S,
                      cwd=ROOT, env=env, stdout=sys.stderr)
    if rc != 0 or not os.path.exists(EXE):
        die("build failed", 3)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    rc, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if rc is None:
        die("run timed out after %d s" % RUN_TIMEOUT_S, 4)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(rc)


if __name__ == "__main__":
    main()
