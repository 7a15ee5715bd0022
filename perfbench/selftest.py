"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Runs every workload of BENCHMARK.json
at tiny sizes (--smoke) for one second, untraced and traced, and
requires each result line to carry exactly the declared metrics with
their units, every output check to pass and no operation to fail.  It
also requires a directory holding only the benchmark's own files to be
refused without a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench-selftest")


def run(workload, trace, cwd=ROOT):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(bench, workload, trace, proc):
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s exited %d: %s" % (where, proc.returncode, proc.stderr[-2000:])]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True:
        errors.append("%s: a check failed:\n%s" % (where, "\n".join(lines[:-1])))
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append("%s: attempted %s, failed %s"
                      % (where, result.get("attempted"), result.get("failed")))
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result.get("metrics", {})
    if sorted(got) != sorted(want):
        errors.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s"
                      % (where, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        value = m.get("value")
        if m.get("unit") != want.get(name):
            errors.append("%s: %s has unit %s, want %s" % (where, name, m.get("unit"), want.get(name)))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s = %r" % (where, name, value))
        elif not trace and value <= 0:
            errors.append("%s: end-to-end %s = %r is not positive" % (where, name, value))
    return errors


def check_bare():
    """The benchmark's own files alone must be refused without a result."""
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = run("grid_campaign", 0, cwd=bare)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["a directory without the sources was not refused"]
    return []


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    errors = check_bare()
    for w in bench["workloads"]:
        for trace in (0, 1):
            errors += check_result(bench, w["name"], trace, run(w["name"], trace))
    for e in errors:
        print("FAIL", e)
    print("perfbench self-test %s" % ("failed" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
