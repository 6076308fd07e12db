#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It
  1. runs every workload at the tiny size, untraced and traced, and checks
     that the last output line holds exactly the metrics BENCHMARK.json
     names, each with its unit, and that every output passed its oracle;
  2. hands each oracle a deliberately corrupted output (a flow shifted on
     one edge, an altered decay row) and checks that it is rejected;
  3. checks that the benchmark exits non-zero, printing no result, in a
     directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

import oracle
import run
import workloads

SEED = 3
FAILURES = []


def expect(ok, message):
    print("%s %s" % ("ok  " if ok else "FAIL", message), flush=True)
    if not ok:
        FAILURES.append(message)


def run_benchmark(cwd, name, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--size",
         "tiny"], cwd=cwd, capture_output=True, text=True, timeout=300)


def check_outputs(spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for w in spec["workloads"]:
            out = run_benchmark(run.ROOT, w["name"], trace)
            label = "%s --trace %d" % (w["name"], trace)
            if out.returncode != 0:
                expect(False, "%s exited %d: %s" % (label, out.returncode,
                                                    out.stderr[-500:]))
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   "%s prints the four result keys" % label)
            expect(result["correct"] is True and result["attempted"] >= 1,
                   "%s: every output passed its oracle" % label)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted,
                   "%s prints every %s metric with its unit" % (label,
                                                                section))
            expect(all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   "%s metric values are finite numbers" % label)


def rejects(workload, rec, corrupt, what):
    bad = copy.deepcopy(rec)
    bad.output = corrupt(copy.deepcopy(rec.output))
    try:
        workload.check(bad)
    except oracle.OracleError as exc:
        expect(True, "%s oracle rejects %s (%s)" % (workload.name, what,
                                                    str(exc)[:70]))
        return
    expect(False, "%s oracle accepts %s" % (workload.name, what))


def shifted(x, k, delta=1e-3):
    x = x.copy()
    x[k] += delta
    return x


def check_oracles(lf):
    made = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(lf, "tiny", SEED, os.path.join(run.RESULTS, "selftest-work"))
        w.setup()
        stream = w.requests()
        recs = [w.execute(next(stream)) for _ in range(2 * len(w.classes))]
        w.prepare_oracle()
        light, heavy = (next(r for r in recs if not r.failed and r.cls == c)
                        for c in (w.light, w.heavy))
        w.check(copy.deepcopy(light))
        w.check(copy.deepcopy(heavy))
        made[name] = (w, light, heavy)

    w, rec, heavy = made["reopt-local"]
    ball_edges = w.oracle.ball(rec.inputs["center"], rec.inputs["radius"])[1]
    outside = np.setdiff1d(np.arange(w.g.n_edges), ball_edges)
    rejects(w, rec, lambda x: shifted(x, ball_edges[0]),
            "a flow shifted on one ball edge")
    if len(outside):
        rejects(w, rec, lambda x: shifted(x, outside[0]),
                "a flow shifted on one frozen edge")
    # a circulation keeps the iterate feasible and the boundary intact, so
    # only the replay of the t steps can reject it; a radius-2 ball is a
    # tree and has none, so it goes on the larger ball
    inside, edges = w.oracle.ball(heavy.inputs["center"],
                                  heavy.inputs["radius"])
    sub, _ = w.oracle.restricted(inside, edges, w.b)
    z = np.random.default_rng(0).standard_normal(sub.m)
    z -= sub.transpose(sub.grounded_inverse(np.ones(sub.m)) @ sub.apply(z))

    def circulated(x):
        x = x.copy()
        x[edges] += 1e-3 * z / np.abs(z).max()
        return x
    rejects(w, heavy, circulated, "a circulation added inside the ball")

    w, rec, _ = made["global-solve"]
    rejects(w, rec, lambda out: (shifted(out[0], 0), out[1], out[2]),
            "a solution shifted on one edge")
    rejects(w, rec, lambda out: (out[0], out[1], shifted(out[2], 0)),
            "a derivative shifted on one edge")
    inc = w.oracle.inc
    z = np.random.default_rng(1).standard_normal(inc.m)
    z -= inc.transpose(w.oracle.ground_inv @ inc.apply(z))
    rejects(w, rec, lambda out: (out[0] + 1e-3 * z / np.abs(z).max(),
                                 out[1], out[2]),
            "a circulation added to the solution (feasible, not optimal)")

    w, _, rec = made["decay-sweep"]

    def altered(rows, k, field, value):
        row = list(rows[k])
        row[field] = value(row[field])
        rows[k] = tuple(row)
        return rows

    far = int(np.argmax([r[0] for r in rec.output]))
    rejects(w, rec, lambda rows: altered(rows, far, 1,
                                         lambda m: m * (1 + 1e-6)),
            "one decay row's measured value altered")
    rejects(w, rec, lambda rows: altered(rows, 0, 0, lambda d: d + 1),
            "one decay row's distance altered")
    rejects(w, rec, lambda rows: altered(rows, 0, 2, lambda b: 0.0),
            "one decay row's bound below its measured value")
    rejects(w, rec, lambda rows: rows[:-1], "a missing decay row")
    shutil.rmtree(os.path.join(run.RESULTS, "selftest-work"),
                  ignore_errors=True)


def check_bare_directory():
    bare = os.path.join(run.RESULTS, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(run.HERE):
        if name.endswith(".py") or name.endswith(".md"):
            shutil.copy(os.path.join(run.HERE, name),
                        os.path.join(bare, "perfbench"))
    try:
        out = run_benchmark(bare, "global-solve", 0)
        expect(out.returncode != 0 and '"metrics"' not in out.stdout,
               "without src/ the benchmark exits %d and prints no result"
               % out.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    lf = run.import_library()
    os.makedirs(run.RESULTS, exist_ok=True)
    check_outputs(spec)
    check_oracles(lf)
    check_bare_directory()
    print("%d check(s) failed" % len(FAILURES) if FAILURES
          else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
