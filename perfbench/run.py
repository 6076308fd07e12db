#!/usr/bin/env python3
"""localflow benchmark.

    python3 perfbench/run.py --workload reopt-local --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy, and the run fails (exit 2) when that
tree is missing. Inputs are generated from --seed. The workload runs as a
closed loop of a fixed number of requests, --seconds at the workload's
nominal rate, then every output is checked by the oracle.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines before it give the
environment and the per-workload detail metrics with their sample counts.
A JSON record of the run (and, traced, the spans) is written under
perfbench/results/. See perfbench/README.md for what each metric means.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time


def _workload_argument(argv):
    for i, arg in enumerate(argv):
        if arg == "--workload" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--workload="):
            return arg.split("=", 1)[1]
    return None


# decay-sweep runs the CLI's worker pool with one thread per processor.
# OpenBLAS would start a pool of its own under each worker and ask for more
# threads than there are processors, so that workload runs BLAS on one
# thread. OpenBLAS reads the setting when numpy loads it, before the
# arguments are parsed.
if _workload_argument(sys.argv[1:]) == "decay-sweep":
    os.environ["LOCALFLOW_THREADS"] = str(os.cpu_count() or 1)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from oracle import OracleError  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import Record, latency, p50  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("light_ms_p50", "ms"), ("heavy_ms_p50", "ms"))

# printed in place of a percentile that failed requests made infinite
WORST = sys.float_info.max


def import_library():
    """Import localflow from this checkout's src/ tree only."""
    if not os.path.isfile(os.path.join(SRC, "localflow", "__init__.py")):
        raise ImportError("no localflow source tree at %s" % SRC)
    sys.path.insert(0, SRC)
    import localflow
    from localflow import cli  # noqa: F401  (a layer the tracer wraps)
    if os.path.dirname(os.path.abspath(localflow.__file__)) != \
            os.path.join(SRC, "localflow"):
        raise ImportError("localflow imported from %s, not from %s"
                          % (localflow.__file__, SRC))
    return localflow


def source_revision():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return None


def source_digest():
    h = hashlib.sha256()
    top = os.path.join(SRC, "localflow")
    for name in sorted(os.listdir(top)):
        if name.endswith(".py"):
            with open(os.path.join(top, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(args):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "LOCALFLOW_THREADS": os.environ.get("LOCALFLOW_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": source_revision(), "src_sha256": source_digest()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, tracer, round_):
    if tracer:
        tracer.request = "setup-%d" % round_
        tracer.install(workload.lf)
    gc.collect()
    t0 = time.perf_counter()
    try:
        workload.setup()
    finally:
        t1 = time.perf_counter()
        if tracer:
            tracer.uninstall()
            tracer.request = None
    return t1 - t0


def request_count(workload, seconds):
    """The number of requests a run makes: --seconds at the workload's
    nominal rate, and at least two of each class. The count depends on
    --seconds alone, never on how fast this machine runs, so two runs of
    the same seed make the same requests and fail the same ones."""
    return max(2 * len(workload.classes), round(seconds * workload.rate))


def closed_loop(workload, count, tracer):
    """Run `count` requests back to back. The set-up rounds are spread
    evenly through them, so that their median sees the same machine as the
    requests do; the first one comes before any request. Set-up is traced
    when a tracer is given, requests never."""
    setup_times, records = [], []
    stream = None
    for i in range(count):
        while (len(setup_times) < workload.setups
               and i >= len(setup_times) * count / workload.setups):
            setup_times.append(timed_setup(workload, tracer,
                                           len(setup_times)))
            stream = stream or workload.requests()
        records.append(workload.execute(next(stream)))
    while len(setup_times) < workload.setups:   # fewer requests than rounds
        setup_times.append(timed_setup(workload, tracer, len(setup_times)))
    return setup_times, records


def replay(workload, records, tracer):
    """Execute the same requests again, one traced request id each."""
    out = []
    for rec in records:
        tracer.request = rec.index
        out.append(workload.execute(Record(rec.index, rec.cls, rec.inputs)))
    tracer.request = None
    return out


def check_all(workload, records):
    for rec in records:
        if rec.failed:
            continue
        try:
            workload.check(rec)
        except OracleError as exc:
            rec.error = "oracle: %s" % exc
            rec.wrong = True
        except Exception as exc:  # a check that cannot run rejects too
            rec.error = "oracle could not check: %s: %s" % (
                type(exc).__name__, exc)
            rec.wrong = True


def class_p50(records, cls):
    return p50(latency(records, cls))


def run(args, lf):
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, "work-%d" % os.getpid())
    workload = workloads.WORKLOADS[args.workload](lf, args.size, args.seed,
                                                  workdir)
    tracer = Tracer() if args.trace else None
    try:
        # a traced run measures untraced for half the time, then replays
        # the same requests traced
        setup_times, records = closed_loop(
            workload, request_count(
                workload, args.seconds / 2.0 if tracer else args.seconds),
            tracer)
        rss = peak_rss_mb()
        traced = []
        replays = {}
        if tracer:
            tracer.install(lf)
            traced = replay(workload, records, tracer)
            tracer.uninstall()
            if hasattr(workload, "replay_seconds"):
                replays = {name: workload.replay_seconds(name)
                           for name in workload.instances}

        workload.prepare_oracle()
        check_all(workload, records + traced)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    everything = records + traced
    attempted = len(everything)
    failed = sum(r.failed for r in everything)
    correct = not any(r.wrong or r.unexpected for r in everything)
    e2e = {"setup_s": p50(setup_times), "peak_rss_mb": rss,
           "light_ms_p50": class_p50(records, workload.light),
           "heavy_ms_p50": class_p50(records, workload.heavy)}
    details = {"setup_s": (e2e["setup_s"], "s", len(setup_times)),
               "peak_rss_mb": (rss, "MB", 1),
               "failed_frac": (failed / attempted, "ratio", attempted)}
    details.update(workload.details(records))

    if tracer:
        overhead = {
            "light": class_p50(traced, workload.light)
            - e2e["light_ms_p50"],
            "heavy": class_p50(traced, workload.heavy)
            - e2e["heavy_ms_p50"]}
        cli_overhead = {name: class_p50(records, name) / 1e3 - secs
                        for name, secs in replays.items()}
        ball_edges = (workload.ball_edges(traced)
                      if hasattr(workload, "ball_edges") else [])
        metrics = per_layer_metrics(tracer.spans, traced, overhead,
                                    cli_overhead, ball_edges)
        spans_path = os.path.join(RESULTS, "spans-%s-seed%d.jsonl"
                                  % (args.workload, args.seed))
        tracer.write(spans_path)
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}

    report = {}
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            correct = False
            value = WORST
        report[name] = {"value": value, "unit": unit}
    failures = {}    # failure messages with their numbers masked
    for rec in everything:
        if rec.failed:
            key = re.sub(r"\d+(\.\d+)?(e[-+]?\d+)?", "#", rec.error)[:160]
            failures[key] = failures.get(key, 0) + 1
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": report}, details, setup_times, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small instances")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        lf = import_library()
    except ImportError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    result, details, setup_times, failures = run(args, lf)
    for name, (value, unit, count) in sorted(details.items()):
        print("# %s = %.6g %s (n=%d)" % (name, value, unit, count))
    for message, count in sorted(failures.items()):
        print("# failed x%d: %s" % (count, message))
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump({"env": env, "result": result,
                   "details": {k: {"value": v, "unit": u, "n": n}
                               for k, (v, u, n) in details.items()},
                   "setup_times_s": setup_times, "failures": failures},
                  fh, indent=2, sort_keys=True, allow_nan=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
