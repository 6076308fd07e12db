#!/usr/bin/env python3
"""Localized-reoptimization scaling curve.

    OPENBLAS_NUM_THREADS=1 python3 tools/bench_curve.py --out BENCH.json
    OPENBLAS_NUM_THREADS=1 python3 tools/bench_curve.py --family k3 grid \
        --sizes 2000 20000 --radii 2 4 8 16 --out BENCH_k3_grid.json

For each family and n, on a graph of the family (`--family`, one or
more of: k3, a random 3-regular graph on n vertices, the default; grid,
the square grid-2d of side round(sqrt(n))) with quadratic costs
a ~ U[1, 1.02] and c ~ N(0, 1), the script times:
- the setup (`setup_ms`, the median of three): `generate`, the draw of a
  and c, and `ObjectiveBundle.from_arrays`;
- the file boundary (`load_ms`, the median of three): `DirectedGraph.load`
  of the instance's saved graph, then `ObjectiveBundle.from_spec` over its
  edge ids with a quadratic default and a log-cosh entry on every seventh
  edge, as the CLI reads its graph and costs files;
- the global `solve_exact`, the median of three solves, and the total
  CG iterations of one such solve from its stats record
  (`global_cg_iterations`);
- the global `solve_exact` on log-cosh costs with the same a and
  s ~ U[0, 1] (`global_logcosh_ms`, the median of three), and the total
  CG iterations of one such solve from its stats record
  (`logcosh_cg_iterations`);
- the error budget's spectral constants, `budget_for` (median of three), and
  records the certified bound `mu_bound` on the adjacency's second
  eigenvalue in magnitude that it computes;
- the decay sweep (`decay_ms`, three runs): `measure_decay` over every
  single edge for a unit perturbation across edge 0, as `localflow decay`
  makes it;
- the whole `localflow decay` call (`decay_cli_ms`, the median of three
  in-process `cli.main` calls) on the instance's saved files: its graph,
  its costs with one entry per edge, its demands and that perturbation.
  Its excess over `decay_ms_p50` is the file boundary: parsing the
  arguments, reading the files and writing the reports. Both decay
  columns are null where the library certifies no decay rate and refuses
  the sweep, as on the grid, whose walk is periodic;
- at each radius r, a request as the benchmark's reopt-local workload makes
  it: `ball_subgraph`, then `warm_start_reoptimize` with 30 steps from the
  base optimum, for a unit perturbation across a random edge (median over
  --requests requests);
- at each radius r, the build of a request, `ball_subgraph` plus the
  `LocalizedSolver` construction (median over the requests), and in an
  untimed second build its `tracemalloc` peak (`build_peak_kib`, the
  median over the requests), which stays flat in n when the build
  allocates by the ball;
- at each radius r, one localized step: on the same solver, STEP_PAIRS
  pairs of back-to-back runs of 1 and of 1 + STEP_REPEATS steps, and the
  median over the pairs of their difference / STEP_REPEATS. The
  difference leaves out the per-run work (the O(n) frozen-flow and
  domain checks, tree routing), and STEP_REPEATS = 1000 steps outweigh
  that work's jitter between two runs, which at n = 2e5 exceeds what 30
  steps cost. A tree ball (cycle rank 0) does no per-step work,
  so the median is over the requests whose ball has a cycle only
  (`step_requests` of them), and null when there are none. A step reads
  the costs of the ball's cycle support only, whose mean size is
  `cycle_support_mean` (0 on a tree ball).

Each `*_p50` comes with `*_p25` and `*_p75`, the quartiles of the same
samples. A change between two committed BENCH_*.json files that lies
inside that spread is noise, not a speed-up or a regression.

The north star is that the per-step time, and in time the per-request
time, stays flat in n at fixed r. The library is imported from ./src.
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import localflow as lf  # noqa: E402
from localflow import cli  # noqa: E402

STEPS = 30  # per timed request, as reopt-local makes it
STEP_REPEATS = 1000
STEP_PAIRS = 5
QUARTILES = (25, 50, 75)


def _ms(start):
    return (time.perf_counter() - start) * 1e3


FAMILIES = {
    "k3": lambda n, seed: lf.generate("random-k-regular", n=n, k=3,
                                      seed=seed),
    "grid": lambda n, seed: lf.generate("grid-2d", rows=round(math.sqrt(n)),
                                        cols=round(math.sqrt(n))),
}


def _instance(family, n, seed):
    """The quadratic instance on the family's graph for n, its random
    stream, and the median time in ms of three builds of its graph and
    cost bundle."""
    def build():
        rng = np.random.default_rng([seed, n])
        g = FAMILIES[family](n, seed)
        bundle = lf.ObjectiveBundle.from_arrays(
            "quadratic", rng.uniform(1.0, 1.02, g.n_edges),
            c=rng.standard_normal(g.n_edges))
        return g, bundle, rng
    (g, bundle, rng), setup_ms = _median_of_three(build)
    b = rng.standard_normal(g.n_vertices)
    return lf.FlowProblem(g, bundle, b - b.mean()), rng, setup_ms


def _load_ms(g, path):
    """The median time in ms of three reads of g's graph file `path`, each
    followed by `from_spec` over the read graph's edge ids."""
    spec = {"default": {"kind": "quadratic", "a": 1.0},
            "per_edge": {e: {"kind": "log-cosh", "a": 1.0, "s": 0.5}
                         for e in list(g.edge_index)[::7]}}

    def load():
        read = lf.DirectedGraph.load(path)
        lf.ObjectiveBundle.from_spec(spec, list(read.edge_index))
    return _median_of_three(load)[1]


def _save(problem, folder):
    """The paths of the files `localflow decay` reads, written to folder:
    the graph, its quadratic costs with one entry per edge, its demands
    and a unit perturbation across edge 0."""
    g, bundle, names = problem.graph, problem.bundle, problem.graph.vertices
    paths = {key: os.path.join(folder, key + ".json")
             for key in ("graph", "costs", "flow", "perturbation")}
    g.save(paths["graph"])
    for key, payload in (
            ("costs", {"per_edge": {
                e: {"kind": "quadratic", "a": a, "c": c} for e, a, c in zip(
                    g.edge_index, bundle.a.tolist(), bundle.c.tolist())}}),
            ("flow", dict(zip(names, problem.b.tolist()))),
            ("perturbation", {names[g.tails[0]]: 1.0,
                              names[g.heads[0]]: -1.0})):
        with open(paths[key], "w") as fh:
            json.dump(payload, fh)
    return paths


def _decay_cli_ms(paths):
    """The median time in ms of three in-process `localflow decay` calls
    on the saved files."""
    argv = ["decay", "--out", os.path.join(os.path.dirname(paths["graph"]),
                                           "out")]
    for key, path in paths.items():
        argv += ["--" + key, path]

    def call():
        if cli.main(argv) != 0:
            raise RuntimeError("localflow decay failed")
    return _median_of_three(call)[1]


def _logcosh(problem, seed):
    """The instance with log-cosh costs of the same a and s ~ U[0, 1],
    drawn from a stream of their own so the requests do not change."""
    s = np.random.default_rng([seed, problem.graph.n_vertices, 1]).uniform(
        0.0, 1.0, problem.graph.n_edges)
    bundle = lf.ObjectiveBundle.from_arrays("log-cosh", problem.bundle.a, s=s)
    return lf.FlowProblem(problem.graph, bundle, problem.b)


def _decay_ms(problem):
    """The quartiles in ms of three single-edge decay sweeps."""
    g = problem.graph
    p = np.zeros(g.n_vertices)
    p[[g.tails[0], g.heads[0]]] = 1.0, -1.0
    pert, sets = lf.PerturbationSpec(g, p), [[k] for k in range(g.n_edges)]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        lf.measure_decay(problem, pert, sets)
        times.append(_ms(start))
    return percentiles("decay_ms", times)


def _median_of_three(call):
    """call()'s result and the median time of three calls, in ms."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        out = call()
        times.append(_ms(start))
    return out, statistics.median(times)


def _build_peak_kib(problem, center, r):
    """The tracemalloc peak in KiB of a ball and its solver's build."""
    tracemalloc.start()
    try:
        lf.LocalizedSolver(problem, lf.ball_subgraph(problem.graph, center, r))
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def _radius_row(problem, x_star, rng, r, requests):
    g = problem.graph
    request_ms, build_ms, step_us, sizes, peaks = [], [], [], [], []
    for _ in range(requests):
        k = int(rng.integers(g.n_edges))
        p = np.zeros(g.n_vertices)
        p[g.tails[k]], p[g.heads[k]] = 1.0, -1.0
        pert = lf.PerturbationSpec(g, p)
        start = time.perf_counter()
        sub = lf.ball_subgraph(g, int(g.tails[k]), r)
        lf.warm_start_reoptimize(problem, pert, sub, STEPS, x_star=x_star)
        request_ms.append(_ms(start))
        start = time.perf_counter()
        local = lf.LocalizedSolver(problem,
                                   lf.ball_subgraph(g, int(g.tails[k]), r))
        build_ms.append(_ms(start))
        peaks.append(_build_peak_kib(problem, int(g.tails[k]), r))
        step_us.append(_step_us(local, x_star, problem.b + p))
        sizes.append((len(sub.v_in), len(sub.e_in), sub.cycle_rank,
                      len(local.support)))
    vertices, edges, cycle_rank, support = (statistics.mean(s)
                                            for s in zip(*sizes))
    return {**percentiles("request_ms", request_ms),
            **percentiles("build_ms", build_ms),
            **step_summary(step_us, [size[2] for size in sizes]),
            "requests": requests, "ball_vertices_mean": vertices,
            "ball_edges_mean": edges, "cycle_rank_mean": cycle_rank,
            "cycle_support_mean": support,
            "build_peak_kib": statistics.median(peaks)}


def _step_us(local, x_star, b_target):
    """One localized step of local in us: the median over STEP_PAIRS pairs
    of (run of 1 + STEP_REPEATS steps - run of 1 step) / STEP_REPEATS."""
    diffs = []
    for _ in range(STEP_PAIRS):
        times = []
        for t in (1, 1 + STEP_REPEATS):
            start = time.perf_counter()
            local.run(x_star, b_target, t)
            times.append(_ms(start))
        diffs.append((times[1] - times[0]) * 1e3 / STEP_REPEATS)
    return statistics.median(diffs)


def percentiles(name, samples):
    """name_pQ for each quartile Q: the Q-th percentile of the samples,
    None when there are none."""
    values = (np.percentile(samples, QUARTILES).tolist() if samples
              else [None] * len(QUARTILES))
    return {"%s_p%d" % (name, q): v for q, v in zip(QUARTILES, values)}


def step_summary(step_us, cycle_ranks):
    """The quartiles of the step time over the requests whose ball has a
    cycle, and their count; None when no ball has one."""
    steps = [us for us, c in zip(step_us, cycle_ranks) if c > 0]
    return {**percentiles("step_us", steps), "step_requests": len(steps)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--family", choices=sorted(FAMILIES), nargs="+",
                        default=["k3"])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[200, 2000, 20000, 200000])
    parser.add_argument("--radii", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--requests", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error("--requests must be at least 1")
    rows = []
    for family, n in ((f, n) for f in args.family for n in args.sizes):
        problem, rng, setup_ms = _instance(family, n, args.seed)
        solve = {}
        x_star, solve_ms = _median_of_three(
            lambda: lf.solve_exact(problem, stats=solve))
        logcosh, stats = _logcosh(problem, args.seed), {}
        logcosh_ms = _median_of_three(
            lambda: lf.solve_exact(logcosh, stats=stats))[1]
        budget, constants_ms = _median_of_three(
            lambda: lf.budget_for(problem))
        try:
            decay = _decay_ms(problem)
        except lf.LocalityError:  # no certified decay rate (a grid's)
            decay = None
        with tempfile.TemporaryDirectory() as tmp:
            paths = _save(problem, tmp)
            load_ms = _load_ms(problem.graph, paths["graph"])
            decay_cli_ms = _decay_cli_ms(paths) if decay else None
        row = {"family": family, "n": problem.graph.n_vertices,
               "m": problem.graph.n_edges, "setup_ms": setup_ms,
               "load_ms": load_ms, "global_solve_ms": solve_ms,
               "global_cg_iterations": sum(solve["cg_iterations"]),
               "global_logcosh_ms": logcosh_ms,
               "logcosh_cg_iterations": sum(stats["cg_iterations"]),
               "constants_ms": constants_ms,
               "mu_bound": budget.mu,
               **(decay or percentiles("decay_ms", [])),
               "decay_cli_ms": decay_cli_ms,
               "radius": {str(r): _radius_row(problem, x_star, rng, r,
                                              args.requests)
                          for r in args.radii}}
        rows.append(row)
        print(json.dumps(row), flush=True)
    with open(args.out, "w") as fh:
        json.dump({"machine": {"python": platform.python_version(),
                               "numpy": np.__version__,
                               "processor": platform.machine(),
                               "cpus": os.cpu_count(),
                               "OPENBLAS_NUM_THREADS":
                                   os.environ.get("OPENBLAS_NUM_THREADS")},
                   "steps": STEPS, "step_repeats": STEP_REPEATS,
                   "step_pairs": STEP_PAIRS, "seed": args.seed,
                   "rows": rows},
                  fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
