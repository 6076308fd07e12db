"""Command-line driver.

Every subcommand takes --config and --out, plus the flags OPTIONS gives:
solve --graph --costs --flow --tolerance; sensitivity and decay --graph
--costs --flow --perturbation; reopt those and --subgraph-center --radius
--iters; interlace --graph --costs --flow --subgraph-center --radius;
tune --eps --z --omega --p-norm and either the family --Q --k --mu or
--graph --costs --flow; generate --kind and the parameters that
graph.GENERATORS names: --n, --rows, --cols, --k, --seed. A JSON config
file may supply these and any other keys (all echoed in the report);
flags win. A flag that the subcommand does not take is a usage error.
Exit codes: 0 success, 2 input or usage error, 3 runtime or numerical
error (its message on stderr; stdout is the caller's, never written).
Reports embed the resolved config and the vertex/edge index mapping;
CSV values use 17 significant digits.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import graph as graphmod
from . import locality
from .objective import CostError, ObjectiveBundle
from .sensitivity import (SOLVE_TOL, FlowProblem, PerturbationSpec,
                          SensitivityError, sensitivity_operator, solve_exact)
from .solver import SolverError, warm_start_reoptimize
from .laplacian import LaplacianError, WeightedWalk

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUNTIME = 3

INPUT_ERRORS = (graphmod.GraphError, CostError, FileNotFoundError,
                KeyError, json.JSONDecodeError, ValueError)
RUNTIME_ERRORS = (SensitivityError, SolverError, LaplacianError,
                  locality.LocalityError, np.linalg.LinAlgError)


class CliInputError(ValueError):
    pass


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _resolve_config(args):
    """Config-file values overridden by the flags the subcommand takes."""
    with _reading(args.config):
        config = dict(_load_json(args.config)) if args.config else {}
    for key in [*OPTIONS[args.command], "out"]:
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            config[key] = val
    return config


def _require(config, *keys):
    for key in keys:
        if config.get(key) is None:
            raise CliInputError("missing required option: --%s" % key)
    return [config[k] for k in keys]


def _integer(key, value):
    """value as an int; CliInputError naming --key unless it is integral,
    so a config-file 3.9 or true is refused rather than truncated."""
    try:
        number = int(value)
        integral = number == float(value) and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise CliInputError("--%s must be an integer, got %r" % (key, value))
    return number


@contextlib.contextmanager
def _reading(path):
    """Input errors while turning the JSON of path into a config, graph,
    costs, flow or perturbation: a SensitivityError is bad data, and a
    TypeError or AttributeError a malformed file, named in the message."""
    try:
        yield
    except SensitivityError as exc:
        raise CliInputError(str(exc)) from None
    except (TypeError, AttributeError) as exc:
        raise CliInputError("malformed file %s: %s" % (path, exc)) from None


def _load_problem(config):
    graph_path, costs_path, flow_path = _require(
        config, "graph", "costs", "flow")
    with _reading(graph_path):
        g = graphmod.DirectedGraph.load(graph_path)
    with _reading(costs_path):
        bundle = ObjectiveBundle.from_spec(_load_json(costs_path),
                                           list(g.edge_index))
    b = np.zeros(g.n_vertices)
    with _reading(flow_path):
        flow = _load_json(flow_path)
        b[graphmod._vertex_indices(g, flow)] = list(map(float, flow.values()))
        problem = FlowProblem(g, bundle, b)
    return g, bundle, problem


def _load_perturbation(config, g):
    (path,) = _require(config, "perturbation")
    with _reading(path):
        return PerturbationSpec.from_mapping(g, _load_json(path))


def _path(config, name):
    """The file `name` in the --out directory, which is made if missing."""
    out = config.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_json(config, name, payload, g=None):
    """Write payload, the resolved config and, given the graph g, its
    id-to-index mapping to the report `name` as standard JSON: each
    non-finite figure is written as null, and a top-level `non_finite` map
    gives its value ("inf", "-inf" or "nan") under its dotted key path.
    A report that cannot be serialised leaves no file."""
    non_finite = {}
    payload = _nulled({**payload, "config": config}, (), non_finite)
    if g is not None:  # ids and indices: nothing to null
        payload["index_map"] = {"vertices": g.vertex_index,
                                "edges": g.edge_index}
    if non_finite:
        payload["non_finite"] = non_finite
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(_path(config, name), "w") as fh:
        fh.write(text + "\n")


def _nulled(value, path, non_finite):
    """value with each non-finite float, at the key path `path` below the
    payload, replaced by None and recorded in non_finite. A map whose
    values are all finite numbers, such as a per-edge map, is checked in
    one pass and kept as it is."""
    if isinstance(value, dict):
        with contextlib.suppress(TypeError, OverflowError):  # not numbers
            if all(map(math.isfinite, value.values())):
                return value
        return {k: _nulled(v, path + (str(k),), non_finite)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulled(v, path + (str(i),), non_finite)
                for i, v in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        non_finite[".".join(path)] = str(float(value))
        return None
    return value


def _write_csv(path, header, rows):
    """Write the header and the nonempty iterable of tuples `rows`, a
    string cell as it is and a number with 17 significant digits. A column
    holds strings or numbers throughout: the first row fixes the format."""
    rows = iter(rows)
    first = next(rows)
    fmt = ",".join("%s" if isinstance(cell, str) else "%.17g"
                   for cell in first) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n" + fmt % first)
        fh.writelines(map(fmt.__mod__, rows))


def cmd_solve(config):
    g, _, problem = _load_problem(config)
    tol = config.get("tolerance")
    tol = SOLVE_TOL if tol is None else float(tol)
    if not 0.0 < tol < math.inf:
        raise CliInputError("--tolerance must be positive and finite, got %r"
                            % tol)
    stats = {}
    x = solve_exact(problem, tol=tol, stats=stats)
    payload = {
        "solution": dict(zip(g.edge_index, x.tolist())),
        "residuals": {key: stats[key]
                      for key in ("feasibility_inf", "stationarity_inf")},
        "stats": stats,
    }
    _write_json(config, "solution.json", payload, g)
    return EXIT_OK


def cmd_sensitivity(config):
    g, _, problem = _load_problem(config)
    pert = _load_perturbation(config, g)
    solve, t0 = {}, time.perf_counter()
    op = sensitivity_operator(problem, solve_exact(problem, stats=solve))
    t1 = time.perf_counter()
    deriv, t2 = op.apply(pert.p), time.perf_counter()
    feas = float(np.abs(g.net_outflow(deriv) - pert.p).max())
    payload = {
        "base_b": dict(zip(g.vertices, problem.b.tolist())),
        "perturbation": dict(zip(g.vertices, pert.p.tolist())),
        "derivative": dict(zip(g.edge_index, deriv.tolist())),
        "residuals": {"derivative_feasibility_inf": feas},
        "stats": {"solve": solve, "solve_s": t1 - t0, "apply_s": t2 - t1},
    }
    _write_json(config, "sensitivity.json", payload, g)
    return EXIT_OK


def cmd_decay(config):
    g, _, problem = _load_problem(config)
    pert = _load_perturbation(config, g)

    # single-edge F sweep over every edge, rows in edge-index order
    report = locality.measure_decay(problem, pert,
                                    [[k] for k in range(g.n_edges)])
    mode = report.constants_mode
    edge_ids, distance, measured, bound, _ = zip(*report.rows)
    _write_csv(_path(config, "decay.csv"),
               ["distance", "measured", "bound", "constants_mode", "edge"],
               zip(distance, measured, bound, (mode,) * len(bound),
                   [edge for edge, in edge_ids]))
    _write_json(config, "decay.json", {"constants_mode": mode,
                                       "lam": report.lam,
                                       "spectral": report.spectral,
                                       "stats": report.stats}, g)
    return EXIT_OK


def cmd_reopt(config):
    g, _, problem = _load_problem(config)
    pert = _load_perturbation(config, g)
    center, radius, iters = _require(
        config, "subgraph-center", "radius", "iters")
    radius, iters = _integer("radius", radius), _integer("iters", iters)
    if iters < 1:
        raise CliInputError("--iters must be at least 1, got %d" % iters)
    sub = graphmod.ball_subgraph(g, center, radius)

    t0 = time.perf_counter()
    x_star = solve_exact(problem)
    target = solve_exact(problem.with_b(problem.b + pert.p))
    t1 = time.perf_counter()
    b_target = problem.b + pert.p
    rows = []
    record_s = [0.0]  # the error rows are full-graph work; kept out of local_s

    def record(x):
        start = time.perf_counter()
        rows.append((len(rows) + 1,
                     float(np.linalg.norm(x - target)),
                     float(np.abs(g.net_outflow(x) - b_target).max())))
        record_s[0] += time.perf_counter() - start

    final = warm_start_reoptimize(problem, pert, sub, iters,
                                  x_star=x_star, collect=record)
    stats = {"ball_vertices": len(sub.v_in), "ball_edges": len(sub.e_in),
             "cycle_rank": sub.cycle_rank,
             "iterations": len(rows), "global_s": t1 - t0,
             "local_s": time.perf_counter() - t1 - record_s[0]}
    if not rows:  # zero perturbation short-circuit
        record(final)
    _write_csv(_path(config, "reopt.csv"),
               ["iteration", "error_l2", "feasibility_residual"], rows)
    _write_json(config, "reopt.json", {
        "final_error_l2": rows[-1][1],
        "subgraph_vertices": sorted(g.vertices[v] for v in sub.vertex_set),
        "stats": stats}, g)
    return EXIT_OK


def cmd_tune(config):
    (eps,) = _require(config, "eps")
    budget_s = 0.0
    if config.get("graph"):
        if any(config.get(key) is not None for key in ("Q", "k", "mu")):
            raise CliInputError("--Q, --k and --mu do not apply with --graph")
        problem, t0 = _load_problem(config)[2], time.perf_counter()
        budget = locality.budget_for(problem)
        budget_s = time.perf_counter() - t0
        if budget.k_minus != budget.k_plus:  # regular families only
            raise locality.LocalityError(
                "tune --graph needs a regular graph, got k- = %d, k+ = %d"
                % (budget.k_minus, budget.k_plus))
        Q, k, mu = budget.Q, budget.k_plus, budget.mu
        spectral = budget.spectral
    else:
        Q, k, mu = _require(config, "Q", "k", "mu")
        Q, k, spectral = float(Q), _integer("k", k), None
    family = locality.TunerFamily(
        Q=Q, k=k, mu=float(mu), z=_integer("z", config.get("z", 1)),
        p_norm=float(config.get("p-norm", 1.0)),
        omega=float(config.get("omega", 3.0)))
    t0 = time.perf_counter()
    result = locality.tune(family, float(eps))
    tune_s = time.perf_counter() - t0
    payload = {
        "r": result.r, "t": result.t,
        "predicted_cost": result.predicted_cost,
        "ball_size_bound": result.ball_size_bound,
        "constants": {
            "rho": result.rho,
            "nu_bias": result.nu_bias, "xi_bias": result.xi_bias,
            "nu_var": result.nu_var, "xi_var": result.xi_var,
            "Q": family.Q, "k": family.k, "mu": family.mu, "z": family.z,
        },
        "spectral": spectral,
        "stats": {"budget_s": budget_s, "tune_s": tune_s},
    }
    _write_json(config, "tune.json", payload)
    return EXIT_OK


def cmd_interlace(config):
    g, _, problem = _load_problem(config)
    center, radius = _require(config, "subgraph-center", "radius")
    sub = graphmod.ball_subgraph(g, center, _integer("radius", radius))
    if not len(sub.e_in):
        raise SolverError("subgraph has no edges to update")
    solve, t0 = {}, time.perf_counter()
    walk = problem.walk_at(solve_exact(problem, stats=solve))
    t1 = time.perf_counter()
    sub_walk = WeightedWalk(sub.induced, walk.weights[sub.e_in])
    w_minus, w_plus = float(walk.weights.min()), float(walk.weights.max())
    lam_prime, bound, spectral = locality.interlacing_bound(
        g, sub_walk, w_minus, w_plus)
    t2 = time.perf_counter()
    _write_json(config, "interlace.json", {
        "lambda_prime": lam_prime, "bound": bound,
        "w_minus": w_minus, "w_plus": w_plus,
        "constants_mode": locality._constants_mode(problem),
        "spectral": spectral,
        "stats": {"solve": solve, "solve_s": t1 - t0, "bound_s": t2 - t1}},
        g)
    return EXIT_OK


def cmd_generate(config):
    (kind,) = _require(config, "kind")
    _, keys = graphmod.GENERATORS.get(kind, (None, ()))
    params = {key: _integer(key, v)
              for key, v in zip(keys, _require(config, *keys))}
    g = graphmod.generate(kind, **params)
    g.save(_path(config, "graph.json"))
    _write_json(config, "generate.json", {
        "kind": kind, "params": params,
        "n_vertices": g.n_vertices, "n_edges": g.n_edges})
    return EXIT_OK


_PROBLEM = {"graph": str, "costs": str, "flow": str}
# the flags each subcommand takes besides --config and --out; the only
# record of which options a subcommand reads
OPTIONS = {
    "solve": {**_PROBLEM, "tolerance": float},
    "sensitivity": {**_PROBLEM, "perturbation": str},
    "decay": {**_PROBLEM, "perturbation": str},
    "reopt": {**_PROBLEM, "perturbation": str, "subgraph-center": str,
              "radius": int, "iters": int},
    "tune": {**_PROBLEM, "eps": float, "Q": float, "k": int, "mu": float,
             "z": int, "omega": float, "p-norm": float},
    "interlace": {**_PROBLEM, "subgraph-center": str, "radius": int},
    "generate": {"kind": str, **{name: int for _, names in
                                 graphmod.GENERATORS.values()
                                 for name in names}},
}

COMMANDS = {
    "solve": cmd_solve,
    "sensitivity": cmd_sensitivity,
    "decay": cmd_decay,
    "reopt": cmd_reopt,
    "tune": cmd_tune,
    "interlace": cmd_interlace,
    "generate": cmd_generate,
}


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="localflow",
        description="Min-cost flow sensitivity, locality and warm-start "
                    "reoptimization experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--out")
        for key, cast in options.items():
            p.add_argument("--" + key, type=cast)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](_resolve_config(args))
    except RUNTIME_ERRORS + INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        # LaplacianError and LinAlgError are ValueErrors too: runtime first
        return EXIT_RUNTIME if isinstance(exc, RUNTIME_ERRORS) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
