"""Command-line driver.

Subcommands: solve, sensitivity, decay, reopt, tune, interlace, generate.
A JSON config file may supply any option; command-line flags win. Exit
codes: 0 success, 2 input/validation error, 3 runtime or numerical error.
Reports embed the resolved config and the vertex/edge index mapping; CSV
values use 17 significant digits.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import graph as graphmod
from . import locality
from .objective import CostError, ObjectiveBundle
from .sensitivity import (FlowProblem, PerturbationSpec, SensitivityError,
                          sensitivity_operator, solve_exact)
from .solver import LocalizedSolver, SolverError, warm_start_reoptimize
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


def _fmt(x):
    return "%.17g" % float(x)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _resolve_config(args, keys):
    """Config-file values overridden by explicit flags."""
    config = {}
    if args.config:
        config.update(_load_json(args.config))
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            config[key] = val
    return config


def _require(config, *keys):
    for key in keys:
        if config.get(key) is None:
            raise CliInputError("missing required option: --%s" % key)
    return [config[k] for k in keys]


def _load_problem(config):
    graph_path, costs_path, flow_path = _require(
        config, "graph", "costs", "flow")
    g = graphmod.DirectedGraph.load(graph_path)
    bundle = ObjectiveBundle.from_spec(_load_json(costs_path),
                                       [e[0] for e in g.edges])
    flow_map = _load_json(flow_path)
    b = np.zeros(g.n_vertices)
    for vid, val in flow_map.items():
        if vid not in g.vertex_index:
            raise CliInputError("unknown vertex id in flow file: %s" % vid)
        b[g.vertex_index[vid]] = float(val)
    try:
        problem = FlowProblem(g, bundle, b)
    except SensitivityError as exc:  # bad input data, not a solver failure
        raise CliInputError(str(exc))
    return g, bundle, problem


def _load_perturbation(config, g):
    (path,) = _require(config, "perturbation")
    try:
        return PerturbationSpec.from_mapping(g, _load_json(path))
    except SensitivityError as exc:
        raise CliInputError(str(exc))


def _index_map(g):
    return {"vertices": {v: i for i, v in enumerate(g.vertices)},
            "edges": {e[0]: k for k, e in enumerate(g.edges)}}


def _out_dir(config):
    out = config.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                cell if isinstance(cell, str) else _fmt(cell)
                for cell in row) + "\n")


def cmd_solve(args):
    config = _resolve_config(args, ["graph", "costs", "flow", "out"])
    g, _, problem = _load_problem(config)
    x = solve_exact(problem, tol=args.tolerance or 1e-10)
    grad = problem.bundle.gradient(x)
    payload = {
        "solution": {e[0]: float(v) for e, v in zip(g.edges, x)},
        "residuals": {
            "feasibility_inf":
                float(np.abs(g.net_outflow(x) - problem.b).max()),
            "stationarity_inf":
                float(np.abs(problem.project_gradient(grad)).max()),
        },
        "config": config,
        "index_map": _index_map(g),
    }
    _write_json(os.path.join(_out_dir(config), "solution.json"), payload)
    return EXIT_OK


def cmd_sensitivity(args):
    config = _resolve_config(
        args, ["graph", "costs", "flow", "perturbation", "out"])
    g, _, problem = _load_problem(config)
    pert = _load_perturbation(config, g)
    op = sensitivity_operator(problem)
    deriv = op.apply(pert.p)
    feas = float(np.abs(g.net_outflow(deriv) - pert.p).max())
    payload = {
        "base_b": {v: float(problem.b[i]) for v, i in g.vertex_index.items()},
        "perturbation": {v: float(pert.p[i])
                         for v, i in g.vertex_index.items()},
        "derivative": {e[0]: float(val) for e, val in zip(g.edges, deriv)},
        "residuals": {"derivative_feasibility_inf": feas},
        "config": config,
        "index_map": _index_map(g),
    }
    _write_json(os.path.join(_out_dir(config), "sensitivity.json"), payload)
    return EXIT_OK


def cmd_decay(args):
    config = _resolve_config(
        args, ["graph", "costs", "flow", "perturbation", "out"])
    g, _, problem = _load_problem(config)
    pert = _load_perturbation(config, g)

    # single-edge F sweep over every edge, rows in edge-index order
    report = locality.measure_decay(problem, pert,
                                    [[k] for k in range(g.n_edges)])
    mode = report.constants_mode
    _write_csv(os.path.join(_out_dir(config), "decay.csv"),
               ["distance", "measured", "bound", "constants_mode", "edge"],
               [(r.distance, r.measured, r.bound, mode, r.edge_ids[0])
                for r in report.rows])
    _write_json(os.path.join(_out_dir(config), "decay.json"),
                {"config": config, "index_map": _index_map(g),
                 "constants_mode": mode})
    return EXIT_OK


def cmd_reopt(args):
    config = _resolve_config(
        args, ["graph", "costs", "flow", "perturbation",
               "subgraph-center", "radius", "iters", "out"])
    g, _, problem = _load_problem(config)
    pert = _load_perturbation(config, g)
    center, radius, iters = _require(
        config, "subgraph-center", "radius", "iters")
    if center not in g.vertex_index:
        raise CliInputError("unknown subgraph center: %s" % center)
    sub = graphmod.ball_subgraph(g, center, int(radius))

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

    final = warm_start_reoptimize(problem, pert, sub, int(iters),
                                  x_star=x_star, collect=record)
    stats = {"ball_vertices": len(sub.v_in), "ball_edges": len(sub.e_in),
             "iterations": len(rows), "global_s": t1 - t0,
             "local_s": time.perf_counter() - t1 - record_s[0]}
    if not rows:  # zero perturbation short-circuit
        record(final)
    _write_csv(os.path.join(_out_dir(config), "reopt.csv"),
               ["iteration", "error_l2", "feasibility_residual"], rows)
    _write_json(os.path.join(_out_dir(config), "reopt.json"),
                {"final_error_l2": rows[-1][1],
                 "subgraph_vertices": sorted(g.vertices[v]
                                             for v in sub.vertex_set),
                 "stats": stats, "config": config,
                 "index_map": _index_map(g)})
    return EXIT_OK


def cmd_tune(args):
    config = _resolve_config(
        args, ["graph", "costs", "flow", "eps", "out", "z", "omega",
               "p-norm"])
    (eps,) = _require(config, "eps")
    if config.get("graph"):
        g, bundle, _ = _load_problem(config)
        Q, k, mu = bundle.Q, int(g.degrees().max()), locality.adjacency_slem(g)
    else:
        Q, k, mu = float(config["Q"]), int(config["k"]), float(config["mu"])
    family = locality.TunerFamily(
        Q=Q, k=k, mu=mu, z=int(config.get("z", 1)),
        p_norm=float(config.get("p-norm", 1.0)),
        omega=float(config.get("omega", 3.0)))
    result = locality.tune(family, float(eps))
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
        "config": config,
    }
    _write_json(os.path.join(_out_dir(config), "tune.json"), payload)
    return EXIT_OK


def cmd_interlace(args):
    config = _resolve_config(
        args, ["graph", "costs", "flow", "subgraph-center", "radius", "out"])
    g, _, problem = _load_problem(config)
    center, radius = _require(config, "subgraph-center", "radius")
    sub = graphmod.ball_subgraph(g, center, int(radius))
    x = solve_exact(problem)
    walk = problem.walk_at(x)
    solver = LocalizedSolver(problem, sub)
    sub_walk = WeightedWalk(sub.induced, walk.weights[solver.e_in])
    w_minus, w_plus = float(walk.weights.min()), float(walk.weights.max())
    lam_prime, bound = locality.interlacing_bound(
        g, sub_walk, w_minus, w_plus)
    _write_json(os.path.join(_out_dir(config), "interlace.json"), {
        "lambda_prime": lam_prime, "bound": bound,
        "w_minus": w_minus, "w_plus": w_plus,
        "constants_mode": "exact" if problem.bundle.all_quadratic
                          else "envelope",
        "config": config, "index_map": _index_map(g),
    })
    return EXIT_OK


def cmd_generate(args):
    config = _resolve_config(
        args, ["kind", "n", "k", "rows", "cols", "seed", "out"])
    (kind,) = _require(config, "kind")
    keys = {"complete": ["n"], "cycle": ["n"], "grid-2d": ["rows", "cols"],
            "random-k-regular": ["n", "k", "seed"]}.get(kind, [])
    params = {key: int(v) for key, v in zip(keys, _require(config, *keys))}
    g = graphmod.generate(kind, **params)
    out = _out_dir(config)
    g.save(os.path.join(out, "graph.json"))
    _write_json(os.path.join(out, "generate.json"),
                {"kind": kind, "params": params, "config": config,
                 "n_vertices": g.n_vertices, "n_edges": g.n_edges})
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "sensitivity": cmd_sensitivity,
    "decay": cmd_decay,
    "reopt": cmd_reopt,
    "tune": cmd_tune,
    "interlace": cmd_interlace,
    "generate": cmd_generate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="localflow",
        description="Min-cost flow sensitivity, locality and warm-start "
                    "reoptimization experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--graph")
        p.add_argument("--costs")
        p.add_argument("--flow")
        p.add_argument("--perturbation")
        p.add_argument("--subgraph-center", dest="subgraph_center")
        p.add_argument("--radius", type=int)
        p.add_argument("--iters", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--tolerance", type=float)
        p.add_argument("--eps", type=float)
        p.add_argument("--z", type=int)
        p.add_argument("--omega", type=float)
        p.add_argument("--p-norm", dest="p_norm", type=float)
        p.add_argument("--kind")
        p.add_argument("--n", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--rows", type=int)
        p.add_argument("--cols", type=int)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CliInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except RUNTIME_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
