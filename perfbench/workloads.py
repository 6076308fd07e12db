"""The benchmark's three workloads.

Each workload is a closed loop: one caller, and each request starts after
the previous one returns. A workload builds its inputs from the seed
(`setup` is the timed set-up), yields requests from a seeded stream,
executes one request with the library (`execute`, the timed operation)
and checks it afterwards against `oracle` (`check`, untimed). `rate` is
the workload's nominal requests per second, the full-size rate on a
2-core x86-64 VM; a run makes --seconds times that many requests. Library
calls go through module attributes (`lf.solver.warm_start_reoptimize`)
so the traced run's wrappers see them.
"""

import csv
import itertools
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

SIZES = {
    "full": {"reopt_n": 2000, "global_n": 800, "exact_n": 800,
             "envelope_n": 200},
    "tiny": {"reopt_n": 60, "global_n": 40, "exact_n": 40,
             "envelope_n": 30},
}

# The graphs are fixed; --seed draws costs, demands, perturbations and the
# request stream. The pairing-model sampler retries a seed-dependent number
# of times (11 to 35 ms at n=800), which would otherwise dominate the
# spread of set-up time across seeds.
GRAPH_SEED = 1
REOPT_RADII = (2, 4, 8)
REOPT_ITERS = 30
# global-solve's demand magnitudes: log10 |b|inf = offset + 0.5 * step,
# the steps in an order that spreads any prefix over the range
MAGNITUDE_ORDER = (0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11)
MAGNITUDE_OFFSET = {"quadratic": 0.25, "logcosh": 0.5}


@dataclass
class Record:
    """One executed request: its class, wall time, named phase times, the
    output kept for the oracle, and how it failed if it did."""
    index: int
    cls: str
    inputs: dict
    ms: float = 0.0
    parts: dict = field(default_factory=dict)
    output: object = None
    error: str = None
    unexpected: bool = False    # an exception the library does not document
    wrong: bool = False         # rejected by the oracle
    checked: dict = field(default_factory=dict)

    @property
    def failed(self):
        return self.error is not None


def p50(values):
    return statistics.median(values) if values else math.nan


def p90(values):
    """Nearest-rank 90th percentile."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def latency(records, cls=None, part=None):
    """Request (or phase) times in ms; a failed request is infinitely
    slow."""
    out = []
    for rec in records:
        if cls is None or rec.cls == cls:
            if rec.failed:
                out.append(math.inf)
            else:
                out.append(rec.ms if part is None else rec.parts[part])
    return out


def edge_demand(g, k):
    """The unit perturbation of edge k: +1 at its tail, -1 at its head."""
    p = np.zeros(g.n_vertices)
    p[g.tails[k]] = 1.0
    p[g.heads[k]] = -1.0
    return p


def _library_errors(lf):
    return (lf.graph.GraphError, lf.objective.CostError,
            lf.laplacian.LaplacianError, lf.sensitivity.SensitivityError,
            lf.solver.SolverError, lf.locality.LocalityError)


def _guarded(rec, errors, fn):
    """Run fn(rec) and record its failure, if any, on the record."""
    try:
        fn(rec)
    except errors as exc:
        rec.error = "%s: %s" % (type(exc).__name__, exc)
    except Exception as exc:  # an undocumented failure still counts
        rec.error = "%s: %s" % (type(exc).__name__, exc)
        rec.unexpected = True
    return rec


class ReoptLocal:
    """Unit single-edge perturbations on a quadratic k=3 expander, each
    repaired by ball_subgraph + warm_start_reoptimize with the radius
    cycling through 2, 4 and 8."""

    name = "reopt-local"
    classes = tuple("r%d" % r for r in REOPT_RADII)
    light, heavy = "r2", "r8"
    setups = 3
    rate = 5.5

    def __init__(self, lf, size, seed, workdir):
        self.lf, self.seed = lf, seed
        self.n = SIZES[size]["reopt_n"]

    def setup(self):
        lf = self.lf
        # drop the previous round's instance first, so that peak memory
        # never holds two
        self.problem = self.x_base = None
        g = lf.graph.generate("random-k-regular", n=self.n, k=3,
                              seed=GRAPH_SEED)
        rng = np.random.default_rng([self.seed, 0])
        # a_e in [1, 1.02] keeps Q <= 1.02, where the error budget is valid
        self.a = rng.uniform(1.0, 1.02, g.n_edges)
        self.c = rng.standard_normal(g.n_edges)
        b = rng.standard_normal(g.n_vertices)
        self.b = b - b.mean()
        bundle = lf.objective.ObjectiveBundle(
            [lf.objective.EdgeCost("quadratic", a=float(a), c=float(c))
             for a, c in zip(self.a, self.c)])
        self.problem = lf.sensitivity.FlowProblem(g, bundle, self.b)
        self.x_base = lf.sensitivity.solve_exact(self.problem)
        self.budget = lf.locality.budget_for(self.problem)
        self.g = g

    def requests(self):
        rng = np.random.default_rng([self.seed, 1])
        for i in itertools.count():
            k = int(rng.integers(self.g.n_edges))
            ends = (self.g.tails[k], self.g.heads[k])
            radius = REOPT_RADII[i % len(REOPT_RADII)]
            yield Record(i, "r%d" % radius,
                         {"edge": k, "center": int(ends[rng.integers(2)]),
                          "radius": radius})

    def _pert(self, k):
        return self.lf.sensitivity.PerturbationSpec(self.g,
                                                    edge_demand(self.g, k))

    def execute(self, rec):
        lf = self.lf
        pert = self._pert(rec.inputs["edge"])

        def run(rec):
            t0 = time.perf_counter()
            sub = lf.graph.ball_subgraph(self.g, rec.inputs["center"],
                                         rec.inputs["radius"])
            t1 = time.perf_counter()
            x_t = lf.solver.warm_start_reoptimize(
                self.problem, pert, sub, REOPT_ITERS, x_star=self.x_base)
            t2 = time.perf_counter()
            rec.ms = (t2 - t0) * 1e3
            rec.parts = {"ball": (t1 - t0) * 1e3, "reopt": (t2 - t1) * 1e3,
                         "ball_edges": len(sub.edge_set)}
            rec.output = x_t
        return _guarded(rec, _library_errors(lf), run)

    def prepare_oracle(self):
        self.oracle = oracle.ReoptOracle(oracle.Incidence.of(self.g), self.a,
                                         self.c, self.b, self.x_base,
                                         self.budget)

    def check(self, rec):
        lf, inp = self.lf, rec.inputs
        restricted = None
        # LocalizedSolver.restricted_optimum is not the timed operation and
        # costs as much as a request, so it is checked once per radius
        if rec.index < len(self.classes):
            sub = lf.graph.ball_subgraph(self.g, inp["center"],
                                         inp["radius"])
            restricted = lf.solver.LocalizedSolver(
                self.problem, sub).restricted_optimum(
                    self.x_base, self.b + self._pert(inp["edge"]).p)
        rec.checked = self.oracle.check(inp["edge"], inp["center"],
                                        inp["radius"], REOPT_ITERS,
                                        rec.output, restricted)

    def details(self, records):
        ok = [r for r in records if not r.failed]
        out = {"reopt_ms_p50": (p50(latency(records)), "ms", len(records)),
               "reopt_ms_p90": (p90(latency(records)), "ms", len(records)),
               "reopt_rel_error_p50": (
                   p50([r.checked["rel_error"] for r in ok]), "ratio",
                   len(ok)),
               "ball_ms_p50": (p50(latency(records, part="ball")), "ms",
                               len(records))}
        for radius in REOPT_RADII:
            vals = latency(records, "r%d" % radius)
            out["reopt_ms_p50.r%d" % radius] = (p50(vals), "ms", len(vals))
        return out

    def ball_edges(self, records):
        return [r.parts["ball_edges"] for r in records if not r.failed]


class GlobalSolve:
    """Fresh balanced demands on a k=3 expander, alternating a quadratic
    and a log-cosh cost set; each request is solve_exact followed by one
    sensitivity_operator(...).apply for a single-edge perturbation."""

    name = "global-solve"
    classes = ("quadratic", "logcosh")
    light, heavy = "quadratic", "logcosh"
    setups = 15
    rate = 1.9

    def __init__(self, lf, size, seed, workdir):
        self.lf, self.seed = lf, seed
        self.n = SIZES[size]["global_n"]

    def setup(self):
        lf = self.lf
        self.problems = None
        g = lf.graph.generate("random-k-regular", n=self.n, k=3,
                              seed=GRAPH_SEED)
        m = g.n_edges
        rng = np.random.default_rng([self.seed, 2])
        self.costs = {"quadratic": (rng.uniform(1.0, 2.0, m),
                                    rng.standard_normal(m)),
                      "logcosh": (rng.uniform(1.0, 2.0, m),
                                  rng.uniform(0.0, 1.0, m))}
        qa, qc = self.costs["quadratic"]
        la, ls = self.costs["logcosh"]
        EdgeCost = lf.objective.EdgeCost
        zero = np.zeros(g.n_vertices)
        self.problems = {
            "quadratic": lf.sensitivity.FlowProblem(
                g, lf.objective.ObjectiveBundle(
                    [EdgeCost("quadratic", a=float(a), c=float(c))
                     for a, c in zip(qa, qc)]), zero),
            "logcosh": lf.sensitivity.FlowProblem(
                g, lf.objective.ObjectiveBundle(
                    [EdgeCost("log-cosh", a=float(a), s=float(s))
                     for a, s in zip(la, ls)]), zero)}
        self.g = g

    def requests(self):
        """Demand magnitudes cycle through a fixed log-spaced grid per cost
        kind, twelve points half a decade apart on [1, 1e6], visited in a
        fixed order; --seed draws only the demand's shape and the edge.
        So the first N requests of every seed carry the same magnitudes,
        including the large ones the solvers' absolute tolerances
        reject, and a run's failure count depends on N and on the
        library, not on the seed. The two grids are offset so that no
        point sits on a kind's failure threshold (log10 |b|inf about 5.0
        for quadratic, 4.1 to 4.5 for log-cosh), where the outcome would
        turn on the demand's shape."""
        rng = np.random.default_rng([self.seed, 3])
        for i in itertools.count():
            kind = self.classes[i % 2]
            step = MAGNITUDE_ORDER[(i // 2) % len(MAGNITUDE_ORDER)]
            log_mag = MAGNITUDE_OFFSET[kind] + 0.5 * step
            b = rng.standard_normal(self.g.n_vertices)
            b -= b.mean()
            b *= 10.0 ** log_mag / np.abs(b).max()
            yield Record(i, kind, {"b": b,
                                   "edge": int(rng.integers(self.g.n_edges))})

    def execute(self, rec):
        lf = self.lf
        p = edge_demand(self.g, rec.inputs["edge"])

        def run(rec):
            t0 = time.perf_counter()
            problem = self.problems[rec.cls].with_b(rec.inputs["b"])
            x = lf.sensitivity.solve_exact(problem)
            t1 = time.perf_counter()
            u = lf.sensitivity.sensitivity_operator(problem, x).apply(p)
            t2 = time.perf_counter()
            rec.ms = (t2 - t0) * 1e3
            rec.parts = {"solve": (t1 - t0) * 1e3, "apply": (t2 - t1) * 1e3}
            rec.output = (x, p, u)
        return _guarded(rec, _library_errors(lf), run)

    def prepare_oracle(self):
        self.oracle = oracle.GlobalOracle(oracle.Incidence.of(self.g))

    def check(self, rec):
        x, p, u = rec.output
        a, coef = self.costs[rec.cls]
        self.oracle.check(rec.cls, a, coef, rec.inputs["b"], x, p, u)

    def details(self, records):
        out = {}
        for kind in ("quadratic", "logcosh"):
            vals = latency(records, kind, "solve")
            out["solve_%s_ms_p50" % kind] = (p50(vals), "ms", len(vals))
            mine = [r for r in records if r.cls == kind]
            out["failed_frac.%s" % kind] = (
                sum(r.failed for r in mine) / max(1, len(mine)), "ratio",
                len(mine))
        vals = latency(records, part="apply")
        out["sens_apply_ms_p50"] = (p50(vals), "ms", len(vals))
        return out


@dataclass
class DecayInstance:
    kind: str
    n: int
    paths: dict = None
    arrays: tuple = None


class DecaySweep:
    """In-process `localflow decay` over every single edge, alternating an
    exact-constants quadratic instance and an envelope-constants log-cosh
    instance, with LOCALFLOW_THREADS set to the processor count and one
    OpenBLAS thread (run.py sets both before numpy loads)."""

    name = "decay-sweep"
    classes = ("exact", "envelope")
    light, heavy = "envelope", "exact"
    setups = 15
    rate = 0.6

    def __init__(self, lf, size, seed, workdir):
        self.lf, self.seed, self.workdir = lf, seed, workdir
        self.instances = {
            "exact": DecayInstance("quadratic", SIZES[size]["exact_n"]),
            "envelope": DecayInstance("log-cosh", SIZES[size]["envelope_n"])}

    def setup(self):
        lf = self.lf
        for name, inst in self.instances.items():
            g = lf.graph.generate("random-k-regular", n=inst.n, k=3,
                                  seed=GRAPH_SEED)
            m = g.n_edges
            rng = np.random.default_rng([self.seed, 4, inst.n])
            if inst.kind == "quadratic":
                a, coef = rng.uniform(1.0, 2.0, m), rng.standard_normal(m)
                per_edge = {e[0]: {"kind": "quadratic", "a": float(x),
                                   "c": float(y)}
                            for e, x, y in zip(g.edges, a, coef)}
            else:
                # Q <= 1.02 keeps the envelope decay rate below 1
                a, coef = rng.uniform(1.0, 1.01, m), rng.uniform(0, 0.01, m)
                per_edge = {e[0]: {"kind": "log-cosh", "a": float(x),
                                   "s": float(y)}
                            for e, x, y in zip(g.edges, a, coef)}
            b = rng.standard_normal(inst.n)
            b -= b.mean()
            k = int(rng.integers(m))
            _, tail, head = g.edges[k]
            folder = os.path.join(self.workdir, name)
            os.makedirs(folder, exist_ok=True)
            paths = {key: os.path.join(folder, key + ".json")
                     for key in ("graph", "costs", "flow", "perturbation")}
            paths["out"] = os.path.join(folder, "out")
            g.save(paths["graph"])
            for key, payload in (
                    ("costs", {"per_edge": per_edge}),
                    ("flow", dict(zip(g.vertices, b.tolist()))),
                    ("perturbation", {tail: 1.0, head: -1.0})):
                with open(paths[key], "w") as fh:
                    json.dump(payload, fh)
            inst.paths = paths
            inst.arrays = (g, a, coef, b, k)

    def requests(self):
        for i in itertools.count():
            yield Record(i, self.classes[i % 2], {})

    def argv(self, inst):
        return ["decay"] + [item for key in ("graph", "costs", "flow",
                                             "perturbation", "out")
                            for item in ("--" + key, inst.paths[key])]

    def execute(self, rec):
        inst = self.instances[rec.cls]

        def run(rec):
            t0 = time.perf_counter()
            code = self.lf.cli.main(self.argv(inst))
            t1 = time.perf_counter()
            rec.ms = (t1 - t0) * 1e3
            if code != 0:
                rec.error = "decay exited with code %d" % code
                return
            with open(os.path.join(inst.paths["out"], "decay.csv")) as fh:
                rows = list(csv.reader(fh))[1:]
            rec.output = [(int(d), float(meas), float(bound), mode, edge)
                          for d, meas, bound, mode, edge in rows]
        return _guarded(rec, _library_errors(self.lf), run)

    def replay_seconds(self, name):
        """Single-thread library replay of one decay call: load, problem,
        then measure_decay over every single edge."""
        lf, inst = self.lf, self.instances[name]
        t0 = time.perf_counter()
        g = lf.graph.DirectedGraph.load(inst.paths["graph"])
        with open(inst.paths["costs"]) as fh:
            bundle = lf.objective.ObjectiveBundle.from_spec(
                json.load(fh), [e[0] for e in g.edges])
        with open(inst.paths["flow"]) as fh:
            flow = json.load(fh)
        b = np.array([flow.get(v, 0.0) for v in g.vertices])
        problem = lf.sensitivity.FlowProblem(g, bundle, b)
        with open(inst.paths["perturbation"]) as fh:
            pert = lf.sensitivity.PerturbationSpec.from_mapping(g,
                                                               json.load(fh))
        lf.locality.measure_decay(problem, pert,
                                  [[k] for k in range(g.n_edges)])
        return time.perf_counter() - t0

    def prepare_oracle(self):
        self.oracle = {}
        for name, inst in self.instances.items():
            g, a, coef, b, k = inst.arrays
            inc = oracle.Incidence.of(g)
            self.oracle[name] = oracle.DecayOracle(
                inc, inst.kind, a, coef, b, inc.edge_perturbation(k))

    def check(self, rec):
        self.oracle[rec.cls].check(rec.output)

    def details(self, records):
        out = {}
        for name in ("exact", "envelope"):
            vals = latency(records, name)
            out["decay_%s_s" % name] = (p50(vals) / 1e3, "s", len(vals))
        return out


WORKLOADS = {cls.name: cls for cls in (ReoptLocal, GlobalSolve, DecaySweep)}
