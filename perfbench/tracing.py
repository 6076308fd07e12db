"""Span tracing of the localflow library for the traced benchmark run.

`Tracer.install` replaces every public function of each localflow module at
every module attribute that names it (so `sensitivity.pseudoinverse` is
traced as well as `laplacian.pseudoinverse`), plus a fixed list of methods.
Spans are kept in memory as tuples and written out at the end; nothing is
wrapped while tracing is off.
"""

import inspect
import itertools
import json
import threading
import time

LAYERS = ("graph", "objective", "laplacian", "sensitivity", "solver",
          "locality", "cli")

# Methods worth a span. EdgeCost's scalar methods are left out on purpose:
# they run once per edge per call and would make the trace cost more than
# the work it measures.
METHODS = {
    "graph": {"DirectedGraph": ("__init__", "bfs_distances", "load"),
              "SubgraphSpec": ("__init__",)},
    "objective": {"ObjectiveBundle": ("__init__", "eval", "gradient",
                                      "hessian_diag", "from_spec")},
    "laplacian": {"WeightedWalk": ("__init__", "pinv"),
                  "Spectrum": ("__init__",)},
    "sensitivity": {"FlowProblem": ("__init__", "project_gradient",
                                    "walk_at", "unweighted_laplacian_pinv"),
                    "SensitivityOperator": ("__init__", "apply")},
    "solver": {"LocalizedSolver": ("__init__", "step", "run",
                                   "restricted_optimum")},
}


def _pinv_order(args, kwargs):
    return int(args[0].shape[0])


def _solve_kind(args, kwargs):
    return args[0].bundle.costs[0].kind


def _decay_rows(args, kwargs):
    return len(args[2])


# per-span annotation computed from the call's arguments, outside the span
ANNOTATE = {
    "laplacian.pseudoinverse": _pinv_order,
    "sensitivity.solve_exact": _solve_kind,
    "locality.measure_decay": _decay_rows,
}


class Tracer:
    """In-memory span recorder. A span is (id, parent, name, start, end,
    request, note); spans of one request share `request`, and `parent` is
    the enclosing span in the same thread (None for a thread's outermost
    span)."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        annotate = ANNOTATE.get(name)
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            note = annotate(args, kwargs) if annotate else None
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.request,
                              note))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr, new):
        original = owner.__dict__[attr]
        self._restore.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, new)

    def _patch_item(self, table, key, new):
        original = table[key]
        self._restore.append(lambda: table.__setitem__(key, original))
        table[key] = new

    def install(self, package):
        """Wrap the public functions and listed methods of `package`'s
        layer modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(fn, "%s.%s" % (layer, attr))
        # rebind at every name a caller looks up: module attributes, the
        # package's re-exports and dispatch tables such as cli.COMMANDS
        for mod in list(modules.values()) + [package]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, fn in list(value.items()):
                        if inspect.isfunction(fn) and fn in wrapped:
                            self._patch_item(value, key, wrapped[fn])
        for layer, classes in METHODS.items():
            for cls_name, attrs in classes.items():
                cls = getattr(modules[layer], cls_name)
                for attr in attrs:
                    raw = cls.__dict__[attr]
                    name = "%s.%s.%s" % (layer, cls_name, attr)
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, name))
                    else:
                        new = self._wrap(raw, name)
                    self._patch(cls, attr, new)

    def uninstall(self):
        for restore in reversed(self._restore):
            restore()
        self._restore = []

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, request, note in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end, "request": request,
                                     "note": note}) + "\n")


class SpanIndex:
    """Self times over a list of span tuples: a span's duration minus its
    direct children's, which nest inside it in one thread."""

    def __init__(self, spans):
        child_time, named = {}, {}
        for sid, parent, name, start, end, request, note in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
                key = (parent, name)
                named[key] = named.get(key, 0.0) + end - start
        self.child_time = child_time
        self._named_child_time = named

    def self_time(self, span):
        return span[4] - span[3] - self.child_time.get(span[0], 0.0)

    def child_time_of(self, span, name):
        """Total duration of `span`'s direct children called `name`."""
        return self._named_child_time.get((span[0], name), 0.0)


# name -> unit; every traced run prints all of them (0 where a workload
# never enters the layer). Counts and "_s" figures are totals per traced
# request; "_ms" figures are medians over calls; generate_s, pinv_setup_s
# and budget_for_s are totals per set-up round, median over the rounds.
PER_LAYER = {
    "graph.generate_s": "s",
    "graph.ball_subgraph_ms_p50": "ms",
    "graph.bfs_calls": "count",
    "graph.bfs_s": "s",
    "graph.load_s": "s",
    "objective.gradient_calls": "count",
    "objective.gradient_s": "s",
    "objective.hessian_diag_s": "s",
    "laplacian.pinv_calls": "count",
    "laplacian.pinv_s": "s",
    "laplacian.pinv_n3_sum": "n3",
    "laplacian.pinv_setup_s": "s",
    "laplacian.walk_build_ms": "ms",
    "laplacian.spectrum_s": "s",
    "sensitivity.flow_problem_ms": "ms",
    "sensitivity.solve_exact_ms.quadratic": "ms",
    "sensitivity.solve_exact_ms.logcosh": "ms",
    "sensitivity.newton_iters": "count",
    "sensitivity.apply_ms": "ms",
    "solver.localized_build_ms_p50": "ms",
    "solver.step_ms_p50": "ms",
    "solver.step_ms.r2": "ms",
    "solver.step_ms.r4": "ms",
    "solver.step_ms.r8": "ms",
    "solver.step_self_ms_p50": "ms",
    "solver.steps": "count",
    "solver.ball_edges_mean": "count",
    "locality.measure_decay_s": "s",
    "locality.decay_rows": "count",
    "locality.adjacency_slem_calls": "count",
    "locality.adjacency_slem_s": "s",
    "locality.budget_for_s": "s",
    "cli.decay_overhead_s.exact": "s",
    "cli.decay_overhead_s.envelope": "s",
    **{"%s.self_s" % layer: "s" for layer in LAYERS},
    "trace.overhead_ms.light": "ms",
    "trace.overhead_ms.heavy": "ms",
    "trace.spans_per_request": "count",
}


def _median(values):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    ordered = [float(v) for v in ordered]
    mid = len(ordered) // 2
    return (ordered[mid] if len(ordered) % 2
            else (ordered[mid - 1] + ordered[mid]) / 2.0)


def per_layer_metrics(spans, traced, overhead, cli_overhead, ball_edges):
    """Per-layer figures from the traced pass.

    traced: the traced request records (their index is the span request
    id); overhead: traced minus untraced p50 in ms per request class;
    cli_overhead: CLI wall time minus library replay in s per decay
    instance; ball_edges: ball sizes of the traced requests.
    """
    index = SpanIndex(spans)
    requests = {rec.index: rec.cls for rec in traced}
    n_req = max(1, len(requests))
    in_req = [s for s in spans if s[5] in requests]
    setup_ids = sorted({s[5] for s in spans if isinstance(s[5], str)})

    def named(name, pool=in_req):
        return [s for s in pool if s[2] == name]

    def per_req_total(name):
        return sum(s[4] - s[3] for s in named(name)) / n_req

    def per_req_count(name):
        return len(named(name)) / n_req

    def median_ms(pool):
        return _median([(s[4] - s[3]) * 1e3 for s in pool])

    def setup_total(name):
        return _median([sum(float(s[4] - s[3]) for s in spans
                            if s[2] == name and s[5] == sid)
                        for sid in setup_ids])

    pinv = named("laplacian.pseudoinverse")
    solves = named("sensitivity.solve_exact")
    newton = {s[0] for s in solves if s[6] != "quadratic"}
    steps = named("solver.LocalizedSolver.step")
    out = {
        "graph.generate_s": setup_total("graph.generate"),
        "graph.ball_subgraph_ms_p50": median_ms(named("graph.ball_subgraph")),
        "graph.bfs_calls": per_req_count("graph.DirectedGraph.bfs_distances"),
        "graph.bfs_s": per_req_total("graph.DirectedGraph.bfs_distances"),
        "graph.load_s": per_req_total("graph.DirectedGraph.load"),
        "objective.gradient_calls":
            per_req_count("objective.ObjectiveBundle.gradient"),
        "objective.gradient_s":
            per_req_total("objective.ObjectiveBundle.gradient"),
        "objective.hessian_diag_s":
            per_req_total("objective.ObjectiveBundle.hessian_diag"),
        "laplacian.pinv_calls": len(pinv) / n_req,
        "laplacian.pinv_s": per_req_total("laplacian.pseudoinverse"),
        "laplacian.pinv_n3_sum": sum(float(s[6]) ** 3 for s in pinv) / n_req,
        "laplacian.pinv_setup_s": setup_total("laplacian.pseudoinverse"),
        "laplacian.walk_build_ms":
            median_ms(named("laplacian.WeightedWalk.__init__")),
        "laplacian.spectrum_s": per_req_total("laplacian.Spectrum.__init__"),
        "sensitivity.flow_problem_ms":
            median_ms(named("sensitivity.FlowProblem.__init__", spans)),
        "sensitivity.solve_exact_ms.quadratic":
            median_ms([s for s in solves if s[6] == "quadratic"]),
        "sensitivity.solve_exact_ms.logcosh":
            median_ms([s for s in solves if s[6] == "log-cosh"]),
        "sensitivity.newton_iters": (
            sum(1 for s in named("objective.ObjectiveBundle.hessian_diag")
                if s[1] in newton) / len(newton) if newton else 0.0),
        "sensitivity.apply_ms":
            median_ms(named("sensitivity.SensitivityOperator.apply")),
        "solver.localized_build_ms_p50":
            median_ms(named("solver.LocalizedSolver.__init__")),
        "solver.step_ms_p50": median_ms(steps),
        "solver.step_self_ms_p50": _median([
            (s[4] - s[3] - index.child_time_of(
                s, "objective.ObjectiveBundle.gradient")) * 1e3
            for s in steps]),
        "solver.steps": len(steps) / n_req,
        "solver.ball_edges_mean":
            sum(ball_edges) / len(ball_edges) if ball_edges else 0.0,
        "locality.measure_decay_s": per_req_total("locality.measure_decay"),
        "locality.decay_rows": sum(
            s[6] for s in named("locality.measure_decay")) / n_req,
        "locality.adjacency_slem_calls":
            per_req_count("locality.adjacency_slem"),
        "locality.adjacency_slem_s": per_req_total("locality.adjacency_slem"),
        "locality.budget_for_s": setup_total("locality.budget_for"),
        "cli.decay_overhead_s.exact": cli_overhead.get("exact", 0.0),
        "cli.decay_overhead_s.envelope": cli_overhead.get("envelope", 0.0),
        "trace.overhead_ms.light": overhead["light"],
        "trace.overhead_ms.heavy": overhead["heavy"],
        "trace.spans_per_request": len(in_req) / n_req,
    }
    for radius in ("r2", "r4", "r8"):
        out["solver.step_ms." + radius] = median_ms(
            [s for s in steps if requests[s[5]] == radius])
    for layer in LAYERS:
        out["%s.self_s" % layer] = sum(
            index.self_time(s) for s in in_req
            if s[2].split(".", 1)[0] == layer) / n_req
    return {name: (out[name], unit) for name, unit in PER_LAYER.items()}
