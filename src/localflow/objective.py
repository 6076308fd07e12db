"""Separable edge costs with certified curvature envelopes.

Each edge cost carries constants alpha <= f''(x) <= beta on its declared
domain. Non-quadratic kinds enforce their validity interval at evaluation
time instead of clamping, so a stray iterate fails loudly. A bundle holds
its costs' parameters as per-edge arrays, and evaluates each term with
the same formula as a single edge.
"""

import math
from functools import cached_property, partialmethod
from itertools import chain

import numpy as np


class CostError(ValueError):
    """Invalid cost specification or out-of-domain evaluation."""


def _log_cosh(x):
    """log cosh x = |x| + log1p(e^{-2|x|}) - log 2, finite for every x."""
    return np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x))) - math.log(2.0)


def _sech2(x):
    """sech^2 x = 4 e^{-2|x|} / (1 + e^{-2|x|})^2, which cannot overflow."""
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / (1.0 + e) ** 2


# a*x^2/2 + c*x and its first two derivatives
_BASE = (lambda x, a, c: 0.5 * a * x * x + c * x, lambda x, a, c: a * x + c,
         lambda x, a, c: a * np.ones_like(x))
# every kind adds coef * u(x) to the base; per kind: its code in a bundle,
# the parameter that is coef, and u, u', u''
_KINDS = {"quadratic": (0, None, None),
          "quartic": (1, "q", (lambda x: 0.25 * x ** 4, lambda x: x ** 3,
                               lambda x: 3.0 * x * x)),
          "log-cosh": (2, "s", (_log_cosh, np.tanh, _sech2))}
_NAMES = tuple(_KINDS)  # the kind of each code


def _code(kind):
    if kind not in _KINDS:
        raise CostError("unknown cost kind: %s" % kind)
    return _KINDS[kind][0]


# the per-edge validity rules, in order, by the message of a failure,
# which takes the kind's name
_RULES = ("%s needs a positive validity radius",
          "%s cost parameters must be finite",
          "%s needs a > 0 and q, s >= 0")


def _rules(code, a, c, q, s, r):
    """beta = a + s + 3 q r^2 and whether each of _RULES holds, on one
    cost's floats or on a bundle's per-edge arrays. A kind's unused
    parameters are 0, r among them."""
    beta = a + s + 3.0 * q * (r * r)
    # NaN fails every comparison; beta is finite if a, q, r and s are
    return beta, ((r > 0) | (code != 1),
                  (abs(beta) < math.inf) & (abs(c) < math.inf),
                  (a > 0) & (q >= 0) & (s >= 0))


def _params(code, a, c, q, s, radius):
    """The parameter rows (a, c, q, s, lo, hi, beta, code) of the costs
    with kind codes `code`, each argument one value or one per edge, after
    EdgeCost's rules: a CostError names the first edge that breaks the
    first failing rule."""
    code, a, c, q, s, radius = np.broadcast_arrays(*np.atleast_1d(
        *(np.asarray(v, dtype=float) for v in (code, a, c, q, s, radius))))
    quartic = code == 1
    c, q = np.where(code == 0, c, 0.0), np.where(quartic, q, 0.0)
    s, r = np.where(code == 2, s, 0.0), np.where(quartic, radius, 0.0)
    with np.errstate(all="ignore"):  # as in float arithmetic
        beta, held = _rules(code, a, c, q, s, r)
    for ok, message in zip(held, _RULES):
        if not ok.all():
            k = int(np.argmin(ok))
            raise CostError("edge %d: %s"
                            % (k, message % _NAMES[int(code[k])]))
    hi = np.where(quartic, r, math.inf)
    return np.array([a, c, q, s, -hi, hi, beta, code])


def _parse(kind, params):
    """The row (code, a, c, q, s, radius) of one cost entry, unused ones 0."""
    code = _code(kind)
    return (code, float(params["a"]),
            float(params.get("c", 0.0)) if code == 0 else 0.0,
            float(params["q"]) if code == 1 else 0.0,
            float(params["s"]) if code == 2 else 0.0,
            float(params.get("radius", math.nan)) if code == 1 else 0.0)


class EdgeCost:
    """One-dimensional cost for a single edge: the parser and validator of
    one JSON cost entry, and the scalar reference for a bundle.

    Kinds:
      quadratic:  a*x^2/2 + c*x                  (alpha = beta = a)
      quartic:    a*x^2/2 + q*x^4/4 on [-R, R]   (alpha = a, beta = a + 3*q*R^2)
      log-cosh:   a*x^2/2 + s*log(cosh(x))       (alpha = a, beta = a + s)
    """

    def __init__(self, kind, /, **params):
        self.kind, self.params = kind, params
        self.code, a, self.c, self.q, self.s, self.radius = row = \
            _parse(kind, params)
        self.a = self.alpha = a
        self.beta, held = _rules(*row)
        if not all(held):
            raise CostError(_RULES[held.index(False)] % kind)

    def _evaluate(self, order, x):
        out = _BASE[order](x, self.a, self.c)
        _, coef, u = _KINDS[self.kind]
        return out if u is None else out + getattr(self, coef) * u[order](x)

    value = partialmethod(_evaluate, 0)
    deriv = partialmethod(_evaluate, 1)
    second_deriv = partialmethod(_evaluate, 2)

    def to_json_dict(self):
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_json_dict(cls, data):
        return cls(data["kind"], **data)


class ObjectiveBundle:
    """Per-edge costs aligned with an edge ordering, with global constants
    alpha = min_e alpha_e, beta = max_e beta_e and Q = beta / alpha.

    The parameters are per-edge arrays a, c, q, s, the domain bounds
    lo/hi (+-inf without an interval) and the kind masks quartic and
    log_cosh, with `any_quartic` set once for the domain check;
    bundle[idx] is the bundle of the edges idx. A bundle holds no per-edge
    objects: the constructor reads the parameters off EdgeCost objects,
    `from_arrays` takes them as arrays of one kind, and `costs` rebuilds
    the objects on first use."""

    def __init__(self, costs):
        self._set_params(_params(*np.fromiter(chain.from_iterable(
            (c.code, c.a, c.c, c.q, c.s, c.radius) for c in costs),
            float).reshape(-1, 6).T))

    @classmethod
    def from_arrays(cls, kind, a, c=0.0, q=0.0, s=0.0, radius=math.nan):
        """The bundle of the costs EdgeCost(kind, a=a[e], c=c[e], ...),
        none of them built: each parameter is one value or one per edge.
        EdgeCost's rules hold; a CostError names the first edge that
        breaks the first failing rule."""
        return object.__new__(cls)._set_params(
            _params(_code(kind), a, c, q, s, radius))

    def _set_params(self, params):
        if not params.size:
            raise CostError("empty cost bundle")
        self._params = params
        self.a, self.c, self.q, self.s, self.lo, self.hi, beta, code = params
        self.quartic, self.log_cosh = code == 1, code == 2
        self.any_quartic = bool(self.quartic.any())
        self.alpha, self.beta = float(self.a.min()), float(beta.max())
        self.Q = self.beta / self.alpha
        self.all_quadratic = not code.any()
        # the terms present, as (mask, coef on the mask, u)
        self._terms = [(mask, coef[mask], _KINDS[kind][2]) for mask, coef, kind
                       in ((self.quartic, self.q, "quartic"),
                           (self.log_cosh, self.s, "log-cosh")) if mask.any()]
        return self

    def __getitem__(self, idx):
        return object.__new__(ObjectiveBundle)._set_params(
            self._params[:, idx])

    @cached_property
    def costs(self):
        """The edges' costs as EdgeCost objects, rebuilt from the arrays
        with the parameters each kind reads."""
        costs = []
        for a, c, q, s, _, hi, _, code in self._params.T.tolist():
            params = ({"c": c}, {"q": q, "radius": hi}, {"s": s})[int(code)]
            costs.append(EdgeCost(_NAMES[int(code)], a=a, **params))
        return costs

    @property
    def n_edges(self):
        return self._params.shape[1]

    def check_domain(self, x):
        """Raise CostError unless x has one entry per edge, each inside
        its edge's validity interval."""
        if len(x) != self.n_edges:
            raise CostError("flow vector has wrong dimension")
        if self.any_quartic:
            bad = np.flatnonzero((x < self.lo) | (x > self.hi))
            if len(bad):
                raise CostError("flow on edge %d outside validity interval %s"
                                % (bad[0], (float(self.lo[bad[0]]),
                                            float(self.hi[bad[0]]))))

    def _evaluate(self, order, x):
        x = np.asarray(x, dtype=float)
        self.check_domain(x)
        out = _BASE[order](x, self.a, self.c)
        # a term only where its kind is: no other flow's power can overflow
        for mask, coef, u in self._terms:
            out[mask] += coef * u[order](x[mask])
        return out

    def eval(self, x):
        return float(self._evaluate(0, x).sum())

    def gradient(self, x):
        return self._evaluate(1, x)

    def hessian_diag(self, x):
        return self._evaluate(2, x)

    @classmethod
    def from_spec(cls, spec, edge_ids):
        """Build from a cost-spec mapping {"default": {...}, "per_edge":
        {edge-id: {...}}} over the list edge_ids, refusing a per-edge id
        not in it. Each distinct entry object is parsed once, and the
        edges' rows are checked together; only on a fault are the distinct
        entries built as EdgeCost objects, in edge order, so a refusal is
        the first faulty entry's, as EdgeCost words it."""
        default, per_edge = spec.get("default"), spec.get("per_edge", {})
        unknown = per_edge.keys() - edge_ids
        if unknown:
            raise CostError("unknown edge id in cost spec: %s"
                            % next(k for k in per_edge if k in unknown))
        entries = [per_edge.get(eid, default) for eid in edge_ids]
        distinct = {id(e): e for e in entries}
        slot = {key: k for k, key in enumerate(distinct)}
        try:
            rows = np.array([_parse(e["kind"], e) for e in distinct.values()],
                            dtype=float).reshape(-1, 6)
            return object.__new__(cls)._set_params(
                _params(*rows[[slot[id(e)] for e in entries]].T))
        except (KeyError, OverflowError, TypeError, ValueError):
            for entry in distinct.values():
                if entry is None:
                    raise CostError("no cost for edge %s and no default"
                                    % edge_ids[entries.index(None)]) from None
                EdgeCost.from_json_dict(entry)
            raise
