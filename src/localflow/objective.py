"""Separable edge costs with certified curvature envelopes.

Each edge cost carries constants alpha <= f''(x) <= beta on its declared
domain. Non-quadratic kinds enforce their validity interval at evaluation
time instead of clamping, so a stray iterate fails loudly. A bundle holds
its costs' parameters as per-edge arrays, and evaluates each term with
the same formula as a single edge.
"""

import math
import struct
from functools import partialmethod

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


# a cost's entries in its bundle's parameter arrays, packed as 8 doubles
_ROW = struct.Struct("8d").pack
# a*x^2/2 + c*x and its first two derivatives
_BASE = (lambda x, a, c: 0.5 * a * x * x + c * x, lambda x, a, c: a * x + c,
         lambda x, a, c: a * np.ones_like(x))
# every kind adds coef * u(x) to the base; per kind: its code in a bundle,
# the parameter that is coef, and u, u', u''
_KINDS = {"quadratic": (0, None, None),
          "quartic": (1, "q", (lambda x: 0.25 * x ** 4, lambda x: x ** 3,
                               lambda x: 3.0 * x * x)),
          "log-cosh": (2, "s", (_log_cosh, np.tanh, _sech2))}


class EdgeCost:
    """One-dimensional cost for a single edge.

    Kinds:
      quadratic:  a*x^2/2 + c*x                  (alpha = beta = a)
      quartic:    a*x^2/2 + q*x^4/4 on [-R, R]   (alpha = a, beta = a + 3*q*R^2)
      log-cosh:   a*x^2/2 + s*log(cosh(x))       (alpha = a, beta = a + s)
    """

    def __init__(self, kind, **params):
        if kind not in _KINDS:
            raise CostError("unknown cost kind: %s" % kind)
        self.kind, self.params = kind, params
        code = _KINDS[kind][0]
        a = self.a = self.alpha = float(params["a"])
        c = self.c = float(params.get("c", 0.0)) if code == 0 else 0.0
        q = self.q = float(params["q"]) if code == 1 else 0.0
        s = self.s = float(params["s"]) if code == 2 else 0.0
        if a <= 0 or q < 0 or s < 0:
            raise CostError("%s needs a > 0 and q, s >= 0" % kind)
        self.interval, r = None, math.inf
        if code == 1:
            r = self.radius = float(params.get("radius", math.nan))
            if not r > 0:
                raise CostError("quartic needs a positive validity radius")
            self.interval = (-r, r)
        beta = self.beta = a + 3.0 * q * r ** 2 if code == 1 else a + s
        # beta is not finite when a, q, R or s is not
        if not (math.isfinite(beta) and math.isfinite(c)):
            raise CostError("%s cost parameters must be finite" % kind)
        self._row = _ROW(a, c, q, s, -r, r, beta, code)

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
        return cls(data["kind"],
                   **{k: v for k, v in data.items() if k != "kind"})


class ObjectiveBundle:
    """Per-edge costs aligned with an edge ordering, with global constants
    alpha = min_e alpha_e, beta = max_e beta_e and Q = beta / alpha.

    The parameters are per-edge arrays a, c, q, s, the domain bounds
    lo/hi (+-inf without an interval) and the kind masks quartic and
    log_cosh; bundle[idx] is the bundle of the edges idx."""

    def __init__(self, costs):
        self.costs = list(costs)
        # one pass over the costs; the arrays are the columns of its rows
        rows = b"".join([c._row for c in self.costs])
        self._set_params(np.frombuffer(rows).reshape(-1, 8).T.copy())

    def _set_params(self, params):
        if not params.size:
            raise CostError("empty cost bundle")
        self._params = params
        self.a, self.c, self.q, self.s, self.lo, self.hi, beta, code = params
        self.quartic, self.log_cosh = code == 1, code == 2
        self.alpha, self.beta = float(self.a.min()), float(beta.max())
        self.Q = self.beta / self.alpha
        self.all_quadratic = not code.any()
        # the terms present, as (mask, coef on the mask, u)
        self._terms = [(mask, coef[mask], _KINDS[kind][2]) for mask, coef, kind
                       in ((self.quartic, self.q, "quartic"),
                           (self.log_cosh, self.s, "log-cosh")) if mask.any()]

    def __getitem__(self, idx):
        sub = object.__new__(ObjectiveBundle)
        sub.costs = [self.costs[e] for e in idx]
        sub._set_params(self._params[:, idx])
        return sub

    @property
    def n_edges(self):
        return len(self.costs)

    def check_domain(self, x):
        """Raise CostError unless x has one entry per edge, each inside
        its edge's validity interval."""
        if len(x) != self.n_edges:
            raise CostError("flow vector has wrong dimension")
        if self.quartic.any():
            bad = np.flatnonzero((x < self.lo) | (x > self.hi))
            if len(bad):
                raise CostError("flow on edge %d outside validity interval %s"
                                % (bad[0], self.costs[bad[0]].interval))

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
    def uniform_quadratic(cls, n_edges, a=1.0, c=0.0):
        return cls([EdgeCost("quadratic", a=a, c=c) for _ in range(n_edges)])

    @classmethod
    def from_spec(cls, spec, edge_ids):
        """Build from a cost-spec mapping: {"default": {...},
        "per_edge": {edge-id: {...}}}."""
        default, per_edge = spec.get("default"), spec.get("per_edge", {})
        costs = []
        for eid in edge_ids:
            entry = per_edge.get(eid, default)
            if entry is None:
                raise CostError("no cost for edge %s and no default" % eid)
            costs.append(EdgeCost.from_json_dict(entry))
        return cls(costs)
