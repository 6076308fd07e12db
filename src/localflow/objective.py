"""Separable edge costs with certified curvature envelopes.

Each edge cost carries constants alpha <= f''(x) <= beta on its declared
domain. Non-quadratic kinds enforce their validity interval at evaluation
time instead of clamping, so a stray iterate fails loudly.
"""

import math

import numpy as np


class CostError(ValueError):
    """Invalid cost specification or out-of-domain evaluation."""


class EdgeCost:
    """One-dimensional cost for a single edge.

    Kinds:
      quadratic:  a*x^2/2 + c*x                  (alpha = beta = a)
      quartic:    a*x^2/2 + q*x^4/4 on [-R, R]   (alpha = a, beta = a + 3*q*R^2)
      log-cosh:   a*x^2/2 + s*log(cosh(x))       (alpha = a, beta = a + s)
    """

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = dict(params)
        if kind == "quadratic":
            self.a = float(params["a"])
            self.c = float(params.get("c", 0.0))
            if self.a <= 0:
                raise CostError("quadratic coefficient a must be positive")
            self.alpha = self.beta = self.a
            self.interval = None
        elif kind == "quartic":
            self.a = float(params["a"])
            self.q = float(params["q"])
            if self.a <= 0 or self.q < 0:
                raise CostError("quartic needs a > 0 and q >= 0")
            if "radius" not in params:
                raise CostError("quartic needs a validity radius")
            self.radius = float(params["radius"])
            if self.radius <= 0:
                raise CostError("validity radius must be positive")
            self.alpha = self.a
            self.beta = self.a + 3.0 * self.q * self.radius ** 2
            self.interval = (-self.radius, self.radius)
        elif kind == "log-cosh":
            self.a = float(params["a"])
            self.s = float(params["s"])
            if self.a <= 0 or self.s < 0:
                raise CostError("log-cosh needs a > 0 and s >= 0")
            self.alpha = self.a
            self.beta = self.a + self.s
            self.interval = None
        else:
            raise CostError("unknown cost kind: %s" % kind)
        # beta = a + 3*q*R^2 or a + s is not finite when a, q, R or s is not
        if not (math.isfinite(self.beta)
                and math.isfinite(getattr(self, "c", 0.0))):
            raise CostError("%s cost parameters must be finite" % kind)

    def check_domain(self, x):
        if self.interval is not None:
            lo, hi = self.interval
            if x < lo or x > hi:
                return False
        return True

    def value(self, x):
        if self.kind == "quadratic":
            return 0.5 * self.a * x * x + self.c * x
        if self.kind == "quartic":
            return 0.5 * self.a * x * x + 0.25 * self.q * x ** 4
        return 0.5 * self.a * x * x + self.s * np.log(np.cosh(x))

    def deriv(self, x):
        if self.kind == "quadratic":
            return self.a * x + self.c
        if self.kind == "quartic":
            return self.a * x + self.q * x ** 3
        return self.a * x + self.s * np.tanh(x)

    def second_deriv(self, x):
        if self.kind == "quadratic":
            return self.a
        if self.kind == "quartic":
            return self.a + 3.0 * self.q * x * x
        return self.a + self.s / np.cosh(x) ** 2

    def to_json_dict(self):
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_json_dict(cls, data):
        data = dict(data)
        kind = data.pop("kind")
        return cls(kind, **data)


class ObjectiveBundle:
    """Per-edge costs aligned with an edge ordering, with global constants
    alpha = min_e alpha_e, beta = max_e beta_e and Q = beta / alpha."""

    def __init__(self, costs):
        self.costs = list(costs)
        if not self.costs:
            raise CostError("empty cost bundle")
        self.alpha = min(c.alpha for c in self.costs)
        self.beta = max(c.beta for c in self.costs)
        self.Q = self.beta / self.alpha

    @property
    def n_edges(self):
        return len(self.costs)

    @property
    def all_quadratic(self):
        return all(c.kind == "quadratic" for c in self.costs)

    def _check(self, x):
        if len(x) != self.n_edges:
            raise CostError("flow vector has wrong dimension")
        for e, (c, xe) in enumerate(zip(self.costs, x)):
            if not c.check_domain(xe):
                raise CostError(
                    "flow on edge %d outside validity interval %s"
                    % (e, c.interval))

    def eval(self, x):
        self._check(x)
        return float(sum(c.value(xe) for c, xe in zip(self.costs, x)))

    def gradient(self, x):
        self._check(x)
        return np.array([c.deriv(xe) for c, xe in zip(self.costs, x)])

    def hessian_diag(self, x):
        self._check(x)
        return np.array([c.second_deriv(xe) for c, xe in zip(self.costs, x)])

    @classmethod
    def uniform_quadratic(cls, n_edges, a=1.0, c=0.0):
        return cls([EdgeCost("quadratic", a=a, c=c) for _ in range(n_edges)])

    @classmethod
    def from_spec(cls, spec, edge_ids):
        """Build from a cost-spec mapping: {"default": {...},
        "per_edge": {edge-id: {...}}}."""
        default = spec.get("default")
        per_edge = spec.get("per_edge", {})
        costs = []
        for eid in edge_ids:
            entry = per_edge.get(eid, default)
            if entry is None:
                raise CostError("no cost for edge %s and no default" % eid)
            costs.append(EdgeCost.from_json_dict(entry))
        return cls(costs)
