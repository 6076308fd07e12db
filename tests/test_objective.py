import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localflow import CostError, EdgeCost, ObjectiveBundle


def test_quadratic_eval_zero():
    bundle = ObjectiveBundle.uniform_quadratic(3)
    assert bundle.eval(np.zeros(3)) == 0.0


def test_quadratic_eval_value():
    bundle = ObjectiveBundle.uniform_quadratic(2)
    assert bundle.eval(np.array([1.0, 2.0])) == pytest.approx(2.5)


def test_quartic_eval_value():
    cost = EdgeCost("quartic", a=1.0, q=1.0, radius=2.0)
    assert ObjectiveBundle([cost]).eval(np.array([1.0])) == pytest.approx(0.75)


def test_gradient_and_hessian_quadratic():
    bundle = ObjectiveBundle([EdgeCost("quadratic", a=2.0)])
    x = np.array([3.0])
    assert bundle.gradient(x)[0] == pytest.approx(6.0)
    assert bundle.hessian_diag(x)[0] == pytest.approx(2.0)


def test_gradient_zero_at_quadratic_minimizer():
    bundle = ObjectiveBundle.uniform_quadratic(4, a=1.7)
    assert np.abs(bundle.gradient(np.zeros(4))).max() == 0.0


def test_curvature_certificates():
    quartic = EdgeCost("quartic", a=1.0, q=0.5, radius=2.0)
    assert quartic.alpha == 1.0
    assert quartic.beta == pytest.approx(1.0 + 3 * 0.5 * 4.0)
    lc = EdgeCost("log-cosh", a=2.0, s=0.5)
    assert (lc.alpha, lc.beta) == (2.0, 2.5)


def test_bundle_global_constants():
    bundle = ObjectiveBundle([EdgeCost("quadratic", a=2.0),
                              EdgeCost("log-cosh", a=0.5, s=1.0)])
    assert bundle.alpha == 0.5
    assert bundle.beta == 2.0
    assert bundle.Q == 4.0
    assert not bundle.all_quadratic


def test_out_of_domain_names_the_edge():
    bundle = ObjectiveBundle([EdgeCost("quadratic", a=1.0),
                              EdgeCost("quartic", a=1.0, q=1.0, radius=1.0)])
    with pytest.raises(CostError, match="edge 1"):
        bundle.eval(np.array([0.0, 5.0]))


def test_invalid_parameters():
    with pytest.raises(CostError):
        EdgeCost("quadratic", a=0.0)
    with pytest.raises(CostError):
        EdgeCost("quartic", a=1.0, q=1.0)  # no radius
    with pytest.raises(CostError):
        EdgeCost("log-cosh", a=1.0, s=-0.1)
    with pytest.raises(CostError):
        EdgeCost("cubic", a=1.0)
    for kind, params in (("quadratic", {"a": 1.0, "c": math.nan}),
                         ("quartic", {"a": 1.0, "q": 1.0,
                                      "radius": math.inf}),
                         ("log-cosh", {"a": math.nan, "s": 0.1}),
                         ("log-cosh", {"a": 1.0, "s": math.inf})):
        with pytest.raises(CostError, match="finite"):
            EdgeCost(kind, **params)


def _random_cost(rng):
    kind = rng.choice(["quadratic", "quartic", "log-cosh"])
    if kind == "quadratic":
        return EdgeCost("quadratic", a=float(rng.uniform(0.5, 3.0)),
                        c=float(rng.uniform(-1, 1)))
    if kind == "quartic":
        return EdgeCost("quartic", a=float(rng.uniform(0.5, 3.0)),
                        q=float(rng.uniform(0.0, 1.0)), radius=3.0)
    return EdgeCost("log-cosh", a=float(rng.uniform(0.5, 3.0)),
                    s=float(rng.uniform(0.0, 2.0)))


def test_gradient_matches_finite_difference_of_eval():
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(100):
        cost = _random_cost(rng)
        x = float(rng.uniform(-2, 2))
        fd = (cost.value(x + h) - cost.value(x - h)) / (2 * h)
        scale = max(1.0, abs(cost.deriv(x)))
        assert abs(cost.deriv(x) - fd) <= 1e-6 * scale


def test_hessian_matches_finite_difference_of_gradient():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(100):
        cost = _random_cost(rng)
        x = float(rng.uniform(-2, 2))
        fd = (cost.deriv(x + h) - cost.deriv(x - h)) / (2 * h)
        scale = max(1.0, cost.second_deriv(x))
        assert abs(cost.second_deriv(x) - fd) <= 1e-5 * scale


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.9, 2.9), st.integers(0, 500))
def test_second_derivative_inside_certificate(x, seed):
    cost = _random_cost(np.random.default_rng(seed))
    h = cost.second_deriv(x)
    assert cost.alpha - 1e-12 <= h <= cost.beta + 1e-12


def test_cost_json_round_trip():
    cost = EdgeCost("quartic", a=1.5, q=0.25, radius=2.0)
    again = EdgeCost.from_json_dict(cost.to_json_dict())
    assert again.kind == cost.kind
    assert again.beta == cost.beta


def test_bundle_from_spec_default_and_override():
    spec = {"default": {"kind": "quadratic", "a": 1.0},
            "per_edge": {"e1": {"kind": "log-cosh", "a": 1.0, "s": 0.5}}}
    bundle = ObjectiveBundle.from_spec(spec, ["e0", "e1"])
    assert bundle.costs[0].kind == "quadratic"
    assert bundle.costs[1].kind == "log-cosh"
    with pytest.raises(CostError, match="no cost for edge"):
        ObjectiveBundle.from_spec({"per_edge": {}}, ["e0"])
