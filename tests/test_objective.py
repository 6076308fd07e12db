import math
import warnings

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


@pytest.mark.parametrize("x", [1e3, -1e3])
def test_log_cosh_finite_at_large_flow(x):
    cost = EdgeCost("log-cosh", a=2.0, s=0.5)
    bundle = ObjectiveBundle([cost, EdgeCost("quadratic", a=1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = (cost.value(x), cost.deriv(x), cost.second_deriv(x),
                  bundle.eval([x, 0.0]), bundle.gradient([x, 0.0])[0],
                  bundle.hessian_diag([x, 0.0])[0])
    # log cosh x -> |x| - log 2, tanh x -> sign x, sech^2 x -> 0
    value = x * x + 0.5 * (abs(x) - math.log(2.0))
    expected = (value, 2.0 * x + 0.5 * math.copysign(1.0, x), 2.0,
                value, 2.0 * x + 0.5 * math.copysign(1.0, x), 2.0)
    for got, want in zip(values, expected):
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-15)


_cost_params = st.tuples(st.sampled_from(["quadratic", "quartic", "log-cosh"]),
                         st.floats(0.1, 5.0), st.floats(-2.0, 2.0),
                         st.floats(0.0, 2.0))


def _cost(kind, a, c, coef):
    if kind == "quadratic":
        return EdgeCost(kind, a=a, c=c)
    if kind == "quartic":
        return EdgeCost(kind, a=a, q=coef, radius=50.0)
    return EdgeCost(kind, a=a, s=coef)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_cost_params, st.floats(-50.0, 50.0)),
                min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_bundle_matches_edge_costs(edges, random):
    """The array-backed bundle and its sub-bundles agree with the scalar
    per-edge methods on mixed quadratic, quartic and log-cosh costs."""
    costs = [_cost(*params) for params, _ in edges]
    x = np.array([xe for _, xe in edges])
    m = len(costs)
    idx = sorted(random.sample(range(m), random.randint(1, m)))
    full = ObjectiveBundle(costs)
    for bundle, sel in ((full, list(range(m))), (full[idx], idx)):
        xs = x[sel]
        for order, method in enumerate(("value", "deriv", "second_deriv")):
            want = np.array([getattr(costs[e], method)(xe)
                             for e, xe in zip(sel, xs)])
            got = (bundle.eval(xs), bundle.gradient(xs),
                   bundle.hessian_diag(xs))[order]
            if order == 0:  # a sum: relative to the sum of magnitudes
                assert abs(got - math.fsum(want)) <= 1e-15 * math.fsum(
                    abs(want))
            else:
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
        assert bundle.alpha == min(costs[e].alpha for e in sel)
        assert bundle.beta == max(costs[e].beta for e in sel)
        assert bundle.Q == bundle.beta / bundle.alpha
        assert bundle.all_quadratic == all(costs[e].kind == "quadratic"
                                           for e in sel)
        assert [c.kind for c in bundle.costs] == [costs[e].kind for e in sel]


def test_sub_bundle_checks_its_own_domain():
    bundle = ObjectiveBundle([EdgeCost("quartic", a=1.0, q=1.0, radius=1.0),
                              EdgeCost("quadratic", a=1.0),
                              EdgeCost("quartic", a=1.0, q=1.0, radius=2.0)])
    sub = bundle[[1, 2]]
    assert sub.gradient(np.array([9.0, 1.5])).tolist() == [9.0, 1.5 + 1.5**3]
    with pytest.raises(CostError, match="edge 1 outside"):
        sub.gradient(np.array([0.0, 2.5]))
    with pytest.raises(CostError, match="empty"):
        bundle[[]]
