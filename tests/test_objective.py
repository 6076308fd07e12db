import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak_mb
from localflow import CostError, EdgeCost, ObjectiveBundle, objective


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


def test_from_spec_refuses_an_unknown_edge_id():
    """The first per-edge id the edges lack, in the spec's order, is
    named, even when its entry is one no edge would use."""
    spec = {"default": {"kind": "quadratic", "a": 1.0},
            "per_edge": {"e1": {"kind": "quadratic", "a": 2.0},
                         "bogus": {"kind": "nonsense"}, "also": {}}}
    with pytest.raises(CostError,
                       match="^unknown edge id in cost spec: bogus$"):
        ObjectiveBundle.from_spec(spec, ["e0", "e1"])


def _spec_reference(spec, edge_ids):
    """from_spec edge by edge: one EdgeCost per edge."""
    default, per_edge = spec.get("default"), spec.get("per_edge", {})
    costs = []
    for eid in edge_ids:
        entry = per_edge.get(eid, default)
        if entry is None:
            raise CostError("no cost for edge %s and no default" % eid)
        costs.append(EdgeCost.from_json_dict(entry))
    return ObjectiveBundle(costs)


def _outcome(build):
    """The parameter bytes of build()'s bundle, or its error's type and
    message."""
    try:
        return build()._params.tobytes()
    except (CostError, KeyError) as exc:
        return type(exc), str(exc)


_valid_entries = st.one_of(
    st.builds(lambda a, c: {"kind": "quadratic", "a": a, "c": c},
              st.floats(0.1, 5.0), st.floats(-2.0, 2.0)),
    st.builds(lambda a, q, r: {"kind": "quartic", "a": a, "q": q,
                               "radius": r},
              st.floats(0.1, 5.0), st.floats(0.0, 2.0), st.floats(0.5, 50.0)),
    st.builds(lambda a, s: {"kind": "log-cosh", "a": a, "s": s},
              st.floats(0.1, 5.0), st.floats(0.0, 2.0)))
_invalid_entries = st.sampled_from([
    {"kind": "nonsense", "a": 1.0}, {"kind": "quadratic", "a": 0.0},
    {"kind": "quartic", "a": 1.0, "q": 1.0},
    {"kind": "log-cosh", "a": 1.0, "s": -1.0},
    {"kind": "quadratic", "a": math.nan}, {"kind": "log-cosh", "s": 1.0}])
_entries = st.one_of(_valid_entries, _invalid_entries)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.sampled_from(["absent", "valid", "invalid"]),
       st.booleans(), st.data())
def test_from_spec_matches_the_per_edge_reference(m, default, cover_all,
                                                  data):
    """Parsing each distinct entry object once gives the bundle of the
    edge-by-edge build bit for bit, or its refusal with the same message:
    with the default absent, valid or invalid (used by no edge when every
    edge is overridden), and entries shared between edges or not."""
    ids = ["e%d" % k for k in range(m)]
    spec = {}
    if default != "absent":
        spec["default"] = data.draw(
            _valid_entries if default == "valid" else _invalid_entries)
    chosen = ids if cover_all else data.draw(
        st.lists(st.sampled_from(ids), unique=True))
    pool = data.draw(st.lists(_entries, min_size=1, max_size=3))
    spec["per_edge"] = {
        eid: data.draw(st.sampled_from(pool)) if data.draw(st.booleans())
        else data.draw(_entries) for eid in chosen}
    assert _outcome(lambda: ObjectiveBundle.from_spec(spec, ids)) \
        == _outcome(lambda: _spec_reference(spec, ids))


def test_from_spec_parses_each_distinct_entry_once(monkeypatch):
    built = []
    parse = objective._parse

    def counted(kind, params):
        built.append(params)
        return parse(kind, params)

    monkeypatch.setattr(objective, "_parse", counted)
    ids = ["e%d" % k for k in range(1000)]
    spec = {"default": {"kind": "quadratic", "a": 1.0},
            "per_edge": {eid: {"kind": "log-cosh", "a": 1.0, "s": 0.5}
                         for eid in ids[::400]}}
    bundle = ObjectiveBundle.from_spec(spec, ids)
    assert len(built) == 4
    assert bundle.log_cosh.sum() == 3 and bundle.n_edges == 1000


def test_from_spec_with_a_default_only_stays_small():
    ids = ["e%d" % k for k in range(300_000)]
    spec = {"default": {"kind": "quadratic", "a": 1.0}}
    assert traced_peak_mb(lambda: ObjectiveBundle.from_spec(spec, ids)) < 80


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
    """The array-backed bundle, from EdgeCost objects or from parameter
    arrays, and its sub-bundles agree with the scalar per-edge methods on
    mixed quadratic, quartic and log-cosh costs."""
    costs = [_cost(*params) for params, _ in edges]
    x = np.array([xe for _, xe in edges])
    m = len(costs)
    idx = sorted(random.sample(range(m), random.randint(1, m)))
    full = ObjectiveBundle(costs)
    cases = [(full, list(range(m))), (full[idx], idx)]
    # one array bundle per kind, each kind ignoring the parameters it does
    # not use
    kinds, a, c, coef = (np.array(col) for col in zip(*(
        params for params, _ in edges)))
    for kind in set(kinds.tolist()):
        of_kind = np.flatnonzero(kinds == kind)
        arrays = ObjectiveBundle.from_arrays(
            kind, a[of_kind], c=c[of_kind], q=coef[of_kind], s=coef[of_kind],
            radius=50.0)
        some = sorted(random.sample(range(len(of_kind)),
                                    random.randint(1, len(of_kind))))
        cases += [(arrays, of_kind.tolist()),
                  (arrays[some], of_kind[some].tolist())]
    for bundle, sel in cases:
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


@pytest.mark.parametrize("kind, params", [
    ("quadratic", {"a": 0.0}), ("quartic", {"a": 1.0, "q": 1.0}),
    ("log-cosh", {"a": 1.0, "s": -0.1}), ("cubic", {"a": 1.0}),
    ("quadratic", {"a": 1.0, "c": math.nan}),
    ("quartic", {"a": 1.0, "q": 1.0, "radius": math.inf}),
    ("log-cosh", {"a": math.nan, "s": 0.1}),
    ("log-cosh", {"a": 1.0, "s": math.inf})])
def test_from_arrays_refuses_as_edge_cost(kind, params):
    """The same rules refuse a bad cost on its own and as edge 1 of a
    bundle built from arrays, after a good edge 0, with the same
    message."""
    with pytest.raises(CostError) as want:
        EdgeCost(kind, **params)
    columns = {key: [good, params.get(key, default)] for key, good, default
               in (("a", 1.0, 1.0), ("c", 0.0, 0.0), ("q", 0.0, 0.0),
                   ("s", 0.0, 0.0), ("radius", 1.0, math.nan))}
    with pytest.raises(CostError) as got:
        ObjectiveBundle.from_arrays(kind, **columns)
    assert str(got.value) in (str(want.value), "edge 1: %s" % want.value)


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
