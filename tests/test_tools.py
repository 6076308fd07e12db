import ast
import glob
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(directory, name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, directory, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_curve():
    return _load("tools", "bench_curve")


def test_bench_curve_writes_one_row_per_size(tmp_path):
    out = tmp_path / "bench.json"
    script = os.path.join(ROOT, "tools", "bench_curve.py")
    subprocess.run([sys.executable, script, "--out", str(out),
                    "--sizes", "20", "40", "--radii", "1", "4",
                    "--requests", "2"],
                   check=True, capture_output=True, timeout=120)
    report = json.loads(out.read_text())
    assert [(row["family"], row["n"]) for row in report["rows"]] == [
        ("k3", 20), ("k3", 40)]
    for row in report["rows"]:
        assert row["setup_ms"] > 0 and row["load_ms"] > 0
        assert row["global_solve_ms"] > 0
        # log-cosh costs are solved by Newton: a start, then per iteration
        # a direction and a trial point, each at least one CG iteration
        assert row["global_logcosh_ms"] > 0
        assert isinstance(row["logcosh_cg_iterations"], int)
        assert row["logcosh_cg_iterations"] >= 3
        # a 3-regular graph's mu is at most its degree
        assert row["constants_ms"] > 0 and 0 < row["mu_bound"] <= 3.0 + 1e-9
        assert 0 < row["decay_ms_p25"] <= row["decay_ms_p50"] \
            <= row["decay_ms_p75"]
        assert row["decay_cli_ms"] > 0
        assert set(row["radius"]) == {"1", "4"}
        for entry in row["radius"].values():
            assert entry["request_ms_p50"] > 0 and entry["requests"] == 2
            assert entry["build_ms_p50"] > 0
            _check_ball_columns(entry)
        # a radius-4 ball of a 3-regular graph that is a tree has 1 + 3 +
        # 6 + 12 + 24 = 46 vertices, more than 20 or 40: these balls have
        # a cycle, so their step time is measured
        assert row["radius"]["4"]["step_requests"] == 2


def _check_ball_columns(entry):
    """A radius entry's step, support and allocation columns."""
    # a step time is reported only over balls with a cycle
    assert (entry["step_us_p50"] is None) == (entry["step_requests"] == 0)
    assert entry["step_requests"] <= entry["requests"]
    # the cycle support is part of the ball's edges, empty on a tree
    assert 0 <= entry["cycle_support_mean"] <= entry["ball_edges_mean"]
    assert (entry["cycle_support_mean"] == 0) == (
        entry["cycle_rank_mean"] == 0)
    assert entry["build_peak_kib"] > 0


def test_bench_curve_grid_family(tmp_path):
    """--family grid runs the same columns on the square grid of side
    round(sqrt(n)); its periodic walk certifies no decay rate, so the
    decay columns are null."""
    out = tmp_path / "bench.json"
    assert _bench_curve().main(["--out", str(out), "--family", "grid",
                                "--sizes", "20", "40", "--radii", "1", "4",
                                "--requests", "2"]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(row["family"], row["n"], row["m"]) for row in rows] == [
        ("grid", 16, 24), ("grid", 36, 60)]
    for row in rows:
        assert row["setup_ms"] > 0 and row["global_solve_ms"] > 0
        assert row["decay_ms_p50"] is None and row["decay_cli_ms"] is None
        for entry in row["radius"].values():
            assert entry["request_ms_p50"] > 0 and entry["build_ms_p50"] > 0
            _check_ball_columns(entry)
        # a grid ball of radius 1 is a star, one of radius 4 holds a
        # 4-cycle: its steps are timed, on a support of at least 4 edges
        assert row["radius"]["1"]["cycle_rank_mean"] == 0
        assert row["radius"]["4"]["step_requests"] == 2
        assert row["radius"]["4"]["cycle_support_mean"] >= 4


def test_step_summary_skips_tree_balls():
    summary = _bench_curve().step_summary
    assert summary([-5.0, 3.0, 7.0, -1.0], [0, 2, 5, 0]) == {
        "step_us_p25": 4.0, "step_us_p50": 5.0, "step_us_p75": 6.0,
        "step_requests": 2}
    assert summary([-5.0, -8.0], [0, 0]) == {
        "step_us_p25": None, "step_us_p50": None, "step_us_p75": None,
        "step_requests": 0}


def test_bench_curve_reports_quartiles_around_each_median(tmp_path):
    out = tmp_path / "bench.json"
    assert _bench_curve().main(["--out", str(out), "--sizes", "30",
                                "--radii", "1", "3", "--requests", "4"]) == 0
    for entry in json.loads(out.read_text())["rows"][0]["radius"].values():
        for name in ("request_ms", "build_ms", "step_us"):
            p25, p50, p75 = (entry["%s_p%d" % (name, q)]
                             for q in (25, 50, 75))
            if name == "step_us" and p50 is None:
                assert p25 is None and p75 is None
                continue
            assert p25 <= p50 <= p75


def test_percentiles_are_none_without_samples():
    percentiles = _bench_curve().percentiles
    assert percentiles("x", [1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "x_p25": 2.0, "x_p50": 3.0, "x_p75": 4.0}
    assert percentiles("x", []) == {"x_p25": None, "x_p50": None,
                                    "x_p75": None}


def _traceable(package, tracing):
    """Every binding Tracer.install may replace: the attributes of the layer
    modules and the package, the entries of their tables, and the methods
    it lists, keyed by span name (None where a listed method is missing)."""
    names = {}
    for mod in [getattr(package, layer) for layer in tracing.LAYERS] \
            + [package]:
        for attr, value in vars(mod).items():
            names[mod.__name__, attr] = value
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, entry in value.items():
                    names[mod.__name__, attr, key] = entry
    for layer, classes in tracing.METHODS.items():
        for cls_name, attrs in classes.items():
            cls = getattr(getattr(package, layer), cls_name)
            for attr in attrs:
                names["%s.%s.%s" % (layer, cls_name, attr)] = \
                    cls.__dict__.get(attr)
    return names


def test_tracer_wraps_every_listed_method_and_restores_them():
    # the traced benchmark run patches these methods by name: a renamed or
    # deleted one makes install raise KeyError
    import localflow
    import localflow.cli  # noqa: F401 -- the tracer's cli layer
    tracing = _load("perfbench", "tracing")
    before = _traceable(localflow, tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(localflow)
        during = _traceable(localflow, tracing)
        methods = [key for key in before if isinstance(key, str)]
        assert methods and all(during[key] is not before[key]
                               for key in methods)
        assert localflow.solve_exact is not before["localflow",
                                                   "solve_exact"]
    finally:
        tracer.uninstall()
        after = _traceable(localflow, tracing)
        assert [key for key in before if after[key] is not before[key]] == []


# the dense solves of numpy.linalg, besides the library's pseudoinverse
DENSE_SOLVES = {"eigh", "eigvalsh", "inv", "pinv", "solve"}


def _dense_solves(path):
    """(file, scope, callee) of each dense solve one source file calls; the
    scope is the dotted name of the enclosing classes and functions."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                callee, func = ast.unparse(child.func), child.func
                if callee.rsplit(".", 1)[-1] == "pseudoinverse" or (
                        isinstance(func, ast.Attribute)
                        and func.attr in DENSE_SOLVES
                        and ast.unparse(func.value).endswith("linalg")):
                    found.add((os.path.basename(path), ".".join(scope),
                               callee))
            visit(child, scope)

    visit(tree, ())
    return found


def test_every_dense_solve_in_the_library_is_named():
    # a dense path beside the matrix-free projection shows up here: the
    # library keeps the small walk's spectrum, the Lanczos tridiagonal, the
    # pseudoinverse (the walk's pinv, the dense reference) and a ball's
    # cycle Gram matrix
    found = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "localflow",
                                              "*.py"))):
        found |= _dense_solves(path)
    assert found == {
        ("laplacian.py", "WeightedWalk", "pseudoinverse"),
        ("laplacian.py", "Spectrum.__init__", "np.linalg.eigvalsh"),
        ("laplacian.py", "norm_bound", "np.linalg.eigvalsh"),
        ("laplacian.py", "pseudoinverse", "np.linalg.eigh"),
        ("solver.py", "LocalizedSolver.__init__", "np.linalg.inv")}
