import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_curve():
    spec = importlib.util.spec_from_file_location(
        "bench_curve", os.path.join(ROOT, "tools", "bench_curve.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_curve_writes_one_row_per_size(tmp_path):
    out = tmp_path / "bench.json"
    script = os.path.join(ROOT, "tools", "bench_curve.py")
    subprocess.run([sys.executable, script, "--out", str(out),
                    "--sizes", "20", "40", "--radii", "1", "4",
                    "--requests", "2"],
                   check=True, capture_output=True, timeout=120)
    report = json.loads(out.read_text())
    assert [row["n"] for row in report["rows"]] == [20, 40]
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
            # a step time is reported only over balls with a cycle
            assert (entry["step_us_p50"] is None) == (
                entry["step_requests"] == 0)
            assert entry["step_requests"] <= 2
        # a radius-4 ball of a 3-regular graph that is a tree has 1 + 3 +
        # 6 + 12 + 24 = 46 vertices, more than 20 or 40: these balls have
        # a cycle, so their step time is measured
        assert row["radius"]["4"]["step_requests"] == 2


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
