import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak_mb
from localflow import (DirectedGraph, FlowProblem, ObjectiveBundle,
                       PerturbationSpec, cli, generate, measure_decay)
from localflow.cli import main


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def read_report(*parts, raw=False):
    """The file at os.path.join(*parts): its bytes when raw, else its
    JSON. The file is closed before this returns."""
    with open(os.path.join(*parts), "rb") as fh:
        data = fh.read()
    return data if raw else json.loads(data)


@pytest.fixture
def two_path_files(tmp_path):
    graph = write_json(tmp_path / "graph.json", {
        "vertices": ["1", "2"],
        "edges": [{"id": "e1", "tail": "1", "head": "2"}],
    })
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {"1": 1.0, "2": -1.0})
    return graph, costs, flow


@pytest.fixture
def triangle_files(tmp_path):
    graph = write_json(tmp_path / "graph.json", {
        "vertices": ["1", "2", "3"],
        "edges": [{"id": "e12", "tail": "1", "head": "2"},
                  {"id": "e23", "tail": "2", "head": "3"},
                  {"id": "e31", "tail": "3", "head": "1"}],
    })
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {"1": 1.0, "2": -1.0, "3": 0.0})
    pert = write_json(tmp_path / "pert.json", {"1": 1.0, "2": -1.0, "3": 0.0})
    return graph, costs, flow, pert


def test_solve_two_path(two_path_files, tmp_path):
    graph, costs, flow = two_path_files
    out = str(tmp_path / "out")
    code = main(["solve", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--out", out])
    assert code == 0
    report = read_report(out, "solution.json")
    assert set(report["solution"]) == {"e1"}
    assert report["solution"]["e1"] == pytest.approx(1.0, abs=1e-12)
    assert report["residuals"]["feasibility_inf"] <= 1e-9
    assert report["index_map"]["edges"] == {"e1": 0}
    assert report["config"]["graph"] == graph


def test_solve_unbalanced_flow_exits_2(two_path_files, tmp_path, capsys):
    graph, costs, _ = two_path_files
    bad = write_json(tmp_path / "bad_flow.json", {"1": 1.0, "2": 0.0})
    code = main(["solve", "--graph", graph, "--costs", costs,
                 "--flow", bad, "--out", str(tmp_path)])
    assert code == 2
    assert "not balanced" in capsys.readouterr().err


def test_solve_missing_file_exits_2(two_path_files, tmp_path):
    graph, costs, _ = two_path_files
    code = main(["solve", "--graph", graph, "--costs", costs,
                 "--flow", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_missing_required_flag_exits_2(two_path_files, capsys):
    graph, costs, _ = two_path_files
    code = main(["solve", "--graph", graph, "--costs", costs])
    assert code == 2
    assert "--flow" in capsys.readouterr().err


def test_sensitivity_report(triangle_files, tmp_path):
    graph, costs, flow, pert = triangle_files
    out = str(tmp_path / "sens")
    code = main(["sensitivity", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--perturbation", pert, "--out", out])
    assert code == 0
    report = read_report(out, "sensitivity.json")
    assert report["derivative"]["e12"] == pytest.approx(2.0 / 3.0)
    assert report["derivative"]["e23"] == pytest.approx(-1.0 / 3.0)
    assert report["residuals"]["derivative_feasibility_inf"] <= 1e-8
    assert report["base_b"]["1"] == 1.0


def test_config_file_with_flag_override(triangle_files, tmp_path):
    graph, costs, flow, pert = triangle_files
    config = write_json(tmp_path / "cfg.json", {
        "graph": graph, "costs": costs, "flow": flow,
        "out": str(tmp_path / "wrong"),
    })
    out = str(tmp_path / "right")
    code = main(["solve", "--config", config, "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "solution.json"))
    assert not os.path.exists(str(tmp_path / "wrong"))



def test_solve_reads_tolerance_from_config(triangle_files, tmp_path,
                                           monkeypatch):
    graph, costs, flow, _ = triangle_files
    seen, real = [], cli.solve_exact

    def solve_exact(problem, tol, **kwargs):
        seen.append(tol)
        return real(problem, tol=tol, **kwargs)

    config = write_json(tmp_path / "cfg.json", {
        "graph": graph, "costs": costs, "flow": flow, "tolerance": 1e-7})
    out = str(tmp_path / "out")
    monkeypatch.setattr(cli, "solve_exact", solve_exact)
    assert main(["solve", "--config", config, "--out", out]) == 0
    assert main(["solve", "--config", config, "--tolerance", "1e-9",
                 "--out", out]) == 0
    assert seen == [1e-7, 1e-9]
    report = read_report(out, "solution.json")
    assert report["config"]["tolerance"] == 1e-9

def test_decay_csv_columns_and_bounds(tmp_path):
    gen_out = str(tmp_path / "gen")
    assert main(["generate", "--kind", "random-k-regular", "--n", "40",
                 "--k", "3", "--seed", "5", "--out", gen_out]) == 0
    graph = os.path.join(gen_out, "graph.json")
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {})
    pert = write_json(tmp_path / "pert.json", {"v0": 1.0, "v1": -1.0})
    out = str(tmp_path / "decay")
    code = main(["decay", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--perturbation", pert, "--out", out])
    assert code == 0
    with open(os.path.join(out, "decay.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert set(rows[0]) == {"distance", "measured", "bound",
                            "constants_mode", "edge"}
    for row in rows:
        assert float(row["measured"]) <= float(row["bound"]) + 1e-9
        assert row["constants_mode"] == "exact"


def test_decay_deterministic_output(tmp_path, triangle_files):
    graph, costs, flow, pert = triangle_files
    outs = []
    for name in ("d1", "d2"):
        out = str(tmp_path / name)
        assert main(["decay", "--graph", graph, "--costs", costs,
                     "--flow", flow, "--perturbation", pert,
                     "--out", out]) == 0
        outs.append(read_report(out, "decay.csv", raw=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cost", [
    {"kind": "quadratic", "a": 1.0},
    # Q = 1.01 keeps the envelope rate below 1
    {"kind": "log-cosh", "a": 1.0, "s": 0.01}],
    ids=["quadratic", "log-cosh"])
def test_decay_rows_match_one_set_at_a_time(tmp_path, cost):
    gen_out = str(tmp_path / "gen")
    assert main(["generate", "--kind", "random-k-regular", "--n", "40",
                 "--k", "3", "--seed", "5", "--out", gen_out]) == 0
    graph = os.path.join(gen_out, "graph.json")
    costs = write_json(tmp_path / "costs.json", {"default": cost})
    flow = write_json(tmp_path / "flow.json", {})
    pert = write_json(tmp_path / "pert.json", {"v0": 1.0, "v1": -1.0})
    out = str(tmp_path / "decay")
    assert main(["decay", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--perturbation", pert, "--out", out]) == 0
    g = DirectedGraph.load(graph)
    problem = FlowProblem(g, ObjectiveBundle.from_spec(
        {"default": cost}, list(g.edge_index)), np.zeros(g.n_vertices))
    spec = PerturbationSpec.from_mapping(g, {"v0": 1.0, "v1": -1.0})
    with open(os.path.join(out, "decay.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == g.n_edges
    for k, (dist, measured, bound, mode, edge) in enumerate(rows):
        one = measure_decay(problem, spec, [[k]])
        row = one.rows[0]
        # 17 significant digits read back to the same double
        assert (int(dist), float(measured), float(bound), mode, edge) == (
            row.distance, row.measured, row.bound, one.constants_mode,
            row.edge_ids[0])
    report = read_report(out, "decay.json")
    stats = report["stats"]
    assert stats["solve"]["method"] == ("closed-form" if cost["kind"]
                                        == "quadratic" else "newton")
    assert stats["lanczos_steps"] == report["spectral"]["steps"]
    assert all(stats[t] >= 0 for t in ("solve_s", "rate_s", "rows_s"))


def test_reopt_whole_graph_zero_perturbation(triangle_files, tmp_path):
    graph, costs, flow, _ = triangle_files
    pert = write_json(tmp_path / "p0.json", {"1": 0.0, "2": 0.0, "3": 0.0})
    out = str(tmp_path / "reopt")
    code = main(["reopt", "--graph", graph, "--costs", costs, "--flow", flow,
                 "--perturbation", pert, "--subgraph-center", "1",
                 "--radius", "2", "--iters", "5", "--out", out])
    assert code == 0
    with open(os.path.join(out, "reopt.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["error_l2"]) <= 1e-9
    report = read_report(out, "reopt.json")
    assert report["final_error_l2"] <= 1e-9


def test_reopt_one_vertex_ball_writes_the_warm_start_row(triangle_files,
                                                        tmp_path):
    # --radius 0: a ball with no edge, so the perturbation must be zero;
    # no step is taken, and the one row is the warm start's
    graph, costs, flow, _ = triangle_files
    pert = write_json(tmp_path / "p0.json", {})
    out = str(tmp_path / "reopt")
    assert main(["reopt", "--graph", graph, "--costs", costs, "--flow", flow,
                 "--perturbation", pert, "--subgraph-center", "1",
                 "--radius", "0", "--iters", "5", "--out", out]) == 0
    with open(os.path.join(out, "reopt.csv")) as fh:
        (row,) = csv.DictReader(fh)
    assert (row["iteration"], float(row["error_l2"])) == ("1", 0.0)
    assert float(row["feasibility_residual"]) <= 1e-9
    report = read_report(out, "reopt.json")
    assert report["final_error_l2"] == 0.0
    assert {k: report["stats"][k] for k in ("ball_vertices", "ball_edges",
                                            "cycle_rank", "iterations")} == {
        "ball_vertices": 1, "ball_edges": 0, "cycle_rank": 0,
        "iterations": 0}


def test_reopt_converges_on_whole_graph(triangle_files, tmp_path):
    graph, costs, flow, pert = triangle_files
    out = str(tmp_path / "reopt2")
    code = main(["reopt", "--graph", graph, "--costs", costs, "--flow", flow,
                 "--perturbation", pert, "--subgraph-center", "1",
                 "--radius", "3", "--iters", "30", "--out", out])
    assert code == 0
    with open(os.path.join(out, "reopt.csv")) as fh:
        rows = list(csv.DictReader(fh))
    errs = [float(r["error_l2"]) for r in rows]
    assert errs[-1] <= 1e-8
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    for r in rows:
        assert float(r["feasibility_residual"]) <= 1e-9
    stats = read_report(out, "reopt.json")["stats"]
    assert stats["cycle_rank"] == 1


def test_reopt_reports_ball_stats(tmp_path):
    gen = str(tmp_path / "gen")
    assert main(["generate", "--kind", "cycle", "--n", "12",
                 "--out", gen]) == 0
    graph = os.path.join(gen, "graph.json")
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "log-cosh", "a": 1.0, "s": 0.5}})
    flow = write_json(tmp_path / "flow.json", {"v0": 1.0, "v6": -1.0})
    pert = write_json(tmp_path / "pert.json", {"v0": 0.5, "v1": -0.5})
    out = str(tmp_path / "reopt")
    assert main(["reopt", "--graph", graph, "--costs", costs, "--flow", flow,
                 "--perturbation", pert, "--subgraph-center", "v0",
                 "--radius", "2", "--iters", "6", "--out", out]) == 0
    stats = read_report(out, "reopt.json")["stats"]
    assert {k: stats[k] for k in ("ball_vertices", "ball_edges",
                                  "cycle_rank", "iterations")} == {
        "ball_vertices": 5, "ball_edges": 4, "cycle_rank": 0,
        "iterations": 6}
    assert stats["local_s"] >= 0.0 and stats["global_s"] > 0.0
    # the two global solves' records beside the fields above
    for record in (stats["base_solve"], stats["target_solve"]):
        assert record["method"] == "newton"
        assert len(record["cg_rtol"]) == len(record["cg_iterations"]) == \
            record["newton_iterations"] + 2


def test_tune_matches_closed_form(tmp_path):
    out = str(tmp_path / "tune")
    config = write_json(tmp_path / "family.json",
                        {"Q": 1.0, "k": 3, "mu": 2.8, "z": 1})
    code = main(["tune", "--config", config, "--eps", "1e-3", "--out", out])
    assert code == 0
    report = read_report(out, "tune.json")
    rho = 2.8 / 3.0
    c = math.sqrt(2.0 / 3.0)
    gamma = c * (1.0 + c * math.sqrt(2.0))
    nu_bias = gamma / ((1.0 - rho) ** 2 * rho)
    assert report["constants"]["rho"] == pytest.approx(rho)
    assert report["r"] == math.ceil(math.log(2 * nu_bias / 1e-3)
                                    / math.log(1 / rho))
    assert report["t"] == math.ceil(
        2.0 * math.log(2 * c / (1 - rho) / 1e-3))


def _refuse_constant(name):
    raise AssertionError("non-standard JSON constant: %s" % name)


def test_tune_writes_standard_json_for_an_infinite_bound(tmp_path):
    # rho ~ 3e-201: rho^-z, and so nu_bias, is past the float range
    out = str(tmp_path / "tune")
    assert main(["tune", "--Q", "1", "--k", "3", "--mu", "1e-200", "--z",
                 "2", "--eps", "1e-3", "--out", out]) == 0
    with open(os.path.join(out, "tune.json")) as fh:
        report = json.loads(fh.read(), parse_constant=_refuse_constant)
    assert report["constants"]["nu_bias"] is None
    assert report["non_finite"] == {"constants.nu_bias": "inf"}
    assert report["r"] >= 1 and report["t"] >= 1


def test_reports_name_each_non_finite_figure(tmp_path):
    config = {"out": str(tmp_path)}
    cli._write_json(config, "report.json", {
        "rows": [1.0, -math.inf], "stats": {"lam": math.nan, "k": 3}})
    with open(tmp_path / "report.json") as fh:
        report = json.loads(fh.read(), parse_constant=_refuse_constant)
    assert report["rows"] == [1.0, None] and report["stats"]["lam"] is None
    assert report["non_finite"] == {"rows.1": "-inf", "stats.lam": "nan"}
    assert report["config"] == config


def _per_edge_map(n):
    return {"e%d" % k: float(k) for k in range(n)}


def test_nulled_finds_a_nan_inside_a_per_edge_map():
    derivative = _per_edge_map(10_000)
    derivative["e5000"] = math.nan
    non_finite = {}
    out = cli._nulled({"derivative": derivative, "k": 3}, (), non_finite)
    assert non_finite == {"derivative.e5000": "nan"}
    assert out["derivative"]["e5000"] is None
    assert out["derivative"]["e4999"] == 4999.0 and out["k"] == 3
    assert len(out["derivative"]) == 10_000


def test_nulled_checks_a_finite_per_edge_map_in_one_pass(monkeypatch):
    calls = []
    nulled = cli._nulled

    def spy(value, path, non_finite):
        calls.append(path)
        return nulled(value, path, non_finite)

    monkeypatch.setattr(cli, "_nulled", spy)
    non_finite = {}
    out = cli._nulled({"solution": _per_edge_map(10_000),
                       "stats": {"method": "closed-form"}}, (), non_finite)
    assert non_finite == {} and out["solution"] == _per_edge_map(10_000)
    # the payload, its two maps and the one string: no call per edge
    assert len(calls) <= 4


def test_tune_invalid_family_exits_3(tmp_path, capsys):
    config = write_json(tmp_path / "family.json",
                        {"Q": 2.0, "k": 3, "mu": 2.9})
    code = main(["tune", "--config", config, "--eps", "1e-3",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "budget invalid" in capsys.readouterr().err


@pytest.mark.parametrize("family, field", [
    ({"Q": 1.0, "k": 0, "mu": 2.82}, "k >= 1"),
    ({"Q": 1.0, "k": 3, "mu": -0.5}, "mu >= 0"),
    ({"Q": 1.0, "k": 3, "mu": 2.8, "p-norm": 0.0}, "p_norm > 0"),
    ({"Q": 1.0, "k": 3, "mu": 2.8, "p-norm": -1.0}, "p_norm > 0"),
    ({"Q": 1.0, "k": 3, "mu": 0.0}, "rho > 0"),
    ({"Q": 0.5, "k": 3, "mu": 2.8}, "rho > 0"),
])
def test_tune_unpriceable_family_exits_3(tmp_path, capsys, family, field):
    config = write_json(tmp_path / "family.json", family)
    code = main(["tune", "--config", config, "--eps", "1e-3",
                 "--out", str(tmp_path)])
    assert code == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [
    (["--omega", "nan"], "omega"),
    (["--omega", "inf"], "omega"),
    (["--omega", "0"], "omega"),
    (["--omega", "-1"], "omega"),
    (["--z", "-1"], "z"),
    (["--Q", "nan"], "Q"),
    (["--Q", "inf"], "Q"),
    (["--eps", "nan"], "eps"),
    (["--eps", "inf"], "eps"),
    (["--p-norm", "nan"], "p_norm"),
    (["--p-norm", "inf"], "p_norm"),
])
def test_tune_non_finite_or_out_of_range_input_exits_2(tmp_path, capsys,
                                                       flags, field):
    family = {"--Q": "1", "--k": "3", "--mu": "2.8", "--eps": "1e-3"}
    family.update(zip(flags[::2], flags[1::2]))
    out = str(tmp_path / "tune")
    argv = ["tune", "--out", out]
    for flag, value in family.items():
        argv += [flag, value]
    assert main(argv) == 2
    assert "tuner %s must be" % field in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "tune.json"))


def test_tune_flag_overrides_family_file(tmp_path):
    config = write_json(tmp_path / "family.json",
                        {"Q": 1.0, "k": 3, "mu": 2.8})
    out = str(tmp_path / "tune")
    assert main(["tune", "--config", config, "--k", "4", "--eps", "1e-3",
                 "--out", out]) == 0
    report = read_report(out, "tune.json")
    assert report["constants"]["k"] == 4


def test_tune_family_from_flags_matches_config_file(tmp_path):
    config = write_json(tmp_path / "family.json",
                        {"Q": 1.0, "k": 3, "mu": 2.8})
    reports = []
    for name, argv in (("file", ["--config", config]),
                       ("flags", ["--Q", "1", "--k", "3", "--mu", "2.8"])):
        out = str(tmp_path / name)
        assert main(["tune", *argv, "--eps", "1e-3", "--out", out]) == 0
        report = read_report(out, "tune.json")
        del report["config"]["out"]
        assert report.pop("stats")["budget_s"] == 0.0  # no --graph
        reports.append(report)
    assert reports[0] == reports[1]


def test_tune_without_family_exits_2(tmp_path, capsys):
    assert main(["tune", "--eps", "1e-3", "--out", str(tmp_path)]) == 2
    assert "--Q" in capsys.readouterr().err


def test_tune_family_option_with_graph_exits_2(two_path_files, tmp_path,
                                               capsys):
    graph, costs, flow = two_path_files
    assert main(["tune", "--graph", graph, "--costs", costs, "--flow", flow,
                 "--k", "3", "--eps", "1e-3", "--out", str(tmp_path)]) == 2
    assert "--k" in capsys.readouterr().err


def test_interlace_report(tmp_path):
    gen_out = str(tmp_path / "gen")
    assert main(["generate", "--kind", "random-k-regular", "--n", "30",
                 "--k", "3", "--seed", "4", "--out", gen_out]) == 0
    graph = os.path.join(gen_out, "graph.json")
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {})
    out = str(tmp_path / "inter")
    # whole graph: every weighted degree stays at w_minus * k_minus, so
    # the interlacing hypothesis holds
    code = main(["interlace", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--subgraph-center", "v0",
                 "--radius", "30", "--out", out])
    assert code == 0
    report = read_report(out, "interlace.json")
    assert report["lambda_prime"] <= report["bound"] + 1e-10
    assert report["constants_mode"] == "exact"
    stats = report["stats"]
    assert stats["solve"]["method"] == "closed-form"
    assert stats["solve_s"] > 0 and stats["bound_s"] > 0
    # the solve's record is solution.json's for the same problem
    assert main(["solve", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--out", out]) == 0
    assert stats["solve"] == read_report(out, "solution.json")["stats"]


def test_interlace_degree_deficient_ball_exits_3(tmp_path, capsys):
    gen_out = str(tmp_path / "gen")
    assert main(["generate", "--kind", "random-k-regular", "--n", "30",
                 "--k", "3", "--seed", "4", "--out", gen_out]) == 0
    graph = os.path.join(gen_out, "graph.json")
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {})
    code = main(["interlace", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--subgraph-center", "v0",
                 "--radius", "2", "--out", str(tmp_path / "bad")])
    assert code == 3
    assert "interlacing bound" in capsys.readouterr().err



def test_interlace_radius_zero_has_no_edges_exits_3(tmp_path, capsys):
    gen_out = str(tmp_path / "gen")
    assert main(["generate", "--kind", "cycle", "--n", "6",
                 "--out", gen_out]) == 0
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {})
    code = main(["interlace", "--graph", os.path.join(gen_out, "graph.json"),
                 "--costs", costs, "--flow", flow, "--subgraph-center", "v0",
                 "--radius", "0", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "subgraph has no edges" in capsys.readouterr().err

def test_generate_deterministic(tmp_path):
    payloads = []
    for name in ("g1", "g2"):
        out = str(tmp_path / name)
        assert main(["generate", "--kind", "random-k-regular", "--n", "20",
                     "--k", "3", "--seed", "9", "--out", out]) == 0
        payloads.append(read_report(out, "graph.json", raw=True))
    assert payloads[0] == payloads[1]


def test_generate_requires_seed(tmp_path, capsys):
    code = main(["generate", "--kind", "random-k-regular", "--n", "10",
                 "--k", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_generate_infeasible_params(tmp_path):
    code = main(["generate", "--kind", "random-k-regular", "--n", "4",
                 "--k", "7", "--seed", "1", "--out", str(tmp_path)])
    assert code == 2


def test_csv_17_significant_digits(tmp_path, triangle_files):
    graph, costs, flow, pert = triangle_files
    out = str(tmp_path / "digits")
    assert main(["decay", "--graph", graph, "--costs", costs, "--flow", flow,
                 "--perturbation", pert, "--out", out]) == 0
    with open(os.path.join(out, "decay.csv")) as fh:
        rows = list(csv.DictReader(fh))
    val = rows[0]["measured"]
    # round-trip safety: parsing the printed value reproduces the float
    assert "%.17g" % float(val) == val


@pytest.fixture
def cycle6_files(tmp_path):
    assert main(["generate", "--kind", "cycle", "--n", "6",
                 "--out", str(tmp_path)]) == 0
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {"v0": 1.0, "v3": -1.0})
    return str(tmp_path / "graph.json"), costs, flow


def test_solve_large_flow_exits_0(cycle6_files, tmp_path):
    graph, costs, _ = cycle6_files
    flow = write_json(tmp_path / "big_flow.json", {"v0": 1e9, "v3": -1e9})
    out = str(tmp_path / "out")
    assert main(["solve", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--out", out]) == 0
    report = read_report(out, "solution.json")
    assert report["solution"]["e0"] == pytest.approx(5e8)
    assert report["residuals"]["feasibility_inf"] <= 1e-9 * 1e9


@pytest.mark.parametrize("cost, method", [
    ({"kind": "quadratic", "a": 1.0}, "closed-form"),
    ({"kind": "log-cosh", "a": 1.0, "s": 0.5}, "newton")])
def test_solve_reports_its_stats(cycle6_files, tmp_path, cost, method):
    graph, _, flow = cycle6_files
    costs = write_json(tmp_path / "costs.json", {"default": cost})
    out = str(tmp_path / "out")
    assert main(["solve", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--out", out]) == 0
    report = read_report(out, "solution.json")
    stats = report["stats"]
    assert stats["method"] == method
    assert stats["cg_iterations"][-1] == 0
    assert report["residuals"] == {
        key: stats[key] for key in ("feasibility_inf", "stationarity_inf")}


@pytest.mark.parametrize("cost, method", [
    ({"kind": "quadratic", "a": 1.0}, "closed-form"),
    ({"kind": "log-cosh", "a": 1.0, "s": 0.5}, "newton")])
def test_sensitivity_reports_its_stats(cycle6_files, tmp_path, cost, method):
    graph, _, flow = cycle6_files
    costs = write_json(tmp_path / "costs.json", {"default": cost})
    pert = write_json(tmp_path / "pert.json", {"v1": 1.0, "v2": -1.0})
    out = str(tmp_path / "out")
    assert main(["sensitivity", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--perturbation", pert, "--out", out]) == 0
    assert main(["solve", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--out", out]) == 0
    stats = read_report(out, "sensitivity.json")["stats"]
    assert stats["solve"]["method"] == method
    assert stats["solve"]["cg_iterations"][-1] == 0
    # the solve's record is solution.json's for the same problem
    assert stats["solve"] == read_report(out, "solution.json")["stats"]
    assert stats["solve_s"] > 0 and stats["apply_s"] > 0


def test_solve_nan_flow_exits_2(cycle6_files, tmp_path, capsys):
    graph, costs, _ = cycle6_files
    flow = write_json(tmp_path / "nan_flow.json", {"v0": math.nan, "v1": 1.0})
    out = str(tmp_path / "out")
    assert main(["solve", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--out", out]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "solution.json"))


def test_solve_nan_cost_parameter_exits_2(cycle6_files, tmp_path, capsys):
    graph, _, flow = cycle6_files
    costs = write_json(tmp_path / "nan_costs.json",
                       {"default": {"kind": "quadratic", "a": math.nan}})
    assert main(["solve", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--out", str(tmp_path / "out")]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_decay_nan_perturbation_exits_2(cycle6_files, tmp_path, capsys):
    graph, costs, flow = cycle6_files
    pert = write_json(tmp_path / "nan_pert.json",
                      {"v0": math.nan, "v1": -1.0})
    assert main(["decay", "--graph", graph, "--costs", costs, "--flow",
                 flow, "--perturbation", pert,
                 "--out", str(tmp_path / "out")]) == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (cli.graphmod.GraphError("bad"), 2),
    (cli.CostError("bad"), 2),
    (cli.CliInputError("bad"), 2),
    (KeyError("bad"), 2),
    (cli.SensitivityError("bad"), 3),
    (cli.SolverError("bad"), 3),
    (cli.LaplacianError("bad"), 3),
    (cli.locality.LocalityError("bad"), 3),
    (np.linalg.LinAlgError("bad"), 3),
])
def test_exit_code_by_error_class(monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "solve", fail)
    assert main(["solve"]) == code
    assert "bad" in capsys.readouterr().err


@pytest.mark.parametrize("role, payload", [
    ("graph", {"vertices": 5, "edges": []}),
    ("graph", {"vertices": [["v0"], "v1"], "edges": []}),
    ("graph", {"vertices": ["v0", "v1"], "edges": [["e0", "v0", "v1"]]}),
    ("graph", [["v0", "v1"]]),
    ("costs", [{"kind": "quadratic", "a": 1.0}]),
    ("costs", {"default": 3}),
    ("costs", {"default": {"kind": "quadratic", "a": [1]}}),
    ("flow", [1.0, -1.0]),
    ("flow", {"v0": [1.0], "v3": -1.0}),
    ("perturbation", {"v0": [1.0], "v3": -1.0}),
])
def test_malformed_file_exits_2(cycle6_files, tmp_path, capsys, role,
                                payload):
    graph, costs, flow = cycle6_files
    files = {"graph": graph, "costs": costs, "flow": flow,
             "perturbation": write_json(tmp_path / "pert.json",
                                        {"v0": 1.0, "v3": -1.0})}
    files[role] = write_json(tmp_path / "bad.json", payload)
    argv = ["sensitivity", "--out", str(tmp_path / "out")]
    for name, path in files.items():
        argv += ["--" + name, path]
    assert main(argv) == 2
    assert "malformed file %s" % files[role] in capsys.readouterr().err


@pytest.mark.parametrize("role, payload, message", [
    ("costs", {"default": {"kind": "quadratic", "a": 1},
               "per_edge": {"bogus": {"kind": "nonsense"}}},
     "unknown edge id in cost spec: bogus"),
    ("flow", {"v0": 1.0, "nope": -1.0}, "unknown vertex id: nope")])
def test_unknown_id_in_an_input_file_exits_2(tmp_path, capsys, role,
                                             payload, message):
    assert main(["generate", "--kind", "cycle", "--n", "4",
                 "--out", str(tmp_path)]) == 0
    files = {"graph": str(tmp_path / "graph.json"),
             "costs": write_json(tmp_path / "costs.json",
                                 {"default": {"kind": "quadratic", "a": 1}}),
             "flow": write_json(tmp_path / "flow.json",
                                {"v0": 1.0, "v2": -1.0})}
    files[role] = write_json(tmp_path / "bad.json", payload)
    out = str(tmp_path / "out")
    argv = ["solve", "--out", out]
    for name, path in files.items():
        argv += ["--" + name, path]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not os.path.exists(os.path.join(out, "solution.json"))


@pytest.mark.parametrize("argv", [
    ["solve", "--radius", "3"],
    ["sensitivity", "--iters", "3"],
    ["decay", "--tolerance", "1e-9"],
    ["reopt", "--eps", "1e-3"],
    ["tune", "--seed", "1"],
    ["interlace", "--perturbation", "pert.json"],
    ["generate", "--graph", "graph.json"],
])
def test_flag_the_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err


def test_parser_holds_each_subcommand_options():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, cli.argparse._SubParsersAction)]
    for name, options in cli.OPTIONS.items():
        flags = {opt for action in sub.choices[name]._actions
                 for opt in action.option_strings} - {"-h", "--help"}
        assert flags == {"--" + key for key in [*options, "config", "out"]}
    assert set(cli.OPTIONS) == set(cli.COMMANDS)


def test_config_file_not_an_object_exits_2(tmp_path, capsys):
    config = write_json(tmp_path / "cfg.json", [1, 2])
    assert main(["solve", "--config", config]) == 2
    assert "malformed file %s" % config in capsys.readouterr().err


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_reopt_iters_below_one_exits_2(cycle6_files, tmp_path, capsys,
                                       iters):
    graph, costs, flow = cycle6_files
    pert = write_json(tmp_path / "pert.json", {"v0": 0.5, "v1": -0.5})
    out = str(tmp_path / "out")
    assert main(["reopt", "--graph", graph, "--costs", costs, "--flow", flow,
                 "--perturbation", pert, "--subgraph-center", "v0",
                 "--radius", "1", "--iters", iters, "--out", out]) == 2
    assert "--iters must be at least 1" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "reopt.csv"))


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_solve_invalid_tolerance_exits_2(cycle6_files, tmp_path, capsys,
                                         tolerance):
    graph, _, flow = cycle6_files
    # log-cosh costs take the Newton path, where the tolerance is read
    costs = write_json(tmp_path / "logcosh.json",
                       {"default": {"kind": "log-cosh", "a": 1.0, "s": 0.5}})
    out = str(tmp_path / "out")
    assert main(["solve", "--graph", graph, "--costs", costs, "--flow", flow,
                 "--tolerance", tolerance, "--out", out]) == 2
    assert "--tolerance must be positive and finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "solution.json"))


def test_solve_zero_tolerance_in_config_file_exits_2(cycle6_files, tmp_path,
                                                     capsys):
    graph, costs, flow = cycle6_files
    config = write_json(tmp_path / "cfg.json", {
        "graph": graph, "costs": costs, "flow": flow, "tolerance": 0})
    assert main(["solve", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "--tolerance" in capsys.readouterr().err


def check_spectral(record, bound):
    assert record["method"] == "lanczos"
    assert 0.0 <= record["delta"] < 1.0 and record["steps"] >= 1
    assert record["ritz"] <= record["bound"] == bound


@pytest.fixture
def expander_files(tmp_path):
    gen = str(tmp_path / "gen")
    assert main(["generate", "--kind", "random-k-regular", "--n", "200",
                 "--k", "3", "--seed", "11", "--out", gen]) == 0
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {})
    pert = write_json(tmp_path / "pert.json", {"v0": 1.0, "v1": -1.0})
    return os.path.join(gen, "graph.json"), costs, flow, pert


def test_reports_carry_the_spectral_record(expander_files, tmp_path):
    graph, costs, flow, pert = expander_files
    problem = ["--graph", graph, "--costs", costs, "--flow", flow]
    out = str(tmp_path / "out")
    assert main(["decay", *problem, "--perturbation", pert,
                 "--out", out]) == 0
    report = read_report(out, "decay.json")
    # exact mode: the record is the walk's, and certifies the rate itself
    check_spectral(report["spectral"], report["lam"])
    assert report["spectral"]["delta"] > 0.0  # n = 200 > LANCZOS_STEPS
    assert main(["tune", *problem, "--eps", "1e-3", "--out", out]) == 0
    report = read_report(out, "tune.json")
    check_spectral(report["spectral"], report["constants"]["mu"])
    assert report["stats"]["budget_s"] > 0 and report["stats"]["tune_s"] > 0
    assert main(["interlace", *problem, "--subgraph-center", "v0",
                 "--radius", "30", "--out", out]) == 0
    report = read_report(out, "interlace.json")
    check_spectral(report["spectral"], report["spectral"]["bound"])
    assert report["spectral"] == read_report(
        out, "tune.json")["spectral"]  # both certify the adjacency's mu


def test_solve_answers_within_a_loose_tolerance(expander_files, tmp_path,
                                                capsys):
    # Newton stops on its residual at 1e-3 and the check judges at 1e-3;
    # the answer's projected gradient, 4.254e-06, would fail a check at
    # the default 1e-8
    graph, _, _, _ = expander_files
    costs = write_json(tmp_path / "logcosh.json",
                       {"default": {"kind": "log-cosh", "a": 1.0, "s": 0.5}})
    flow = write_json(tmp_path / "unit.json", {"v0": 1.0, "v196": -1.0})
    out = str(tmp_path / "out")
    assert main(["solve", "--graph", graph, "--costs", costs, "--flow", flow,
                 "--tolerance", "1e-3", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    report = read_report(out, "solution.json")
    assert report["stats"]["method"] == "newton"
    grad_inf = max(abs(0.5 * math.tanh(x) + x)
                   for x in report["solution"].values())
    assert report["residuals"]["stationarity_inf"] <= 1e-3 * max(1.0,
                                                                 grad_inf)
    assert report["residuals"]["feasibility_inf"] <= 1e-9


def test_tune_family_from_flags_has_no_spectral_record(tmp_path):
    out = str(tmp_path / "tune")
    assert main(["tune", "--Q", "1", "--k", "3", "--mu", "2.8",
                 "--eps", "1e-3", "--out", out]) == 0
    assert read_report(out, "tune.json")["spectral"] is None


@pytest.mark.parametrize("kind, size", [
    ("cycle", ["--n", "12"]), ("grid-2d", ["--rows", "4", "--cols", "5"])])
def test_exact_decay_on_bipartite_graph_exits_3(tmp_path, capsys, kind,
                                                size):
    gen = str(tmp_path / "gen")
    assert main(["generate", "--kind", kind, *size, "--out", gen]) == 0
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {})
    first, second = read_report(gen, "graph.json")[
        "vertices"][:2]
    pert = write_json(tmp_path / "pert.json", {first: 1.0, second: -1.0})
    assert main(["decay", "--graph", os.path.join(gen, "graph.json"),
                 "--costs", costs, "--flow", flow, "--perturbation", pert,
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    rate = float(err.split("decay rate bound is ")[1].split()[0])
    assert rate >= 1.0


@pytest.mark.parametrize("command, field, value", [
    ("tune", "k", 3.9), ("tune", "z", 0.7), ("reopt", "radius", 1.5),
    ("reopt", "iters", 2.5), ("interlace", "radius", 0.7),
    ("generate", "n", 12.5), ("tune", "k", True), ("tune", "z", False),
    ("reopt", "radius", True), ("reopt", "iters", True),
    ("generate", "n", True)])
def test_fractional_integer_field_in_config_exits_2(
        cycle6_files, tmp_path, capsys, command, field, value):
    graph, costs, flow = cycle6_files
    pert = write_json(tmp_path / "pert.json", {"v0": 0.5, "v1": -0.5})
    config = {
        "tune": {"Q": 1.0, "k": 3, "mu": 2.8, "eps": 1e-3},
        "reopt": {"graph": graph, "costs": costs, "flow": flow,
                  "perturbation": pert, "subgraph-center": "v0",
                  "radius": 1, "iters": 2},
        "interlace": {"graph": graph, "costs": costs, "flow": flow,
                      "subgraph-center": "v0", "radius": 3},
        "generate": {"kind": "cycle", "n": 12},
    }[command]
    out = str(tmp_path / "out")
    # the integral value runs; a fractional or boolean one is refused, not
    # taken as the integer it converts to
    assert main([command, "--config", write_json(tmp_path / "ok.json",
                                                 config), "--out", out]) == 0
    config[field] = value
    assert main([command, "--config", write_json(tmp_path / "bad.json",
                                                 config),
                 "--out", str(tmp_path / "bad")]) == 2
    assert "--%s must be an integer, got %r" % (field, value) \
        in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "bad"))


def test_tune_with_graph_forms_no_n_by_n_array(tmp_path):
    gen = str(tmp_path / "gen")
    assert main(["generate", "--kind", "random-k-regular", "--n", "20000",
                 "--k", "3", "--seed", "1", "--out", gen]) == 0
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {})
    argv = ["tune", "--graph", os.path.join(gen, "graph.json"),
            "--costs", costs, "--flow", flow, "--eps", "1e-3",
            "--out", str(tmp_path / "out")]
    # an n x n float array at n = 2e4 is 3.2 GB
    assert traced_peak_mb(lambda: main(argv)) < 64
    report = read_report(tmp_path, "out", "tune.json")
    assert report["spectral"]["steps"] == 120


def test_tune_on_an_irregular_graph_exits_3(tmp_path, capsys):
    # a 3-regular graph with one pendant vertex: k+ = 4, k- = 1, outside
    # the regular families the tuner prices
    g = generate("random-k-regular", n=200, k=3, seed=1)
    data = g.to_json_dict()
    data["vertices"].append("pendant")
    data["edges"].append({"id": "ep", "tail": "v0", "head": "pendant"})
    graph = write_json(tmp_path / "graph.json", data)
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {})
    out = str(tmp_path / "tune")
    assert main(["tune", "--graph", graph, "--costs", costs, "--flow", flow,
                 "--eps", "0.1", "--out", out]) == 3
    err = capsys.readouterr().err
    assert "regular" in err and "k- = 1" in err and "k+ = 4" in err
    assert not os.path.exists(os.path.join(out, "tune.json"))


# a report's values: finite and non-finite floats at any depth, ints,
# unicode and escaped strings, and empty containers
_json_leaves = st.one_of(
    st.floats(), st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(),
    st.text(), st.sampled_from(['"', "\\", "\n", "\u00e9", "\u2603"]))
_json_values = st.recursive(
    _json_leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)
_ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
               max_size=6)


def _reference_json(config, payload, g):
    """The report as written before: every entry, the id maps included,
    walked by _nulled, then streamed by json.dump."""
    payload = {**payload, "config": config}
    if g is not None:
        payload["index_map"] = {"vertices": g.vertex_index,
                                "edges": g.edge_index}
    non_finite = {}
    payload = cli._nulled(payload, (), non_finite)
    if non_finite:
        payload["non_finite"] = non_finite
    fh = io.StringIO()
    json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
    return fh.getvalue() + "\n"


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _json_values, max_size=5),
       st.dictionaries(st.text(max_size=6), _json_values, max_size=3),
       st.one_of(st.none(), st.lists(_ids, min_size=1, max_size=6,
                                     unique=True)))
def test_write_json_writes_the_reference_bytes(payload, extra, vertices):
    """One json.dumps of a payload whose id maps skip _nulled writes the
    bytes of the streamed, fully walked report."""
    g = None
    if vertices is not None:  # a path over the drawn ids, edges named too
        g = DirectedGraph(vertices, [(vertices[i] + "\u2192" + str(i),
                                      vertices[i], vertices[i + 1])
                                     for i in range(len(vertices) - 1)])
    with tempfile.TemporaryDirectory() as out:
        config = {**extra, "out": out}
        cli._write_json(config, "report.json", payload, g)
        with open(os.path.join(out, "report.json"), "rb") as fh:
            written = fh.read()
    assert written == _reference_json(config, payload, g).encode()


def test_unserialisable_report_leaves_no_file(tmp_path):
    out = str(tmp_path / "out")
    with pytest.raises(TypeError):
        cli._write_json({"out": out}, "report.json", {"x": object()})
    # the report streams into a temporary file in the out directory,
    # removed when the write fails
    assert os.listdir(out) == []
    # and an earlier report of that name is kept as it was
    cli._write_json({"out": out}, "report.json", {"x": 1})
    with open(os.path.join(out, "report.json"), "rb") as fh:
        before = fh.read()
    with pytest.raises(TypeError):
        cli._write_json({"out": out}, "report.json", {"x": object()})
    assert os.listdir(out) == ["report.json"]
    with open(os.path.join(out, "report.json"), "rb") as fh:
        assert fh.read() == before


def _reference_csv(header, rows):
    """The CSV as written before: one _fmt call per number cell."""
    def fmt(cell):
        return cell if isinstance(cell, str) else "%.17g" % float(cell)
    return "".join(",".join(map(fmt, row)) + "\n" for row in [header, *rows])


_numbers = st.one_of(
    st.integers(-2 ** 80, 2 ** 80), st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 1e-300, 1e300, np.float64(-0.0), 5e-324]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=5), st.data())
def test_write_csv_writes_the_reference_bytes(text_columns, data):
    """A format read off the first row writes the per-cell bytes when each
    column holds strings or numbers throughout."""
    header = ["c%d" % k for k in range(len(text_columns))]
    rows = data.draw(st.lists(st.tuples(*(
        st.text(st.characters(blacklist_categories=("Cs",)))
        if text else _numbers for text in text_columns)), min_size=1,
        max_size=8))
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "rows.csv")
        cli._write_csv(path, header, iter(rows))
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == _reference_csv(header, rows).encode()


def test_main_runs_again_as_a_fresh_process_does(tmp_path):
    """One process running main with different subcommands and flags, the
    parser built once, writes what a fresh process writes for each call:
    say, a solve without --tolerance after one with it."""
    gen = str(tmp_path / "gen")
    assert main(["generate", "--kind", "random-k-regular", "--n", "40",
                 "--k", "3", "--seed", "5", "--out", gen]) == 0
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {"v0": 1.0, "v1": -1.0})
    problem = ["--graph", os.path.join(gen, "graph.json"), "--costs", costs,
               "--flow", flow]
    calls = [["solve", *problem, "--tolerance", "1e-9"],
             ["solve", *problem],
             ["tune", "--Q", "1", "--k", "3", "--mu", "2.8", "--z", "2",
              "--eps", "1e-3"],
             ["tune", "--Q", "1", "--k", "4", "--mu", "2.8", "--eps", "0.1"],
             ["generate", "--kind", "cycle", "--n", "7"],
             ["decay", *problem, "--perturbation", flow]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for k, argv in enumerate(calls):
        out = str(tmp_path / ("call%d" % k))
        assert main([*argv, "--out", out]) == 0
        here = {name: read_report(out, name, raw=True)
                for name in os.listdir(out)}
        subprocess.run([sys.executable, "-m", "localflow.cli", *argv,
                        "--out", out], env=env, check=True, timeout=120)
        fresh = {name: read_report(out, name, raw=True)
                 for name in os.listdir(out)}
        # wall times differ from run to run
        for name, keys in (("decay.json", ("solve_s", "rate_s", "rows_s")),
                           ("tune.json", ("budget_s", "tune_s"))):
            if name in here:
                for files in (here, fresh):
                    report = json.loads(files[name])
                    for key in keys:
                        report["stats"].pop(key)
                    files[name] = report
        assert here == fresh


def test_subcommands_write_nothing_to_stdout(tmp_path, capfd):
    """stdout belongs to the caller, which may run main in-process and
    read its own output there: every subcommand's success path writes
    nothing to it, and an error goes to stderr alone."""
    gen = str(tmp_path / "gen")
    assert main(["generate", "--kind", "random-k-regular", "--n", "40",
                 "--k", "3", "--seed", "5", "--out", gen]) == 0
    graph = os.path.join(gen, "graph.json")
    edge = read_report(graph)["edges"][0]
    costs = write_json(tmp_path / "costs.json",
                       {"default": {"kind": "quadratic", "a": 1.0}})
    flow = write_json(tmp_path / "flow.json", {"v0": 1.0, "v1": -1.0})
    pert = write_json(tmp_path / "pert.json",
                      {edge["tail"]: 0.5, edge["head"]: -0.5})
    problem = ["--graph", graph, "--costs", costs, "--flow", flow]
    calls = [["solve", *problem],
             ["sensitivity", *problem, "--perturbation", pert],
             ["decay", *problem, "--perturbation", pert],
             ["reopt", *problem, "--perturbation", pert,
              "--subgraph-center", edge["tail"], "--radius", "2",
              "--iters", "5"],
             ["tune", "--Q", "1", "--k", "3", "--mu", "2.8", "--eps", "1e-3"],
             ["tune", *problem, "--eps", "1e-3"],
             ["interlace", *problem, "--subgraph-center", "v0",
              "--radius", "10"],
             ["generate", "--kind", "grid-2d", "--rows", "3", "--cols", "4"]]
    assert {argv[0] for argv in calls} == set(cli.COMMANDS)
    capfd.readouterr()
    for k, argv in enumerate(calls):
        out = str(tmp_path / ("call%d" % k))
        assert main([*argv, "--out", out]) == 0, argv
        assert capfd.readouterr() == ("", ""), argv
        assert os.listdir(out)
    # a missing option (exit 2), a numerical refusal (exit 3) and a usage
    # error that argparse reports
    for argv, code in [*[([name], 2) for name in cli.COMMANDS],
                       (["interlace", *problem, "--subgraph-center", "v0",
                         "--radius", "0"], 3)]:
        assert main([*argv, "--out", str(tmp_path / "refused")]) == code
        stdout, stderr = capfd.readouterr()
        assert stdout == "" and stderr.startswith("error: "), argv
    with pytest.raises(SystemExit):
        main(["solve", "--radius", "3"])
    stdout, stderr = capfd.readouterr()
    assert stdout == "" and "unrecognized arguments" in stderr
