import csv
import json
import math
import os

import numpy as np
import pytest

from localflow.cli import main


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


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
    report = json.load(open(os.path.join(out, "solution.json")))
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
    report = json.load(open(os.path.join(out, "sensitivity.json")))
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
        outs.append(open(os.path.join(out, "decay.csv"), "rb").read())
    assert outs[0] == outs[1]


def test_decay_respects_thread_cap(tmp_path, triangle_files, monkeypatch):
    graph, costs, flow, pert = triangle_files
    monkeypatch.setenv("LOCALFLOW_THREADS", "1")
    out = str(tmp_path / "single")
    assert main(["decay", "--graph", graph, "--costs", costs,
                 "--flow", flow, "--perturbation", pert, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "decay.csv"))


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
    report = json.load(open(os.path.join(out, "reopt.json")))
    assert report["final_error_l2"] <= 1e-9


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
    stats = json.load(open(os.path.join(out, "reopt.json")))["stats"]
    assert {k: stats[k] for k in ("ball_vertices", "ball_edges",
                                  "iterations")} == {
        "ball_vertices": 5, "ball_edges": 4, "iterations": 6}
    assert stats["local_s"] >= 0.0 and stats["global_s"] > 0.0


def test_tune_matches_closed_form(tmp_path):
    out = str(tmp_path / "tune")
    config = write_json(tmp_path / "family.json",
                        {"Q": 1.0, "k": 3, "mu": 2.8, "z": 1})
    code = main(["tune", "--config", config, "--eps", "1e-3", "--out", out])
    assert code == 0
    report = json.load(open(os.path.join(out, "tune.json")))
    rho = 2.8 / 3.0
    c = math.sqrt(2.0 / 3.0)
    gamma = c * (1.0 + c * math.sqrt(2.0))
    nu_bias = gamma / ((1.0 - rho) ** 2 * rho)
    assert report["constants"]["rho"] == pytest.approx(rho)
    assert report["r"] == math.ceil(math.log(2 * nu_bias / 1e-3)
                                    / math.log(1 / rho))
    assert report["t"] == math.ceil(
        2.0 * math.log(2 * c / (1 - rho) / 1e-3))


def test_tune_invalid_family_exits_3(tmp_path, capsys):
    config = write_json(tmp_path / "family.json",
                        {"Q": 2.0, "k": 3, "mu": 2.9})
    code = main(["tune", "--config", config, "--eps", "1e-3",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "budget invalid" in capsys.readouterr().err


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
    report = json.load(open(os.path.join(out, "interlace.json")))
    assert report["lambda_prime"] <= report["bound"] + 1e-10
    assert report["constants_mode"] == "exact"


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


def test_generate_deterministic(tmp_path):
    payloads = []
    for name in ("g1", "g2"):
        out = str(tmp_path / name)
        assert main(["generate", "--kind", "random-k-regular", "--n", "20",
                     "--k", "3", "--seed", "9", "--out", out]) == 0
        payloads.append(open(os.path.join(out, "graph.json"), "rb").read())
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
    report = json.load(open(os.path.join(out, "solution.json")))
    assert report["solution"]["e0"] == pytest.approx(5e8)
    assert report["residuals"]["feasibility_inf"] <= 1e-9 * 1e9


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
