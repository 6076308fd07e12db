import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_curve_writes_one_row_per_size(tmp_path):
    out = tmp_path / "bench.json"
    script = os.path.join(ROOT, "tools", "bench_curve.py")
    subprocess.run([sys.executable, script, "--out", str(out),
                    "--sizes", "20", "40", "--radii", "1", "2",
                    "--requests", "2"],
                   check=True, capture_output=True, timeout=120)
    report = json.loads(out.read_text())
    assert [row["n"] for row in report["rows"]] == [20, 40]
    for row in report["rows"]:
        assert row["global_solve_ms"] > 0
        # a 3-regular graph's mu is at most its degree
        assert row["constants_ms"] > 0 and 0 < row["mu_bound"] <= 3.0 + 1e-9
        assert set(row["radius"]) == {"1", "2"}
        for entry in row["radius"].values():
            assert entry["request_ms_p50"] > 0 and entry["requests"] == 2
