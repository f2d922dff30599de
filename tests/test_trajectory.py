"""A smoke run of tools/trajectory.py: a tiny headline grid, no workload and no tier-1 run."""

import json
import subprocess
import sys
from pathlib import Path

from test_acceptance import STUDIES

ROOT = Path(__file__).resolve().parents[1]


def test_a_smoke_trajectory_holds_every_field(tmp_path):
    out = tmp_path / "BENCH_0.json"
    cmd = [sys.executable, str(ROOT / "tools" / "trajectory.py"), "--pr", "0", "--out", str(out),
           "--grid", "100,200", "--workloads", "--no-tier1"]
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=120)
    record = json.loads(out.read_text())
    assert set(record) == {"pr", "environment", "workloads", "headline", "tier1", "src_lines"}
    assert record["pr"] == 0 and record["workloads"] == {} and record["tier1"] is None
    assert {"python", "numpy", "git_sha", "src_sha256", "nproc"} <= set(record["environment"])
    headline = record["headline"]
    assert headline["studies"] == list(STUDIES)
    assert headline["grid"] == [100, 200] and headline["passes"] == 3
    assert [run["jobs"] for run in headline["runs"]][-1] == 1
    for run in headline["runs"]:
        assert len(run["pass_walls_s"]) == 3 and all(w > 0 for w in run["pass_walls_s"])
        assert min(run["pass_walls_s"]) <= run["median_s"] <= max(run["pass_walls_s"])
        for walls in run["study_walls_s"]:
            assert set(walls) == set(headline["studies"]) and all(w > 0 for w in walls.values())
    lines = record["src_lines"]
    assert {"basis.py", "cli.py", "estimator.py", "selection.py", "simulate.py"} <= set(lines)
    assert all(isinstance(v, int) and v > 0 for v in lines.values())
