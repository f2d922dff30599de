"""Tests of the A/B report of tools/ab_bench.py on synthetic benchmark results."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "ab_bench.py")
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

P50 = {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
RATE = {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def test_summarise_counts_wins_and_checks_the_bound():
    faster = ab_bench.summarise(P50, [100.0, 110.0, 90.0, 100.0], [40.0, 120.0, 30.0, 35.0])
    assert (faster["wins"], faster["losses"], faster["pairs"]) == (3, 1, 4)
    assert faster["parent"] == (97.5, 100.0, 102.5)
    assert faster["rel_delta"] == pytest.approx(-0.625)
    assert faster["beyond_parent_iqr"] and not faster["over_bound"]

    slower = ab_bench.summarise(P50, [100.0, 100.0, 100.0], [126.0, 130.0, 99.0])
    assert slower["wins"] == 1 and slower["over_bound"] and not slower["beyond_parent_iqr"]
    # within the bound: 24 % worse is allowed
    assert not ab_bench.summarise(P50, [100.0], [124.0])["over_bound"]

    fewer = ab_bench.summarise(RATE, [50.0, 50.0], [30.0, 35.0])
    assert fewer["wins"] == 0 and fewer["over_bound"]


def _report(change_p50, failed_change=0):
    return {
        "study-fs": {
            "failed": {"parent": 0, "change": failed_change},
            "metrics": [ab_bench.summarise(P50, [100.0, 101.0], change_p50)],
        }
    }


def test_verdict():
    ok, line = ab_bench.verdict(_report([40.0, 41.0]))
    assert ok and line.startswith("verdict: PASS")
    ok, line = ab_bench.verdict(_report([140.0, 141.0]))
    assert not ok and line == "verdict: FAIL: study-fs latency_p50_ms is worse than its bound"
    ok, line = ab_bench.verdict(_report([40.0, 41.0], failed_change=2))
    assert not ok and line == "verdict: FAIL: study-fs failed 2 operations (parent 0)"


@pytest.mark.parametrize("change_p50, status", [([40.0, 41.0], 0), ([140.0, 141.0], 1)])
def test_main_exit_status_follows_the_verdict(tmp_path, monkeypatch, capsys, change_p50, status):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text("")
    monkeypatch.setattr(ab_bench, "compare", lambda *args: _report(change_p50))
    assert ab_bench.main(["--parent-dir", str(tmp_path), "--pairs", "2"]) == status
    assert capsys.readouterr().out.splitlines()[-1].startswith("verdict: ")
