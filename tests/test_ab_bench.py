"""Tests of the A/B report of tools/ab_bench.py on synthetic benchmark results, and of its child runner,
which tools/same_outputs.py and tools/trajectory.py share."""

import contextlib
import importlib.util
import os
import signal
import subprocess
import sys
import time

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


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # bimodal parent runs: IQR 0.19 - 0.14 = 0.05, more than 0.25 of the median 0.16
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    parent = [0.13, 0.14, 0.14, 0.15, 0.19, 0.20, 0.21, 0.13, 0.19, 0.14]
    overlapping = ab_bench.summarise(setup, parent, [0.14, 0.19, 0.13, 0.20, 0.15, 0.14, 0.21, 0.19, 0.13, 0.14])
    assert overlapping["unresolved"] and not overlapping["over_bound"]
    # every change run beats every parent run: resolved however wide the spread
    assert not ab_bench.summarise(setup, parent, [0.10, 0.11, 0.12] * 3 + [0.125])["unresolved"]
    # a parent spread within the bound resolves the metric either way
    assert not ab_bench.summarise(P50, [100.0, 110.0, 90.0, 100.0], [101.0, 109.0, 91.0, 99.0])["unresolved"]
    # a higher-is-better metric needs every change run above every parent run
    assert ab_bench.summarise(RATE, [40.0, 60.0, 50.0, 70.0], [65.0, 80.0, 75.0, 90.0])["unresolved"]
    assert not ab_bench.summarise(RATE, [40.0, 60.0, 50.0, 70.0], [75.0, 80.0, 75.0, 90.0])["unresolved"]

    rows = ab_bench.format_report({"setup": {"failed": {"parent": 0, "change": 0}, "metrics": [overlapping]}})
    assert rows.splitlines()[2].endswith("  unresolved")
    assert ab_bench.verdict({"setup": {"failed": {"parent": 0, "change": 0}, "metrics": [overlapping]}})[0]


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
    assert ab_bench.main(["--parent-dir", str(tmp_path)]) == status
    assert capsys.readouterr().out.splitlines()[-1].startswith("verdict: ")


def _claim_report(parent, change):
    return {"study-small-n": {"failed": {"parent": 0, "change": 0},
                              "metrics": [ab_bench.summarise(P50, parent, change)]}}


def test_verdict_applies_the_gain_rule_to_claims():
    claim = [("study-small-n", "latency_p50_ms")]
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    ok, line = ab_bench.verdict(_claim_report(parent, [p - 20.0 for p in parent]), claim)
    assert ok and line.endswith(", claim study-small-n:latency_p50_ms holds")
    # 8 of 10 pairs won: the medians differ by far more than the IQR, yet the claim fails
    change = [p - 20.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    ok, line = ab_bench.verdict(_claim_report(parent, change), claim)
    assert not ok
    assert line == "verdict: FAIL: claim study-small-n:latency_p50_ms won 8/10 pairs, fewer than 9/10"
    # 10 of 10 pairs won by a hair: inside the parent's IQR of 99.25-101
    ok, line = ab_bench.verdict(_claim_report(parent, [p - 0.5 for p in parent]), claim)
    assert not ok and line == ("verdict: FAIL: claim study-small-n:latency_p50_ms medians do not differ "
                               "in its favour by more than the parent's IQR")
    # without the claim the same runs pass
    assert ab_bench.verdict(_claim_report(parent, [p - 0.5 for p in parent]))[0]


@pytest.mark.parametrize("change_p50, status", [([40.0, 41.0], 0), ([100.0, 100.5], 1)])
def test_main_exit_status_follows_the_claim(tmp_path, monkeypatch, capsys, change_p50, status):
    # 100.0, 100.5 against 100.0, 101.0 win 1 of 2 pairs, within the bound
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text("")
    monkeypatch.setattr(ab_bench, "compare", lambda *args: _report(change_p50))
    argv = ["--parent-dir", str(tmp_path), "--claim", "study-fs:latency_p50_ms"]
    assert ab_bench.main(argv) == status
    assert capsys.readouterr().out.splitlines()[-1].startswith("verdict: ")


@pytest.mark.parametrize("claim", ["study-small-n:latency_p50_ms", "study-fs:latency", "study-fs"])
def test_main_rejects_a_claim_outside_the_run(tmp_path, capsys, claim):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text("")
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(["--parent-dir", str(tmp_path), "--workload", "study-fs", "--claim", claim])
    assert exc.value.code == 2
    assert f"--claim {claim}: expected WORKLOAD:METRIC" in capsys.readouterr().err


# A parent checkout's stand-in, run as its benchmark or as its npiv package: it starts one sleeping
# child, writes both pids to PIDS and sleeps.
_STUB = """
import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open(PIDS + ".tmp", "w") as fh:
    fh.write(f"{os.getpid()} {child.pid}")
os.replace(PIDS + ".tmp", PIDS)
time.sleep(60)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie, killed but not yet reaped by its new parent, does not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_until(done, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not done() and time.monotonic() < deadline:
        time.sleep(0.05)
    return done()


def _assert_sigterm_kills_the_stub(tmp_path, tool: str, stub: str) -> None:
    """SIGTERM to ``tool`` run against a parent checkout whose ``stub`` file is ``_STUB`` exits 143 and
    leaves none of the three processes (the tool, the stub and its child) running."""
    pids_file = tmp_path / "pids.txt"
    (tmp_path / stub).parent.mkdir(parents=True)
    (tmp_path / stub).write_text(f"PIDS = {str(pids_file)!r}\n" + _STUB)
    tool_path = os.path.join(os.path.dirname(_PATH), tool)
    proc = subprocess.Popen([sys.executable, tool_path, "--parent-dir", str(tmp_path)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pids = []
    try:
        assert _wait_until(lambda: pids_file.exists() or proc.poll() is not None, 30) and pids_file.exists()
        pids = [int(pid) for pid in pids_file.read_text().split()]
        assert all(map(_alive, pids))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 128 + signal.SIGTERM
        assert _wait_until(lambda: not any(map(_alive, pids)), 5)
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
def test_sigterm_leaves_no_benchmark_process_running(tmp_path):
    _assert_sigterm_kills_the_stub(tmp_path, "ab_bench.py", os.path.join("benchmarks", "run.py"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
def test_sigterm_to_same_outputs_leaves_no_side_running(tmp_path):
    # the side's interpreter imports npiv from the parent's src/, so the stub runs as that package
    _assert_sigterm_kills_the_stub(tmp_path, "same_outputs.py", os.path.join("src", "npiv", "__init__.py"))
