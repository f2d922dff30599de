"""End-to-end tests of the command-line interface.

They run in-process, apart from the checks at the end, which run
``python -m npiv.cli`` in a fresh interpreter where a RuntimeWarning is an
error, as the installed ``npiv`` script runs.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from npiv import cli, estimator, selection
from npiv.basis import WeightSequence, parse_weights, trig_design
from npiv.cli import StudyRow, main, run_rate_study
from npiv.estimator import Sample, diagonal_estimate, load_csv, risks_weighted, write_csv
from npiv.selection import (
    dimension_cap,
    dimension_cutoffs,
    effective_dimension,
    oracle_dimension,
    penalized_select,
)
from npiv.simulate import generate_sample, make_operator, make_structural, sampler_doubles, task_seed

from _reference import rebuild_trace, study_stats_loop, trig_columns_loop
from test_ab_bench import _alive

CONST = WeightSequence.constant()


def _write_config(tmp_path, name="config.json", **sections):
    cfg = {
        "structural": {"smoothness": 2.0, "radius": 1.0, "truncation": 30},
        "operator": {"decay": "polynomial", "a": 1.0, "truncation": 5},
        "noise": {"snr": 2.0},
    }
    cfg.update(sections)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _sample_csv(tmp_path, sample, name="sample.csv"):
    path = tmp_path / name
    write_csv(sample, path)
    return str(path)


# -- argument handling ----------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


_ORACLE = ["oracle", "--smoothness-weights", "sobolev:2", "--operator-weights", "poly:1", "--n-grid", "100"]


def test_the_installed_script_is_main(monkeypatch, capsys):
    # pip's script for [project.scripts] exits with what the function returns, so main's
    # return value is the exit code (a regex: tomllib is new in Python 3.11)
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^\[project\.scripts\]\nnpiv = "npiv\.cli:main"$', text, re.MULTILINE)
    assert main(_ORACLE) == 0
    assert capsys.readouterr().out.startswith("n,k_best,rate,cutoff,cutoff_lower,effective_dim_at_k\n100,")
    monkeypatch.setattr(cli, "cmd_oracle", lambda args: 5)
    assert main(_ORACLE) == 5


# -- one parser for many calls --------------------------------------------


def test_main_builds_one_parser_for_many_calls(capsys):
    cli.build_parser.cache_clear()
    for argv in (_ORACLE, ["--help"], ["frobnicate"], _ORACLE + ["--format", "json"], []):
        main(argv)
    capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 1


def test_flags_of_one_call_do_not_reach_the_next(tmp_path, capsys):
    u = np.linspace(0.0, 1.0, 50)
    path = _sample_csv(tmp_path, Sample(np.zeros(50), u, u))
    for flags, weights in ((["--risk-weights", "derivative:1"], "derivative:1"), ([], "const")):
        assert main(["select", path, *flags]) == 0
        assert json.loads(capsys.readouterr().out)["risk_weights"] == weights


def test_a_usage_error_leaves_the_next_call_intact(capsys):
    assert main(_ORACLE + ["--bogus"]) == 2
    assert main(["oracle", "--n-grid", "100"]) == 2  # required flags missing
    capsys.readouterr()
    assert main(_ORACLE) == 0
    assert capsys.readouterr().out.startswith("n,k_best,rate,cutoff,cutoff_lower,effective_dim_at_k\n100,")


def test_help_twice_prints_the_same_text(capsys):
    for argv in (["--help"], ["oracle", "--help"]):
        texts = []
        for _ in range(2):
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] and texts[0] == texts[1]


def test_main_runs_the_command_bound_on_the_module_when_it_is_called(monkeypatch, capsys):
    assert main(_ORACLE) == 0  # the parser exists before the command is replaced
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_oracle", lambda args: seen.append(args.n_grid) or 0)
    assert main(_ORACLE) == 0
    assert seen == ["100"] and capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "error, code, line",
    [
        (np.linalg.LinAlgError("SVD did not converge"), 4, "npiv: internal error: LinAlgError: SVD did not converge"),
        (KeyError("rows"), 4, "npiv: internal error: KeyError: 'rows'"),
        (RuntimeWarning("overflow encountered in multiply"), 4,
         "npiv: internal error: RuntimeWarning: overflow encountered in multiply"),
        (ValueError("bad value"), 2, "npiv: error: bad value"),
        (RuntimeError("broken invariant"), 4, "npiv: internal error: RuntimeError: broken invariant"),
    ],
)
def test_every_failure_of_a_command_exits_with_one_line(monkeypatch, capsys, error, code, line):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_oracle", fail)
    assert main(_ORACLE) == code
    assert capsys.readouterr() == ("", line + "\n")


def test_a_flag_check_exits_2_and_a_broken_invariant_exits_4(tmp_path, monkeypatch, capsys):
    # a check of the input raises ValueError; a broken invariant raises RuntimeError,
    # which the catch-all names with its type
    assert main(_ORACLE + ["--k-max", "0"]) == 2
    assert capsys.readouterr() == ("", "npiv: error: --k-max must be >= 1, got 0\n")
    real_block = cli._study_block
    monkeypatch.setattr(cli, "_study_block", lambda block: real_block(block)[::-1])
    out = tmp_path / "out.json"
    assert main(["rate-study", _study_config(tmp_path, n_grid=[50], replications=2), "--out", str(out)]) == 4
    assert capsys.readouterr() == ("", "npiv: internal error: RuntimeError: study rows are not one per "
                                       "(n, replication) cell in grid order\n")
    assert not out.exists()


# -- simulate -------------------------------------------------------------


def test_simulate_writes_sample(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "draw.csv"
    assert main(["simulate", cfg, "--out", str(out), "--n", "200", "--seed", "1"]) == 0
    echo = json.loads(capsys.readouterr().err)
    assert echo["n"] == 200 and echo["seed"] == 1
    assert echo["sigma"] > 0.0
    lines = out.read_text().splitlines()
    assert len(lines) == 201
    s = load_csv(out)
    assert s.n == 200


def test_simulate_byte_identical_for_seed(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    a, b, c = (tmp_path / nm for nm in ("a.csv", "b.csv", "c.csv"))
    assert main(["simulate", cfg, "--out", str(a), "--n", "100", "--seed", "7"]) == 0
    assert main(["simulate", cfg, "--out", str(b), "--n", "100", "--seed", "7"]) == 0
    assert main(["simulate", cfg, "--out", str(c), "--n", "100", "--seed", "8"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_usage_errors(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "x.csv")
    assert main(["simulate", cfg, "--out", out, "--n", "0"]) == 2
    assert main(["simulate", cfg, "--out", out, "--n", "10", "--seed", "-1"]) == 2

    bad = _write_config(tmp_path, "bad1.json", noise={"sigma": 0.1, "snr": 2.0})
    assert main(["simulate", bad, "--out", out, "--n", "10"]) == 2
    assert "exactly one" in capsys.readouterr().err

    bad = _write_config(tmp_path, "bad2.json", operator={"decay": "polynomial", "speed": 3})
    assert main(["simulate", bad, "--out", out, "--n", "10"]) == 2
    assert "unknown keys" in capsys.readouterr().err

    bad = _write_config(
        tmp_path,
        "bad3.json",
        structural={"coeffs": [5.0], "smoothness": 1.0, "radius": 1.0},
    )
    assert main(["simulate", bad, "--out", out, "--n", "10"]) == 2
    assert "outside the ellipsoid" in capsys.readouterr().err

    bad = _write_config(tmp_path, "bad4.json", operator={"decay": "polynomial", "truncation": 1})
    assert main(["simulate", bad, "--out", out, "--n", "10"]) == 2

    notjson = tmp_path / "nj.json"
    notjson.write_text("{")
    assert main(["simulate", str(notjson), "--out", out, "--n", "10"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, sections, path, message",
    [
        ("simulate", {"structural": {"smoothness": "2"}}, "structural.smoothness", 'a JSON number, got "2"'),
        ("simulate", {"noise": {"snr": None}}, "noise.snr", "a JSON number, got null"),
        ("simulate", {"operator": {"decay": "polynomial", "a": True}}, "operator.a", "a JSON number, got true"),
        ("simulate", {"structural": {"truncation": 2.5}}, "structural.truncation", "a JSON integer, got 2.5"),
        ("rate-study", {"study": {"n_grid": [100], "replications": "3"}}, "study.replications", 'a JSON integer, got "3"'),
        ("rate-study", {"study": {"n_grid": 100}}, "study.n_grid", "a JSON list, got 100"),
        (
            "rate-study",
            {"selection": {"derivative_order": None}, "study": {"n_grid": [100]}},
            "selection.derivative_order",
            "a JSON integer, got null",
        ),
        ("simulate", {"noise": {"sigma": math.nan}}, "noise.sigma", "a finite JSON number, got NaN"),
        ("simulate", {"noise": {"snr": math.inf}}, "noise.snr", "a finite JSON number, got Infinity"),
        ("simulate", {"operator": {"a": math.inf}}, "operator.a", "a finite JSON number, got Infinity"),
        pytest.param(
            "simulate",
            {"noise": {"sigma": 10**400}},
            "noise.sigma",
            f"a finite JSON number, got {10**400}",
            id="noise.sigma-beyond-double",
        ),
        pytest.param(
            "rate-study",
            {"selection": {"derivative_order": 10**400}, "study": {"n_grid": [100]}},
            "selection.derivative_order",
            f"a finite JSON number, got {10**400}",
            id="selection.derivative_order-beyond-double",
        ),
        (
            "simulate",
            {"structural": {"coeffs": [1.0, math.nan]}},
            "structural.coeffs[1]",
            "a finite JSON number, got NaN",
        ),
        (
            "simulate",
            {"structural": {"coeffs": [1.0, "x"]}},
            "structural.coeffs[1]",
            'a JSON number, got "x"',
        ),
    ],
)
def test_config_type_errors_name_the_key(tmp_path, capsys, command, sections, path, message):
    # each section given replaces the base one; json.dumps writes NaN and Infinity
    config = _write_config(tmp_path, **sections)
    argv = [command, config, "--out", str(tmp_path / "out.json")]
    if command == "simulate":
        argv += ["--n", "10"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path} must be {message}" in err
    assert "Traceback" not in err


def _config_text(**sections) -> str:
    """A small study config with ``sections`` replaced; a section given as None is left out."""
    cfg = {
        "structural": {"truncation": 30},
        "operator": {"truncation": 5},
        "noise": {"snr": 2.0},
        "study": {"n_grid": [20, 40], "replications": 2},
        **sections,
    }
    return json.dumps({name: section for name, section in cfg.items() if section is not None})


_SIMULATE = ["simulate", "CFG", "--out", "OUT", "--n", "10"]
_STUDY = ["rate-study", "CFG", "--out", "OUT"]


@pytest.mark.parametrize("argv, config, code, message", [
    pytest.param(_SIMULATE, _config_text(noise=3), 2, "config section 'noise' must be an object",
                 id="section-not-an-object"),
    pytest.param(_SIMULATE, "[1]", 2, "CFG: config must be a JSON object", id="config-not-an-object"),
    pytest.param(["estimate", "SAMPLE", "--k", "2", "--truth", "CFG"], "[1]", 2,
                 "CFG: config must be a JSON object", id="truth-not-an-object"),
    pytest.param(_SIMULATE, b'{"noise": "\xff"}', 2,
                 "CFG: invalid JSON ('utf-8' codec can't decode byte 0xff in position 11: invalid start byte)",
                 id="config-not-utf-8"),
    pytest.param(_SIMULATE, _config_text(extra={}), 2, "CFG: unknown config sections: extra",
                 id="unknown-section"),
    pytest.param(_SIMULATE, _config_text(structural=None), 2, "config needs a 'structural' section",
                 id="no-structural"),
    pytest.param(_SIMULATE, _config_text(operator=None), 2, "config needs an 'operator' section",
                 id="no-operator"),
    pytest.param(_SIMULATE, _config_text(noise=None), 2, "config needs a 'noise' section", id="no-noise"),
    pytest.param(_SIMULATE, _config_text(noise={"sigma": -1}), 2, "noise.sigma must be nonnegative, got -1",
                 id="noise.sigma"),
    pytest.param(_STUDY, _config_text(selection={"derivative_order": -1}), 2,
                 "selection.derivative_order must be nonnegative, got -1", id="selection.derivative_order"),
    pytest.param(_STUDY, _config_text(selection={"penalty_const": 0}), 2,
                 "selection.penalty_const must be positive and finite, got 0", id="selection.penalty_const"),
    pytest.param(_STUDY, _config_text(study={"n_grid": [20], "replications": 0}), 2,
                 "study.replications must be >= 1, got 0", id="study.replications"),
    pytest.param(_STUDY, _config_text(study={"n_grid": [20], "seed": -1}), 2,
                 "study.seed must be nonnegative, got -1", id="study.seed"),
    pytest.param(_STUDY, _config_text(study={"n_grid": []}), 2, "study.n_grid is empty", id="study.n_grid"),
    pytest.param(_STUDY, _config_text(study={"replications": 2}), 2, "no sample-size grid: set study.n_grid",
                 id="no-study.n_grid"),
    pytest.param(_SIMULATE + ["--seed", "-1"], _config_text(), 2, "--seed must be nonnegative, got -1",
                 id="--seed"),
    pytest.param(_STUDY + ["--jobs", "0"], _config_text(), 2, "--jobs must be >= 1, got 0", id="--jobs"),
    # a broken study invariant, as a block that returns no rows
    pytest.param(_STUDY, _config_text(), 4,
                 "RuntimeError: study rows are not one per (n, replication) cell in grid order", id="internal-error"),
])
def test_config_errors_exit_with_their_message(tmp_path, capsys, monkeypatch, argv, config, code, message):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(config if isinstance(config, bytes) else config.encode())
    u = np.linspace(0.0, 1.0, 10)
    names = {"CFG": str(cfg), "OUT": str(tmp_path / "out.json"),
             "SAMPLE": _sample_csv(tmp_path, Sample(np.ones(10), u, u))}
    if code == 4:
        monkeypatch.setattr(cli, "_study_block", lambda block: [])
    assert main([names.get(arg, arg) for arg in argv]) == code
    kind = "internal error" if code == 4 else "error"
    assert capsys.readouterr().err == f"npiv: {kind}: {message.replace('CFG', str(cfg))}\n"
    assert not (tmp_path / "out.json").exists()


def test_config_integral_floats_are_integers(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        structural={"smoothness": 2.0, "radius": 1.0, "truncation": 30.0},
        selection={"derivative_order": 1.0},
        study={"n_grid": [100, 200], "replications": 2.0, "seed": 3.0},
    )
    ref = _write_config(
        tmp_path,
        "ints.json",
        structural={"smoothness": 2.0, "radius": 1.0, "truncation": 30},
        selection={"derivative_order": 1},
        study={"n_grid": [100, 200], "replications": 2, "seed": 3},
    )
    assert main(["rate-study", cfg, "--out", str(tmp_path / "a.json")]) == 0
    assert main(["rate-study", ref, "--out", str(tmp_path / "b.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# Every key a config accepts, and a base config in which all of them work.
_FUZZ_KEYS = [
    ("structural", "smoothness"), ("structural", "radius"),
    ("structural", "truncation"), ("structural", "coeffs"), ("operator", "decay"),
    ("operator", "a"), ("operator", "truncation"), ("noise", "sigma"), ("noise", "snr"),
    ("selection", "derivative_order"), ("selection", "penalty_const"), ("study", "n_grid"),
    ("study", "replications"), ("study", "seed"), ("study", "k_max"),
]
_FUZZ_BASE = {
    "structural": {"smoothness": 2.0, "radius": 1.0, "truncation": 30},
    "operator": {"decay": "polynomial", "a": 1.0, "truncation": 5},
    "noise": {"snr": 2.0},
    "selection": {"derivative_order": 1, "penalty_const": 540.0},
    "study": {"n_grid": [20, 40], "replications": 2, "seed": 0, "k_max": 20},
}
_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 538.0]),
    st.integers(-3, 20),
    st.floats(-10.0, 10.0),
)
_FUZZ_VALUES = st.one_of(
    _NUMBERS,
    st.none(),
    st.booleans(),
    st.sampled_from(["custom", "power_law", "polynomial", "exponential", "2", ""]),
    st.lists(_NUMBERS, max_size=4),
)


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(_FUZZ_KEYS), _FUZZ_VALUES, st.sampled_from(["simulate", "rate-study"]))
def test_every_config_runs_or_exits_2(target, value, command):
    section, key = target
    cfg = copy.deepcopy(_FUZZ_BASE)
    if section == "noise":
        cfg["noise"] = {key: value}
    else:
        cfg[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = f"{tmp}/config.json"
        with open(config, "w") as fh:
            fh.write(json.dumps(cfg))
        if command == "simulate":
            argv = ["simulate", config, "--out", f"{tmp}/s.csv", "--n", "20"]
        else:
            argv = ["rate-study", config, "--out", f"{tmp}/study.json", "--jobs", "1"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), err.getvalue()
    # one line, the message or the echo, and no numpy warning before it
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("npiv: error: ")
    elif command == "simulate":
        assert len(lines) == 1
        _strict_json(lines[0])
    else:
        assert lines == []


@pytest.mark.filterwarnings("error")
def test_simulate_smoothness_beyond_doubles_exits_2_before_drawing(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for structural in (
        {"smoothness": 538, "truncation": 30},
        {"smoothness": 538, "coeffs": [1.0, 0.0, 0.0]},
    ):
        cfg = _write_config(tmp_path, structural=structural, noise={"sigma": 0.1})
        assert main(["simulate", cfg, "--out", str(out), "--n", "20"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("npiv: error: bad structural config: smoothness 538 is too large")
        assert not out.exists()


_TOO_LARGE = "is too large: it needs more than the 1 GiB a command may allocate"


@pytest.mark.parametrize(
    "command, sections, flags, name",
    [
        ("simulate", {"structural": {"truncation": 1e18}}, [], "structural.truncation about 10^18"),
        ("simulate", {"operator": {"decay": "polynomial", "truncation": 1e18}}, [],
         "operator.truncation about 10^18"),
        # a sample that fits by itself while its sampler's peak does not
        ("simulate", {}, ["--n", str(10**7)],
         f"--n {10**7}: its sampler's peak of 192000000 doubles"),
        ("simulate", {}, ["--n", str(10**12)], f"--n {10**12}"),
        ("rate-study", {"study": {"n_grid": [20, 40], "replications": 1e12}}, [],
         "study.replications 1000000000000 over 2 sample sizes"),
        ("rate-study", {"structural": {"truncation": 1e18}, "study": {"n_grid": [20, 40]}}, [],
         "structural.truncation about 10^18"),
        ("rate-study", {"study": {"n_grid": [20, 10**12]}}, [], f"study.n_grid {10**12}"),
    ],
)
def test_sizes_beyond_the_memory_bound_exit_2(tmp_path, capsys, command, sections, flags, name):
    cfg = _write_config(tmp_path, **sections)
    out = tmp_path / ("s.csv" if command == "simulate" else "study.json")
    argv = [command, cfg, "--out", str(out)] + (["--n", "20"] if command == "simulate" else [])
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"npiv: error: {name}") and _TOO_LARGE in err
    assert not out.exists()


@pytest.mark.parametrize(
    "decay, a, trunc, largest",
    [("polynomial", 1.0, 5, 6990506), ("polynomial", 1.0, 2, None), ("polynomial", 0.26, 64, None),
     ("exponential", 0.5, 8, None)],
)
def test_sampler_bound_at_its_boundary(decay, a, trunc, largest):
    # the largest n whose sampler peak fits the bound passes and n + 1 exits 2; only
    # sizes are computed, no sample is drawn
    op = make_operator(decay, a, truncation=trunc)
    fits, too_large = 1, cli._MAX_BYTES
    while too_large - fits > 1:
        mid = (fits + too_large) // 2
        if 8 * sampler_doubles(op, mid) <= cli._MAX_BYTES:
            fits = mid
        else:
            too_large = mid
    if largest is not None:  # the default operator: n * 2.4 proposals of 8 doubles fit 1 GiB
        assert fits == largest
    cli._check_sampler(op, fits, "--n")
    with pytest.raises(ValueError, match=f"--n {fits + 1}: its sampler's peak"):
        cli._check_sampler(op, fits + 1, "--n")


def test_simulate_missing_config_is_io_error(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", str(tmp_path / "none.json"), "--out", out, "--n", "10"]) == 3
    capsys.readouterr()


# -- estimate -------------------------------------------------------------


def test_estimate_dimension_one_is_mean(tmp_path, capsys):
    rng = np.random.default_rng(0)
    s = Sample(rng.normal(1.0, 0.5, 40), rng.uniform(0, 1, 40), rng.uniform(0, 1, 40))
    path = _sample_csv(tmp_path, s)
    assert main(["estimate", path, "--k", "1", "--mode", "diagonal"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["coeffs"] == [float(np.mean(s.y))]
    assert report["mode"] == "diagonal"
    assert not report["thresholded"]


def test_estimate_modes_agree_on_diagonal_fixture(tmp_path, capsys):
    pts = np.array([0.0, 0.5])
    path = _sample_csv(tmp_path, Sample(np.array([1.0, 3.0]), pts, pts))
    assert main(["estimate", path, "--k", "2", "--mode", "general"]) == 0
    gen = json.loads(capsys.readouterr().out)["coeffs"]
    assert main(["estimate", path, "--k", "2", "--mode", "diagonal"]) == 0
    diag = json.loads(capsys.readouterr().out)["coeffs"]
    assert_allclose(gen, diag, rtol=1e-14)


def test_estimate_with_truth_reports_risk(tmp_path, capsys):
    rng = np.random.default_rng(1)
    u = rng.uniform(0, 1, 60)
    s = Sample(rng.normal(0.5, 1.0, 60), u, u)
    path = _sample_csv(tmp_path, s)
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(
        json.dumps({"structural": {"coeffs": [1.0, 0.5], "smoothness": 1.0, "radius": 2.0}})
    )
    assert main(["estimate", path, "--k", "2", "--mode", "diagonal", "--truth", str(truth_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    from npiv.estimator import diagonal_estimate

    phi = make_structural(1.0, 2.0, 2, coeffs=[1.0, 0.5])
    expected = risks_weighted([diagonal_estimate(s, 2).coeffs], phi.coeffs, CONST)[0]
    assert report["risk"] == expected
    assert report["risk_weights"] == "const"


def test_json_config_and_truth_read_the_same_after_a_byte_order_mark(tmp_path, capsys):
    # some editors start UTF-8 files with the mark; sample CSVs already accept it
    config = _write_config(tmp_path)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"structural": {"smoothness": 2.0, "radius": 1.0, "truncation": 30}}))
    outputs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        cfg, spec = tmp_path / f"cfg{len(mark)}.json", tmp_path / f"truth{len(mark)}.json"
        cfg.write_bytes(mark + Path(config).read_bytes())
        spec.write_bytes(mark + truth.read_bytes())
        csv_path, out = tmp_path / f"s{len(mark)}.csv", tmp_path / f"e{len(mark)}.json"
        assert main(["simulate", str(cfg), "--out", str(csv_path), "--n", "200", "--seed", "3"]) == 0
        assert main(["estimate", str(csv_path), "--k", "3", "--truth", str(spec), "--out", str(out)]) == 0
        outputs.append((csv_path.read_bytes(), out.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    assert b'"risk"' in outputs[0][1]


def test_estimate_derivative_coeffs(tmp_path, capsys):
    pts = np.array([0.0, 0.5])
    path = _sample_csv(tmp_path, Sample(np.array([1.0, 3.0]), pts, pts))
    assert main(["estimate", path, "--k", "2", "--mode", "diagonal", "--derivative-order", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    from npiv.estimator import derivative_coeffs, diagonal_estimate

    s = Sample(np.array([1.0, 3.0]), pts, pts)
    expected = derivative_coeffs(diagonal_estimate(s, 2).coeffs, 1)
    assert report["derivative_coeffs"] == [float(v) for v in expected]


def test_estimate_usage_errors(tmp_path, capsys):
    pts = np.array([0.0, 0.5])
    path = _sample_csv(tmp_path, Sample(np.array([1.0, 3.0]), pts, pts))
    assert main(["estimate", path, "--k", "0"]) == 2
    assert main(["estimate", path, "--k", "1", "--derivative-order", "-1"]) == 2
    assert main(["estimate", path, "--k", "1", "--risk-weights", "bogus:1"]) == 2
    assert main(["estimate", str(tmp_path / "none.csv"), "--k", "1"]) == 3
    capsys.readouterr()

    bad = tmp_path / "bad.csv"
    bad.write_text("y,z,w\n1,0.5,0.5\n2,1.7,0.5\n")
    assert main(["estimate", str(bad), "--k", "1"]) == 2
    assert "row 2" in capsys.readouterr().err

    # (2 pi f)**300 overflows a double
    out = tmp_path / "est.json"
    argv = ["estimate", path, "--k", "5", "--mode", "diagonal", "--out", str(out)]
    assert main(argv + ["--derivative-order", "300"]) == 2
    assert "--derivative-order 300 overflows" in capsys.readouterr().err
    assert not out.exists()
    # a negative order is rejected before the sample is read: a missing file
    # would otherwise exit 3
    missing = str(tmp_path / "none.csv")
    assert main(["estimate", missing, "--k", "1", "--derivative-order", "-1"]) == 2
    assert "--derivative-order must be nonnegative" in capsys.readouterr().err

    # the n x k design (and the general mode's k x k system) is bounded
    grid = np.linspace(0.0, 1.0, 50)
    rows = _sample_csv(tmp_path, Sample(np.ones(50), grid, grid), name="rows.csv")
    for mode, k in (("diagonal", 10**12), ("general", 20000)):
        assert main(["estimate", rows, "--k", str(k), "--mode", mode]) == 2
        assert f"--k {k} with n=50 {_TOO_LARGE}" in capsys.readouterr().err
    wide = str(tmp_path / "wide.json")
    assert main(["estimate", rows, "--k", "20000", "--mode", "diagonal", "--out", wide]) == 0

    truth_path = tmp_path / "truth.json"
    for truth, message in (
        ({"structural": {"smoothness": "2"}}, 'structural.smoothness must be a JSON number, got "2"'),
        ({"structural": {"radius": 1.0, "shape": 3}}, "unknown keys: shape"),
    ):
        truth_path.write_text(json.dumps(truth))
        assert main(["estimate", path, "--k", "2", "--truth", str(truth_path)]) == 2
        assert message in capsys.readouterr().err


def test_a_simulate_config_is_a_truth(tmp_path, capsys):
    # --truth reads a config: its structural section is the truth, its other sections are only checked
    config = _write_config(tmp_path)
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"structural": json.loads(Path(config).read_text())["structural"]}))
    sample = str(tmp_path / "s.csv")
    assert main(["simulate", config, "--out", sample, "--n", "200", "--seed", "3"]) == 0
    reports = []
    for i, truth in enumerate((config, nested)):
        out = tmp_path / f"estimate{i}.json"
        assert main(["estimate", sample, "--k", "3", "--truth", str(truth), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert b'"risk"' in reports[0]


@pytest.mark.parametrize("truth, keys", [
    pytest.param({"smoothness": 2.0, "radius": 1.0}, "radius, smoothness", id="bare-form"),
    pytest.param({"structural": {"smoothness": 2.0}, "noize": {"sigma": 1}}, "noize", id="noize"),
])
def test_a_truth_outside_the_config_sections_exits_2(tmp_path, capsys, truth, keys):
    u = np.linspace(0.0, 1.0, 20)
    sample = _sample_csv(tmp_path, Sample(u, u, u))
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate", sample, "--k", "2", "--truth", str(path)]) == 2
    assert capsys.readouterr().err == f"npiv: error: {path}: unknown config sections: {keys}\n"


# -- select ---------------------------------------------------------------


def test_select_zero_response(tmp_path, capsys):
    u = np.linspace(0.0, 1.0, 50)
    path = _sample_csv(tmp_path, Sample(np.zeros(50), u, u))
    assert main(["select", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k_selected"] == 1
    assert report["y_second_moment"] == 0.0


def test_select_scale_invariant_choice(tmp_path, capsys):
    rng = np.random.default_rng(2)
    u = rng.uniform(0, 1, 120)
    y = rng.normal(0.5, 1.0, 120)
    p1 = _sample_csv(tmp_path, Sample(y, u, u), "s1.csv")
    p2 = _sample_csv(tmp_path, Sample(10.0 * y, u, u), "s2.csv")
    assert main(["select", p1, "--penalty-const", "2"]) == 0
    r1 = json.loads(capsys.readouterr().out)
    assert main(["select", p2, "--penalty-const", "2"]) == 0
    r2 = json.loads(capsys.readouterr().out)
    assert r1["k_selected"] == r2["k_selected"]
    assert r1["cutoff"] == r2["cutoff"]


def test_select_trace_matches_reference_rebuild(tmp_path, capsys):
    rng = np.random.default_rng(3)
    u = rng.uniform(0, 1, 90)
    s = Sample(rng.normal(0.5, 1.0, 90), u, u)
    path = _sample_csv(tmp_path, s)
    assert main(["select", path, "--penalty-const", "1.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    cutoff, contrast, penalty, criterion, k_sel = rebuild_trace(s, CONST, 1.5)
    # JSON float round-trips are exact, so this is a bitwise comparison
    assert report["cutoff"] == cutoff
    assert report["k_selected"] == k_sel
    assert report["contrast"] == contrast
    assert report["penalty"] == penalty
    assert report["criterion"] == criterion


def test_select_warns_when_far_from_diagonal(tmp_path, capsys):
    rng = np.random.default_rng(4)
    z = rng.uniform(0, 1, 800)
    # alternate between w = z (keeps the diagonal healthy, so the probe
    # actually runs) and w = z/2 (loads the off-diagonal entries)
    w = np.where(np.arange(800) % 2 == 0, z, z / 2.0)
    s = Sample(rng.normal(0.0, 1.0, 800), z, w)
    path = _sample_csv(tmp_path, s)
    assert main(["select", path]) == 0
    assert "far from diagonal" in capsys.readouterr().err

    u = rng.uniform(0, 1, 400)
    clean = _sample_csv(tmp_path, Sample(rng.normal(0.0, 1.0, 400), u, u), "clean.csv")
    assert main(["select", clean]) == 0
    assert "far from diagonal" not in capsys.readouterr().err


def test_select_builds_one_instrument_design_for_its_check(tmp_path, monkeypatch, capsys):
    # the off-diagonal check reads the operator matrix of the Galerkin fit's moment builder
    shapes = []

    def counted(points, k):
        shapes.append((points.size, k))
        return trig_design(points, k)

    monkeypatch.setattr(estimator, "trig_design", counted)
    rng = np.random.default_rng(4)
    u = rng.uniform(0, 1, 400)
    assert main(["select", _sample_csv(tmp_path, Sample(rng.normal(0.0, 1.0, 400), u, u))]) == 0
    cutoff = json.loads(capsys.readouterr().out)["cutoff"]
    assert cutoff >= 2 and shapes == [(400, min(cutoff, 10))] * 2


def test_select_non_finite_report_exits_2_without_output(tmp_path, capsys):
    # y**2 would overflow, so the sample's bound rejects the first row before any moment is taken
    path = tmp_path / "huge.csv"
    out = tmp_path / "trace.json"
    for y in ("1e200", "1e308"):
        path.write_text(f"y,z,w\n{y},0.1,0.2\n-{y},0.5,0.4\n{y},0.9,0.6\n")
        for argv in (["select"], ["estimate", "--k", "3"]):
            assert main([*argv, str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"npiv: error: {path}, row 1: y={float(y)!r} outside [-2**400, 2**400]\n"
    assert not out.exists()


def test_an_overflow_that_a_weight_causes_names_the_weights(tmp_path, capsys):
    # w_1 = 1e308 makes the effective dimension inf; derivative:150 weights pass the doubles at j = 11
    cfg = _write_config(tmp_path, structural={"smoothness": 2.0, "radius": 1.0, "truncation": 50})
    sample, out = str(tmp_path / "s.csv"), tmp_path / "out.json"
    # responses of 1000 take w_1 * c_1**2 past the doubles: the contrast is -inf, and -inf + inf is nan
    big = tmp_path / "big.csv"
    big.write_text("y,z,w\n1000,0.1,0.2\n1000,0.5,0.4\n1000,0.9,0.6\n")
    finite_huge = "custom:" + ",".join(["1e308"] * 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", cfg, "--out", sample, "--n", "500", "--seed", "1"]) == 0
        capsys.readouterr()
        for csv, spec in ((sample, "custom:1e308,1e308,1e308"), (str(big), "custom:1e308")):
            assert main(["select", csv, "--risk-weights", spec, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"npiv: error: --risk-weights {spec} overflows the selection criterion\n"
        # finite weights whose weighted sum passes the doubles are named as well
        for csv, k, spec in ((sample, "60", "derivative:150"), (sample, "5", "derivative:100"),
                             (str(big), "1", finite_huge)):
            assert main(["estimate", csv, "--k", k, "--truth", cfg, "--risk-weights", spec, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"npiv: error: --risk-weights {spec} overflows the risk\n"
        # weights that stay finite leave the default constant's penalty finite too
        assert main(["select", sample, "--risk-weights", "custom:1e300,1e300,1e300", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_a_penalty_past_the_doubles_is_named(tmp_path, capsys):
    # at 1e307 the penalty overflows where the effective dimension grows; at 1e306 it stays finite
    cfg = _write_config(tmp_path, selection={"penalty_const": 1e307},
                        study={"n_grid": [200, 400], "replications": 3, "seed": 1})
    sample, out = str(tmp_path / "s.csv"), tmp_path / "select.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", cfg, "--out", sample, "--n", "500", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["select", sample, "--penalty-const", "1e306", "--out", str(out)]) == 0
        out.unlink()
        assert main(["select", sample, "--penalty-const", "1e307", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "npiv: error: --penalty-const 1e+307 overflows the selection penalty\n"
        assert not out.exists()
        # a study keeps only each replication's k, which an infinite penalty never selects
        assert main(["rate-study", cfg, "--out", str(tmp_path / "study.json")]) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "study.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 and all(row.split(",")[3] == "1" for row in rows)


def test_select_usage_errors(tmp_path, capsys):
    u = np.linspace(0.0, 1.0, 10)
    path = _sample_csv(tmp_path, Sample(np.ones(10), u, u))
    assert main(["select", str(tmp_path / "none.csv")]) == 3
    assert main(["select", path, "--penalty-const", "0"]) == 2
    assert main(["select", path, "--risk-weights", "nope"]) == 2
    capsys.readouterr()
    for value in ("inf", "nan"):
        assert main(["select", path, "--penalty-const", value]) == 2
        assert f"--penalty-const must be positive and finite, got {value}" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    for value in ("nan", "inf"):
        bad.write_text(f"y,z,w\n0.1,0.2,0.3\n{value},0.5,0.5\n")
        assert main(["select", str(bad)]) == 2
        assert f"row 2: y={value} is not finite" in capsys.readouterr().err


def test_select_custom_risk_weights_cover_only_their_table(tmp_path, capsys):
    # a table shorter than n caps the cutoff at its length; a table of n ones is const
    phi = make_structural(2.0, 1.0, truncation=30)
    s = generate_sample(phi, make_operator("polynomial", 1.0, truncation=5), 0.3, 2000, 0)
    path = _sample_csv(tmp_path, s)
    for table in ((1, 2, 3), (1, 1)):
        assert main(["select", path, "--risk-weights", "custom:" + ",".join(map(str, table))]) == 0
        assert 1 <= json.loads(capsys.readouterr().out)["cutoff"] <= len(table)
    reports = []
    for weights in ("const", "custom:" + ",".join(["1"] * s.n)):
        assert main(["select", path, "--penalty-const", "0.75", "--risk-weights", weights]) == 0
        reports.append(json.loads(capsys.readouterr().out))
        del reports[-1]["risk_weights"]
    assert reports[0] == reports[1]
    assert reports[0]["cutoff"] == 3  # above the two-entry table's cap


@pytest.mark.filterwarnings("error")
def test_derivative_200_weights_run_warning_free(tmp_path, capsys):
    # j**400 overflows to inf past j = 5, a handled weight, so numpy must
    # not warn about it; warnings are errors in this test
    rc = main(
        [
            "oracle",
            "--risk-weights",
            "derivative:200",
            "--smoothness-weights",
            "sobolev:2",
            "--operator-weights",
            "poly:1",
            "--n-grid",
            "1000",
        ]
    )
    assert rc == 0
    assert capsys.readouterr() == ("n,k_best,rate,cutoff,cutoff_lower,effective_dim_at_k\n1000,1,1.0,1,1,1.0\n", "")

    rng = np.random.default_rng(200)
    s = Sample(rng.normal(0.5, 1.0, 200), rng.uniform(0, 1, 200), rng.uniform(0, 1, 200))
    assert main(["select", _sample_csv(tmp_path, s), "--risk-weights", "derivative:200"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    cutoff, contrast, penalty, criterion, k_sel = rebuild_trace(s, WeightSequence.derivative(200), 540.0)
    assert (report["cutoff"], report["k_selected"]) == (cutoff, k_sel) == (1, 1)
    assert (report["contrast"], report["penalty"], report["criterion"]) == (contrast, penalty, criterion)


# -- oracle ---------------------------------------------------------------


def test_oracle_singleton(tmp_path, capsys):
    rc = main(
        [
            "oracle",
            "--smoothness-weights",
            "const",
            "--operator-weights",
            "const",
            "--n-grid",
            "1",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == [
        {
            "n": 1,
            "k_best": 1,
            "rate": 1.0,
            "cutoff": 1,
            "cutoff_lower": 1,
            "effective_dim_at_k": 1.0,
        }
    ]


def test_oracle_rows_match_library(capsys):
    rc = main(
        [
            "oracle",
            "--smoothness-weights",
            "sobolev:2",
            "--operator-weights",
            "poly:1",
            "--n-grid",
            "1000,10000",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    sob2 = WeightSequence.sobolev(2.0)
    poly1 = WeightSequence.polynomial_decay(1.0)
    for row in rows:
        n = row["n"]
        k_best, rate = oracle_dimension(CONST, sob2, poly1, n, min(n, 200))
        assert row["k_best"] == k_best
        assert row["rate"] == rate
        assert (row["cutoff"], row["cutoff_lower"]) == dimension_cutoffs(CONST, poly1, 1.0, n)
        eff = effective_dimension(CONST, poly1, k_best)[k_best - 1]
        assert row["effective_dim_at_k"] == float(eff)


def test_oracle_csv_format(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    rc = main(
        [
            "oracle",
            "--smoothness-weights",
            "sobolev:2",
            "--operator-weights",
            "poly:1",
            "--n-grid",
            "1000,10000",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k_best,rate,cutoff,cutoff_lower,effective_dim_at_k"
    assert len(lines) == 3
    assert lines[1].startswith("1000,3,0.014,")


def test_oracle_custom_tables_cap_the_search(capsys):
    base = ["oracle", "--smoothness-weights", "sobolev:2", "--n-grid", "100", "--format", "json"]
    for extra in (
        ["--risk-weights", "custom:1,2,3", "--operator-weights", "poly:1"],
        ["--operator-weights", "custom:1,0.5,0.3", "--k-max", "3"],
    ):
        assert main(base + extra) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert 1 <= row["k_best"] <= 3
        assert 1 <= row["cutoff_lower"] <= row["cutoff"] <= 3
    # a table long enough for every answer prints the rows of the weights it lists
    printed = []
    for risk in ("custom:" + ",".join(["1"] * 20), "const"):
        argv = ["oracle", "--risk-weights", risk, "--smoothness-weights", "sobolev:2",
                "--operator-weights", "poly:1", "--n-grid", "10,20,1000"]
        assert main(argv) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[0].count("\n") == 4


def test_oracle_usage_errors(capsys):
    base = ["oracle", "--smoothness-weights", "const", "--operator-weights", "const"]
    assert main(base + ["--n-grid", "1000,500"]) == 2
    assert main(base + ["--n-grid", "x"]) == 2
    assert main(base + ["--n-grid", "100", "--link-constant", "0"]) == 2
    capsys.readouterr()
    for value in ("inf", "nan"):
        assert main(base + ["--n-grid", "100000", "--link-constant", value]) == 2
        assert f"--link-constant must be positive and finite, got {value}" in capsys.readouterr().err
    assert main(base + ["--n-grid", "100", "--k-max", "0"]) == 2
    assert "--k-max must be >= 1, got 0" in capsys.readouterr().err
    assert main(base + ["--n-grid", f"10,{10**12}"]) == 2
    assert f"--n-grid sizes summing to {10**12 + 10} {_TOO_LARGE}" in capsys.readouterr().err


@pytest.mark.parametrize("operator", ["const", "poly:1"])
def test_oracle_holds_six_doubles_per_candidate_dimension(operator):
    # the bytes per k at which oracle --k-max is bounded
    k = 10_000
    tracemalloc.start()
    try:
        oracle_dimension(CONST, WeightSequence.sobolev(2.0), parse_weights(operator), 10**9, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cli._ORACLE_K_BYTES - 8) * k < peak <= cli._ORACLE_K_BYTES * k + 4096


def test_oracle_k_max_beyond_the_bound_exits_2_before_the_oracle_runs(monkeypatch, capsys):
    def reached(*args):
        raise RuntimeError("the oracle ran")

    monkeypatch.setattr(cli, "oracle_dimension", reached)
    n = cli._MAX_BYTES // 8  # the largest --n-grid size that passes its own check
    fits = cli._MAX_BYTES // cli._ORACLE_K_BYTES
    base = ["oracle", "--smoothness-weights", "sobolev:2", "--operator-weights", "poly:1", "--n-grid", str(n)]
    assert main(base + ["--k-max", str(fits)]) == 4
    assert capsys.readouterr().err == "npiv: internal error: RuntimeError: the oracle ran\n"
    for k_max in (fits + 1, n, 10**18):
        assert main(base + ["--k-max", str(k_max)]) == 2
        assert capsys.readouterr().err == f"npiv: error: --k-max {cli._size(k_max)} at n={n} {_TOO_LARGE}\n"


# the cutoffs at n = 2**20 of one n-long read of the weights
_LONG_WALK_CUTOFFS = {
    ("const", "const"): (1 << 20, 18909), ("const", "poly:1e-9"): (1048575, 18909),
    ("sobolev:1e-9", "const"): (1048575, 18909), ("const", "poly:0.01"): (799003, 15589),
    ("poly:1", "sobolev:1"): (1 << 20, 1 << 20),
}


@pytest.mark.parametrize("risk, operator", list(_LONG_WALK_CUTOFFS))
def test_a_cutoff_walk_over_nearly_every_weight_holds_a_few_blocks(risk, operator):
    # these pairs read nearly all n weights; a block at a time, that takes a fixed few MiB, not 64 bytes a weight
    n = 1 << 20
    tracemalloc.start()
    try:
        found = dimension_cutoffs(parse_weights(risk), parse_weights(operator), 1.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == _LONG_WALK_CUTOFFS[risk, operator]
    assert peak < 4 << 20


@pytest.mark.parametrize("risk, operator", [
    ("sobolev:1", "const"), ("const", "poly:1"), ("poly:1", "poly:0.5"), ("exp:1", "exp:1"),
    ("custom:1,1", "const"), ("const", "custom:1,1,1"), ("const", "const"), ("exp:1", "const"),
    ("const", "poly:1e-9"),
])
def test_oracle_n_grid_keeps_its_array_bound_for_every_weight_pair(monkeypatch, capsys, risk, operator):
    # the cutoff walk holds a few blocks whatever the weights, so the array bound is the only one
    def reached(*args):
        raise RuntimeError("the walk ran")

    monkeypatch.setattr(cli, "dimension_cutoffs", reached)
    base = ["oracle", "--risk-weights", risk, "--smoothness-weights", "sobolev:2", "--operator-weights", operator,
            "--k-max", "2"]
    fits = cli._MAX_BYTES // 8
    assert main(base + ["--n-grid", str(fits)]) == 4
    assert capsys.readouterr().err == "npiv: internal error: RuntimeError: the walk ran\n"
    assert main(base + ["--n-grid", f"100,{fits + 1}"]) == 2
    assert capsys.readouterr().err == f"npiv: error: --n-grid sizes summing to {fits + 101} {_TOO_LARGE}\n"


def test_oracle_n_grid_bounds_the_sum_of_a_long_grid(monkeypatch, capsys):
    # each size walks up to n weights, so many sizes near the array bound would each take seconds
    def reached(*args):
        raise RuntimeError("the walk ran")

    monkeypatch.setattr(cli, "dimension_cutoffs", reached)
    base = ["oracle", "--smoothness-weights", "sobolev:2", "--operator-weights", "const", "--k-max", "2"]
    fits = cli._MAX_BYTES // 8
    grid = list(range(1, 1000)) + [fits - 999 * 1000 // 2]
    assert main(base + ["--n-grid", ",".join(map(str, grid))]) == 4
    assert capsys.readouterr().err == "npiv: internal error: RuntimeError: the walk ran\n"
    for longer in (grid[:-1] + [grid[-1] + 1], [fits // 2, fits // 2 + 1], [fits - 2, fits - 1, fits]):
        assert main(base + ["--n-grid", ",".join(map(str, longer))]) == 2
        assert capsys.readouterr().err == f"npiv: error: --n-grid sizes summing to {sum(longer)} {_TOO_LARGE}\n"


_ORACLE_FLAG = re.compile(r"--(?:risk-weights|smoothness-weights|operator-weights|link-constant|k-max|format|n-grid)\b")
_EXTREME_PARAMS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-9, 0.01, 0.5, 1.0, 2.0, 400.0, 538.0, 1e308, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
)
_WEIGHT_SPECS = st.one_of(
    st.just("const"),
    st.builds("{}:{!r}".format, st.sampled_from(["sobolev", "derivative", "poly", "exp"]), _EXTREME_PARAMS),
    st.builds("{}:{!r}".format, st.sampled_from(["sobolev", "derivative"]), st.just(0.0)),
    st.builds(lambda t: "custom:" + ",".join(map(repr, t)),
              st.lists(st.sampled_from([5e-324, 1e-308, 1e-9, 1.0, 2.0, 1e9, 1e308]) | _EXTREME_PARAMS,
                       min_size=1, max_size=12)),
)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@example(("const", "const", "const"), "-1", -1, "json", "-1,0")
@given(
    st.tuples(_WEIGHT_SPECS, _WEIGHT_SPECS, _WEIGHT_SPECS),
    st.sampled_from(["1", "1e-300", "5e-324", "1e300", "1.7976931348623157e308", "0", "-1", "inf", "nan"])
    | st.floats(min_value=1e-300, max_value=1e300).map(repr),
    st.sampled_from([1, 2, 200]) | st.integers(-1, 10**6),
    st.sampled_from(["csv", "json"]),
    st.lists(st.integers(-1, 10**5), min_size=0, max_size=4).map(lambda grid: ",".join(map(str, grid)))
    | st.sampled_from(["1", "2", "100000", "1,2,3", "x", "1.5", "1e3", "100,,200", "2,x"]),
)
def test_every_oracle_argv_runs_or_exits_2_naming_a_flag(weights, link, k_max, fmt, grid):
    # flag=value, since argparse reads a value that starts with "-" and is no number as a flag
    argv = ["oracle", f"--risk-weights={weights[0]}", f"--smoothness-weights={weights[1]}",
            f"--operator-weights={weights[2]}", f"--link-constant={link}", f"--k-max={k_max}",
            f"--format={fmt}", f"--n-grid={grid}"]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("npiv: error: "), (argv, lines)
        assert _ORACLE_FLAG.search(lines[0]), (argv, lines)
    else:
        assert lines == [], argv


# Small samples at extreme magnitudes, rows out of range included, and the flags of the other commands.
_CSV_Y = st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 1e300, -1e300, 2.0**400, -2.0**400,
                          2.0**401, 1e308, -1e308, math.inf, math.nan]) | st.floats(-2.0**400, 2.0**400)
_CSV_UNIT = st.sampled_from([0.0, 5e-324, 0.5, 1 - 2**-53, 1.0, -5e-324, 1 + 2**-52, math.nan]) | st.floats(0.0, 1.0)
_CSV_ROWS = st.lists(st.tuples(_CSV_Y, _CSV_UNIT, _CSV_UNIT), min_size=1, max_size=6)
_PENALTIES = (st.sampled_from(["0", "-1", "5e-324", "1e-300", "0.75", "540", "1e300", "1.7976931348623157e308",
                               "inf", "nan"])
              | st.floats(1e-300, 1e300).map(repr))
# each size either runs on the small sample or lies past the array bound, so no case allocates much
_SIZES = st.sampled_from([-1, 0, 1, 2, 5, 60, 10**5, 10**9, 10**30]) | st.integers(1, 12)
_ORDERS = st.sampled_from([-1, 0, 1, 2, 4, 150, 200, 10**6, 10**30]) | st.integers(0, 8)


def _flags(**values) -> list[str]:
    """``--name=value`` for each value given, ``_`` in a name read as ``-``; None leaves its flag out."""
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items() if value is not None]


def _study_sections(decay, n_grid, replications, derivative_order, penalty_const) -> dict:
    return {"operator": {"decay": decay, "truncation": 5},
            "study": {"n_grid": n_grid, "replications": replications, "k_max": 20},
            "selection": {"derivative_order": derivative_order, "penalty_const": penalty_const}}


# (command, its input: CSV rows, config sections or None, its flags)
_ARGV_CASES = st.one_of(
    st.tuples(st.just("simulate"), st.none(),
              st.builds(_flags, n=st.sampled_from([-1, 0, 1, 2, 20, 10**9, 10**30]) | st.integers(1, 200),
                        seed=st.sampled_from([-1, 0, 2**32, 2**63, 2**64, 10**30]) | st.integers(0, 10**6))),
    st.tuples(st.just("select"), _CSV_ROWS, st.builds(_flags, risk_weights=_WEIGHT_SPECS, penalty_const=_PENALTIES)),
    st.tuples(st.just("estimate"), _CSV_ROWS,
              st.builds(_flags, k=_SIZES, mode=st.sampled_from(["diagonal", "general"]), derivative_order=_ORDERS,
                        risk_weights=_WEIGHT_SPECS, truth=st.sampled_from([None, "CONFIG"]))),
    st.tuples(st.just("rate-study"),
              st.builds(_study_sections, st.sampled_from(["polynomial", "exponential"]),
                        st.sampled_from([[20], [1, 20], [2, 40], [20, 40]]), st.integers(1, 2),
                        st.sampled_from([0, 1, 2, 150, 400]) | st.integers(0, 5),
                        st.sampled_from([5e-324, 1e-300, 0.75, 540.0, 1e300, 1.7976931348623157e308])),
              st.builds(_flags, jobs=st.integers(-1, 1))),
)
# What a message may name: the command's flags, its files and the config's keys.
_ARGV_NAMES = {
    "simulate": r"--n\b|--seed\b",
    "select": r"--risk-weights\b|--penalty-const\b|sample\.csv",
    "estimate": r"--k\b|--mode\b|--derivative-order\b|--risk-weights\b|--truth\b|sample\.csv",
    "rate-study": r"--jobs\b|\b(?:operator|study|selection)\.\w+",
}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
# a zero response times an infinite effective dimension, a custom table shorter than the truth,
# and a derivative order whose risk overflows
@example(("select", [(0.0, 0.5, 0.5)], ["--risk-weights=custom:1e308", "--penalty-const=5e-324"]))
@example(("estimate", [(0.0, 0.5, 0.5)], ["--k=1", "--risk-weights=custom:1.0", "--truth=CONFIG"]))
@example(("rate-study", {"selection": {"derivative_order": 150}}, ["--jobs=1"]))
@given(_ARGV_CASES)
def test_every_argv_of_the_other_commands_runs_or_exits_naming_its_input(case):
    command, data, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        config = f"{tmp}/config.json"
        cfg = copy.deepcopy(_FUZZ_BASE)
        for section, keys in (data if command == "rate-study" else {}).items():
            cfg[section].update(keys)
        with open(config, "w") as fh:
            fh.write(json.dumps(cfg))
        source = config
        if command in ("select", "estimate"):
            source = f"{tmp}/sample.csv"
            with open(source, "w") as fh:
                fh.write("y,z,w\n" + "".join(f"{y!r},{z!r},{w!r}\n" for y, z, w in data))
        out = f"{tmp}/out.{'csv' if command == 'simulate' else 'json'}"
        argv = [command, source, *(f.replace("CONFIG", config) for f in flags), f"--out={out}"]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    lines = err.getvalue().splitlines()
    if code != 0:
        assert len(lines) == 1 and lines[0].startswith(("npiv: error: ", "npiv: i/o error: ")), (argv, lines)
        assert re.search(_ARGV_NAMES[command], lines[0]), (argv, lines)
    elif command == "simulate":  # the echo
        assert len(lines) == 1, (argv, lines)
        _strict_json(lines[0])
    else:  # select may warn that the operator looks far from diagonal
        assert lines == [] or (command == "select" and len(lines) == 1 and lines[0].startswith("warning: ")), \
            (argv, lines)


def test_oracle_with_decaying_operator_weights_runs_at_n_1e8(capsys):
    # poly:1 stops the walk after a few dozen weights, so n = 10**8 stays within the array bound
    argv = ["oracle", "--smoothness-weights", "sobolev:2", "--operator-weights", "poly:1", "--n-grid", "100000000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("100000000,")


_EXTREME_ORACLE = [
    # n * l_j / link overflows, and 2016 * link / l_1 underflows with the small constant
    (["--operator-weights", "custom:1e308,1e308"], "2,2,0.0625,2,2,2e-308"),
    (["--operator-weights", "custom:1e308,1e308", "--link-constant", "1e-300"], "2,2,0.0625,2,2,2e-308"),
    # 2016 * link / l_1 overflows
    (["--operator-weights", "custom:1e-308,1e-308"], "2,1,5e+307,1,1,inf"),
    # inf / inf weight ratios from j = 3 on, in the bias and then in the variance, never choose k
    (["--risk-weights", "sobolev:400", "--smoothness-weights", "sobolev:400", "--operator-weights", "poly:1",
      "--n-grid", "100"], "100,1,1.0,1,1,1.0"),
    (["--risk-weights", "sobolev:400", "--operator-weights", "sobolev:400", "--n-grid", "100"],
     "100,1,1.0,2,2,1.0"),
    # n * l_2 / (288 * link) is inf / inf, which admits no j
    (["--operator-weights", "sobolev:538", "--link-constant", "1.7976931348623157e308"], "2,2,0.5,1,1,2.0"),
    # 2 * w_2 passes the doubles, so j = 2 is not estimable, with l_2 = 1e308 or inf
    (["--risk-weights", "custom:1e308,1e308", "--operator-weights", "custom:1e308,1e308", "--n-grid", "100"],
     "100,2,6.25e+306,2,1,2.0"),
    (["--risk-weights", "custom:5e-324,1e308", "--operator-weights", "sobolev:512"], "2,1,5e-324,2,1,5e-324"),
]


@pytest.mark.parametrize("flags, row", _EXTREME_ORACLE)
def test_oracle_at_extreme_magnitudes_runs_warning_free(capsys, flags, row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle", "--smoothness-weights", "sobolev:2", "--n-grid", "2", *flags]) == 0
    assert capsys.readouterr() == ("n,k_best,rate,cutoff,cutoff_lower,effective_dim_at_k\n" + row + "\n", "")


def test_a_json_report_that_would_hold_inf_exits_2_without_output(tmp_path, capsys):
    # the third CSV row above holds inf, which strict JSON cannot
    out = tmp_path / "oracle.json"
    argv = ["oracle", "--smoothness-weights", "sobolev:2", "--n-grid", "2", *_EXTREME_ORACLE[2][0]]
    assert main([*argv, "--format", "json", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("npiv: error: oracle row n=2: effective_dim_at_k is inf, which JSON "
                                       "cannot hold; --format csv writes it\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "flag, kind",
    [
        ("--smoothness-weights", "sobolev"),
        ("--risk-weights", "derivative"),
        ("--operator-weights", "poly"),
        ("--operator-weights", "exp"),
    ],
)
def test_oracle_non_finite_weight_parameter_exits_2(capsys, flag, kind, value):
    # nan passes every sign comparison, so finiteness is checked on its own;
    # the last occurrence of a repeated flag wins
    base = ["oracle", "--smoothness-weights", "sobolev:2", "--operator-weights", "poly:1",
            "--n-grid", "5"]
    assert main(base + [flag, f"{kind}:{value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"npiv: error: bad weight spec '{kind}:{value}': ")
    assert "Traceback" not in captured.err


# -- rate study -----------------------------------------------------------


def _study_config(tmp_path, name="study.json", decay="polynomial", a=1.0, **study):
    """A small study config; ``study`` replaces keys of its study section."""
    return _write_config(
        tmp_path,
        name,
        operator={"decay": decay, "a": a, "truncation": 4},
        selection={"penalty_const": 0.75},
        study={"n_grid": [300, 600], "replications": 6, "seed": 1, **study},
    )


def test_rate_study_small_run(tmp_path, capsys):
    cfg = _study_config(tmp_path)
    out = tmp_path / "study.json"
    assert main(["rate-study", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["regime"] == "fs"
    assert report["slope_axis"] == "log_n"
    assert report["n_grid"] == [300, 600]
    assert len(report["per_n"]) == 2
    for row in report["per_n"]:
        assert row["risk_median"] > 0.0
        assert row["oracle_k"] >= 1
        assert row["oracle_risk_median"] > 0.0
    assert isinstance(report["fitted_slope"], float)
    assert report["theoretical_slope"] == pytest.approx(-4.0 / 7.0)
    csv_lines = (tmp_path / "study.csv").read_text().splitlines()
    assert csv_lines[0].startswith("n,replication,seed,")
    assert len(csv_lines) == 13  # header + 2 sizes x 6 replications
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.csv", "study.json"]


def test_rate_study_exponential_regime(tmp_path, capsys):
    cfg = _study_config(tmp_path, "exp.json", decay="exponential", a=0.5)
    out = tmp_path / "expstudy.json"
    assert main(["rate-study", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["regime"] == "is"
    assert report["slope_axis"] == "log_log_n"
    assert report["theoretical_slope"] == -4.0


def test_rate_study_with_exact_estimates_has_no_slope(tmp_path, capsys):
    # sigma 0 and a constant truth make every risk 0, where a log-log slope is undefined
    cfg = _write_config(tmp_path, structural={"coeffs": [1.0], "smoothness": 2, "radius": 1},
                        noise={"sigma": 0}, study={"n_grid": [100, 200], "replications": 3})
    out = tmp_path / "study.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rate-study", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert [row["risk_median"] for row in report["per_n"]] == [0.0, 0.0]
    assert report["fitted_slope"] is None


def test_rate_study_whose_oracle_weights_overflow_together_runs_warning_free(tmp_path, capsys):
    # derivative order 99 against smoothness 100: w_j / g_j is inf / inf from j = 37 on
    cfg = _write_config(tmp_path, structural={"smoothness": 100, "truncation": 3}, operator={"truncation": 5},
                        selection={"derivative_order": 99}, study={"n_grid": [100, 200], "replications": 2})
    out = tmp_path / "study.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rate-study", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [row["oracle_k"] for row in json.loads(out.read_text())["per_n"]] == [1, 1]


@pytest.mark.parametrize("command", [["simulate", "--n", "10"], ["rate-study"]])
def test_vanishing_snr_names_the_noise_config(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, noise={"snr": 5e-324}, study={"n_grid": [20, 40]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command[0], cfg, "--out", str(tmp_path / "out"), *command[1:]]) == 2
    assert capsys.readouterr().err == (
        "npiv: error: bad noise config: signal-to-noise ratio 5e-324 is too small: the noise level overflows\n"
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("noise", [{"sigma": 1e308}, {"snr": 1e-309}])
@pytest.mark.parametrize("command", [["simulate", "--n", "1000"], ["rate-study"], ["rate-study", "--jobs", "2"]])
def test_a_noise_level_that_overflows_the_response_names_the_noise_config(tmp_path, capsys, command, noise):
    # the noise level is finite, but its draws pass the doubles
    cfg = _write_config(tmp_path, noise=noise, study={"n_grid": [50, 100]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command[0], cfg, "--out", str(tmp_path / "out"), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("npiv: error: bad noise config: noise level sigma=")
    assert err.endswith(" overflows the response y\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_study_reads_the_selection_cap_once_per_block(tmp_path, capsys, monkeypatch):
    caps, blocks = [], []
    real_block = cli._study_block
    monkeypatch.setattr(selection, "dimension_cap", lambda w, n: caps.append(n) or dimension_cap(w, n))
    monkeypatch.setattr(cli, "_study_block", lambda block: blocks.append(block[6]) or real_block(block))
    argv = ["rate-study", _study_config(tmp_path, n_grid=[50, 100], replications=8), "--jobs", "1"]
    assert main(argv + ["--out", str(tmp_path / "study.json")]) == 0
    capsys.readouterr()
    assert caps == blocks and len(blocks) < 16


@pytest.mark.parametrize("jobs, cpus, grid, workers", [
    (10**30, 64, "20,40", 2),  # one block per n
    (3, 64, "20,40,60,80,100", 3),
    (5000, 1, "20,40", None),  # None: the blocks run in this process
    (5000, None, "20,40", None),  # os.cpu_count() cannot tell
])
def test_rate_study_workers_are_capped_by_blocks_and_cpus(tmp_path, capsys, monkeypatch, jobs, cpus, grid, workers):
    argv = ["rate-study", _study_config(tmp_path, n_grid=[int(n) for n in grid.split(",")], replications=1)]
    assert main(argv + ["--out", str(tmp_path / "serial.json")]) == 0
    started = []

    class Pool:
        """Runs the blocks in this process and records the pool size asked for."""

        def __init__(self, max_workers, **options):
            started.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, **options):
            pass

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert main(argv + ["--jobs", str(jobs), "--out", str(tmp_path / "pooled.json")]) == 0
    capsys.readouterr()
    assert started == ([] if workers is None else [workers])
    for ext in ("json", "csv"):
        assert (tmp_path / f"serial.{ext}").read_bytes() == (tmp_path / f"pooled.{ext}").read_bytes()


def test_rate_study_deterministic_across_jobs(tmp_path, capsys):
    cfg = _study_config(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["rate-study", cfg, "--out", str(a), "--jobs", "1"]) == 0
    assert main(["rate-study", cfg, "--out", str(b), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.integers(20, 200), min_size=1, max_size=3, unique=True),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.sampled_from([("polynomial", 1.0), ("exponential", 0.5)]),
)
def test_rate_study_bytes_do_not_depend_on_jobs(grid, reps, seed, operator):
    decay, a = operator
    cfg = copy.deepcopy(_FUZZ_BASE)
    cfg["operator"].update(decay=decay, a=a)
    cfg["study"].update(n_grid=sorted(grid), replications=reps, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        config = f"{tmp}/config.json"
        with open(config, "w") as fh:
            fh.write(json.dumps(cfg))
        for jobs in ("1", "2"):
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(["rate-study", config, "--out", f"{tmp}/jobs{jobs}.json", "--jobs", jobs]) == 0
        for ext in ("json", "csv"):
            with open(f"{tmp}/jobs1.{ext}", "rb") as one, open(f"{tmp}/jobs2.{ext}", "rb") as two:
                assert one.read() == two.read()


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from([2, 3, 20, 300]),
    st.sampled_from([("polynomial", 1.0), ("exponential", 0.5)]),
    st.integers(0, 2),
    st.sampled_from([1, 2, 4, 9]),
    st.integers(0, 1000),
)
# the oracle-k fit is the zero fallback in rows 1 and 2 of five and not in the others
@example(5, 20, ("polynomial", 1.0), 0, 2, 0)
def test_study_block_rows_equal_rows_built_one_sample_at_a_time(reps, n, operator, order, oracle_k, master):
    phi = make_structural(2.0, 1.0, truncation=30)
    op = make_operator(*operator, truncation=4)
    weights = WeightSequence.derivative(order)
    expected, fallbacks = [], []
    for rep in range(reps):
        seed = task_seed(master, n, rep)
        sample = generate_sample(phi, op, 0.3, n, seed)
        trace = penalized_select(sample, weights, 0.75)
        fixed = diagonal_estimate(sample, oracle_k)
        fallbacks.append(fixed.thresholded)
        expected.append(StudyRow(
            n, rep, seed, trace.k_selected, trace.cutoff, int(trace.estimate.thresholded),
            risks_weighted([trace.estimate.coeffs], phi.coeffs, weights)[0], oracle_k,
            risks_weighted([fixed.coeffs], phi.coeffs, weights)[0],
        ))
    rows = cli._study_block((phi, op, 0.3, weights, 0.75, oracle_k, n, range(reps), master))
    assert rows == expected
    assert all(type(v) in (int, float) for row in rows for v in row)
    if (reps, n, operator, order, oracle_k, master) == (5, 20, ("polynomial", 1.0), 0, 2, 0):
        assert fallbacks == [False, True, True, False, False]


def _assert_stats_equal_the_loop(report, rows):
    # bit for bit: each statistic of each n, compared as float.hex
    expected = study_stats_loop(rows, report["n_grid"], report["replications"])
    assert len(report["per_n"]) == len(expected)
    for row, ref in zip(report["per_n"], expected):
        assert {key: row[key].hex() for key in ref} == {key: v.hex() for key, v in ref.items()}


@pytest.mark.parametrize("seed", range(12))
def test_study_statistics_along_the_table_equal_the_per_n_loop(monkeypatch, seed):
    # random rows: zeros and magnitudes from 1e-300 to 1e300, up to 300 replications
    rng = np.random.default_rng(seed)
    grid = sorted(rng.choice(np.arange(2, 80), size=int(rng.integers(1, 5)), replace=False).tolist())
    reps = int(rng.integers(1, 301))

    def random_block(block):
        n, cells = block[6], block[7]
        risks = 10.0 ** rng.uniform(-300.0, 300.0, (len(cells), 2))
        risks[rng.random(risks.shape) < 0.2] = 0.0
        return [StudyRow(n, rep, 0, int(rng.integers(1, 40)), 1, 0, float(r), 1, float(f))
                for rep, (r, f) in zip(cells, risks)]

    monkeypatch.setattr(cli, "_study_block", random_block)
    phi = make_structural(2.0, 1.0, truncation=30)
    op = make_operator("polynomial", 1.0, truncation=4)
    _assert_stats_equal_the_loop(*run_rate_study(phi, op, 0.3, 0, 0.75, grid, reps, 1, 200, 1))


@pytest.mark.parametrize("jobs", [1, 2])
def test_study_statistics_of_a_real_study_equal_the_per_n_loop(jobs):
    phi = make_structural(2.0, 1.0, truncation=30)
    op = make_operator("polynomial", 1.0, truncation=4)
    _assert_stats_equal_the_loop(*run_rate_study(phi, op, 0.3, 1, 0.75, [50, 100, 200], 7, 2, 200, jobs))


def test_a_serial_study_builds_its_risk_weights_once(monkeypatch):
    built, blocks = [], []
    derivative, study_block = WeightSequence.derivative, cli._study_block
    monkeypatch.setattr(WeightSequence, "derivative", staticmethod(lambda s: built.append(s) or derivative(s)))
    monkeypatch.setattr(cli, "_study_block", lambda block: blocks.append(block) or study_block(block))
    monkeypatch.setattr(cli, "_BLOCK_PROPOSALS", 1)  # a block per replication
    phi = make_structural(2.0, 1.0, truncation=30)
    run_rate_study(phi, make_operator("polynomial", 1.0, truncation=4), 0.3, 1, 0.75, [20, 40], 5, 1, 200, 1)
    assert len(blocks) == 10 and built == [1]
    # index 3 of each block carries the run's weights, and index 5 still the oracle k
    assert all(block[3] is blocks[0][3] for block in blocks) and blocks[0][3] == derivative(1)
    sobolev, poly = WeightSequence.sobolev(2.0), WeightSequence.polynomial_decay(1.0)
    oracle_k = [oracle_dimension(derivative(1), sobolev, poly, n, n)[0] for n in (20, 40)]
    assert [block[5] for block in blocks] == [k for k in oracle_k for _ in range(5)]


def test_rate_study_bytes_do_not_depend_on_blocks(tmp_path, capsys, monkeypatch):
    # one replication per block (the layout of one task per cell) and the default
    # blocks, each at --jobs 1 and 2, write the same bytes; n = 1 and 2 are in the grid
    cfg = _study_config(tmp_path, n_grid=[1, 2, 3, 50, 300], replications=70, seed=4)
    sizes = []
    real_block = cli._study_block

    def recording_block(block):
        sizes.append((block[6], len(block[7])))
        return real_block(block)

    outputs = []
    for proposals in (1, cli._BLOCK_PROPOSALS):
        monkeypatch.setattr(cli, "_BLOCK_PROPOSALS", proposals)
        for jobs in ("1", "2"):
            out = tmp_path / f"p{proposals}j{jobs}.json"
            if jobs == "1":
                monkeypatch.setattr(cli, "_study_block", recording_block)
            assert main(["rate-study", cfg, "--out", str(out), "--jobs", jobs]) == 0
            monkeypatch.setattr(cli, "_study_block", real_block)
            outputs.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
    capsys.readouterr()
    assert all(o == outputs[0] for o in outputs)
    per_cell, default = sizes[:350], sizes[350:]
    assert {size for _, size in per_cell} == {1}
    # 1,024 proposals a replication at these n: 70 replications make two blocks of 35
    assert [size for _, size in default] == [35] * 10


def _assert_close_report(kernel, loop, rtol):
    """Integers, booleans and strings equal; floats within ``rtol``."""
    if isinstance(kernel, dict):
        assert kernel.keys() == loop.keys()
        for key in kernel:
            _assert_close_report(kernel[key], loop[key], rtol)
    elif isinstance(kernel, list):
        assert len(kernel) == len(loop)
        for a, b in zip(kernel, loop):
            _assert_close_report(a, b, rtol)
    elif isinstance(kernel, float):
        assert isinstance(loop, float)
        assert_allclose(kernel, loop, rtol=rtol, atol=0.0)
    else:
        assert type(kernel) is type(loop) and kernel == loop


@pytest.mark.parametrize("decay, a", [("polynomial", 1.0), ("exponential", 0.5)])
def test_rate_study_bytes_match_column_loop_basis(tmp_path, capsys, monkeypatch, decay, a):
    # The basis kernel is within trig_error_bound of the column-at-a-time
    # reference wherever a design is built, which is only in the moments.
    # The response and the sampler's density are Horner sums that build no
    # design, so they are the same on both sides.  The integer columns must
    # not move; the floats moved by at most 7.4e-14 relative when measured,
    # and rtol 1e-12 leaves a margin of 13.
    cfg = _study_config(tmp_path, decay=decay, a=a)
    assert main(["rate-study", cfg, "--out", str(tmp_path / "kernel.json")]) == 0
    bound = [
        mod for name, mod in sys.modules.items()
        if name.startswith("npiv.") and hasattr(mod, "trig_columns")
    ]
    assert "npiv.basis" in {mod.__name__ for mod in bound}
    for mod in bound:
        monkeypatch.setattr(
            mod, "trig_columns", lambda x, lo, hi: trig_columns_loop(x, np.arange(lo, hi + 1))
        )
    assert main(["rate-study", cfg, "--out", str(tmp_path / "loop.json")]) == 0
    capsys.readouterr()
    _assert_close_report(
        json.loads((tmp_path / "kernel.json").read_text()),
        json.loads((tmp_path / "loop.json").read_text()),
        rtol=1e-12,
    )
    kernel_rows = [line.split(",") for line in (tmp_path / "kernel.csv").read_text().splitlines()]
    loop_rows = [line.split(",") for line in (tmp_path / "loop.csv").read_text().splitlines()]
    assert kernel_rows[0] == loop_rows[0]
    floats = [kernel_rows[0].index(name) for name in ("risk", "oracle_risk")]
    assert len(kernel_rows) == len(loop_rows) == 13
    for row, ref in zip(kernel_rows[1:], loop_rows[1:]):
        assert [v for i, v in enumerate(row) if i not in floats] == [
            v for i, v in enumerate(ref) if i not in floats
        ]
        assert_allclose([float(row[i]) for i in floats], [float(ref[i]) for i in floats], rtol=1e-12, atol=0.0)


def test_rate_study_oracle_columns_match_library(tmp_path, capsys):
    cfg = _study_config(tmp_path)
    out = tmp_path / "s.json"
    assert main(["rate-study", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    sob2 = WeightSequence.sobolev(2.0)
    poly1 = WeightSequence.polynomial_decay(1.0)
    for row in report["per_n"]:
        k_best, rate = oracle_dimension(CONST, sob2, poly1, row["n"], min(row["n"], 200))
        assert row["oracle_k"] == k_best
        assert row["oracle_rate"] == rate


def test_rate_study_rows_are_named_in_csv_order(tmp_path, capsys, monkeypatch):
    # the fields are the columns of study.csv, in order, so positional reads of
    # a row (n first, cutoff fifth) stay valid and a row printed is its line
    assert StudyRow._fields[:5] == ("n", "replication", "seed", "k_selected", "cutoff")
    phi = make_structural(2.0, 1.0, truncation=30)
    op = make_operator("polynomial", 1.0, truncation=4)
    _, rows = run_rate_study(phi, op, 0.3, 0, 0.75, [300], 2, 1, 200, 1)
    assert [(r.n, r.replication) for r in rows] == [(300, 0), (300, 1)]
    assert all(isinstance(r, StudyRow) for r in rows)

    written = []

    def recording_study(*args, **kwargs):
        report, rows = run_rate_study(*args, **kwargs)
        written.extend(rows)
        return report, rows

    monkeypatch.setattr(cli, "run_rate_study", recording_study)
    out = tmp_path / "study.json"
    assert main(["rate-study", _study_config(tmp_path, replications=2), "--out", str(out)]) == 0
    capsys.readouterr()
    header, *lines = out.with_suffix(".csv").read_text().splitlines()
    assert header.split(",") == list(StudyRow._fields)
    assert len(lines) == len(written) == 4
    assert all(type(v) in (int, float) for row in written for v in row)
    assert lines[3] == ",".join(str(v) for v in written[3])
    assert lines[3].split(",")[7] == str(json.loads(out.read_text())["per_n"][1]["oracle_k"])


def test_rate_study_exponential_grid_from_n_1_exits_2_before_sampling(tmp_path, capfd, monkeypatch):
    # the is regime fits its slope on log log n, which has no value at n = 1
    def no_draws(*args, **kwargs):
        raise AssertionError("a study sample was drawn")

    monkeypatch.setattr(cli, "generate_samples", no_draws)
    out = str(tmp_path / "o.json")
    for grid in ([1, 50], [1]):
        cfg = _study_config(tmp_path, "exp.json", decay="exponential", a=0.5, n_grid=grid)
        assert main(["rate-study", cfg, "--out", out]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("npiv: error: study.n_grid must start at n >= 2 under exponential decay")
    assert not (tmp_path / "o.json").exists()
    with pytest.raises(ValueError, match="^study.n_grid must start at n >= 2 under exponential decay"):
        run_rate_study(make_structural(2.0, 1.0, truncation=8), make_operator("exponential", 0.5, truncation=4),
                       0.3, 0, 0.75, [1, 50], 2, 1, 200, 1)


@pytest.mark.parametrize("flags, structural, line", [
    pytest.param(["--n-grid", "50"], None, "npiv: error: unrecognized arguments: --n-grid 50", id="--n-grid"),
    pytest.param(["--replications", "2"], None, "npiv: error: unrecognized arguments: --replications 2",
                 id="--replications"),
    pytest.param(["--seed", "3"], None, "npiv: error: unrecognized arguments: --seed 3", id="--seed"),
    pytest.param([], {"profile": "power_law", "truncation": 30},
                 "npiv: error: config section 'structural' has unknown keys: profile", id="structural.profile"),
])
def test_removed_rate_study_inputs_exit_2(tmp_path, capsys, flags, structural, line):
    # the study's grid, replications and seed come from its config alone, and a truth is
    # custom exactly when it has coeffs
    sections = {} if structural is None else {"structural": structural}
    cfg = _write_config(tmp_path, study={"n_grid": [50], "replications": 2}, **sections)
    out = tmp_path / "study.json"
    assert main(["rate-study", cfg, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    # argparse prints its usage line before the error line
    assert err.endswith(line + "\n") and [x for x in err.splitlines() if x.startswith("npiv:")] == [line]
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_a_custom_truth_reads_no_truncation(tmp_path, capsys):
    # coeffs set the truth's length, so a truncation beside them is neither read nor size-checked
    truth = {"smoothness": 1.0, "radius": 2.0, "coeffs": [1.0, 0.5]}
    samples = []
    for extra in ({"truncation": 1e18}, {}):
        cfg = _write_config(tmp_path, structural={**truth, **extra})
        out = tmp_path / f"s{len(extra)}.csv"
        assert main(["simulate", cfg, "--out", str(out), "--n", "20"]) == 0
        assert json.loads(capsys.readouterr().err)["structural"]["truncation"] == 2
        samples.append(out.read_bytes())
    assert samples[0] == samples[1]


def _rows_without_draws(block):
    """``_study_block``'s rows, with stand-in selections and risks of the types a drawn block returns."""
    n, reps, master = block[6:9]
    return [cli._study_worker(block, rep, task_seed(master, n, rep), np.int64(3), np.int64(5),
                              np.float64(rep + 0.5), np.float64(rep + 0.25)) for rep in reps]


@pytest.mark.parametrize("draws, replications", [(True, (64, 320)), (False, (1000, 5000))],
                         ids=["drawn", "stand-in"])
def test_a_study_holds_at_most_its_bound_per_cell(monkeypatch, draws, replications):
    # the bytes per (n, replication) cell at which study.replications is bounded.  Drawn
    # blocks of 64 replications hold the same arrays at any count; the stand-in rows reach
    # the counts where the rows and the order check outweigh one block's arrays.
    if not draws:
        monkeypatch.setattr(cli, "_study_block", _rows_without_draws)
    phi = make_structural(2.0, 1.0, truncation=30)
    op = make_operator("polynomial", 1.0, truncation=4)
    run_rate_study(phi, op, 0.3, 0, 0.75, [20, 40], 2, 1, 200, 1)  # warm the caches first
    held, peaks = [], []
    for reps in replications:
        tracemalloc.start()
        try:
            study = run_rate_study(phi, op, 0.3, 0, 0.75, [20, 40], reps, 1, 200, 1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held.append(current)
        peaks.append(peak)
        del study
    cells = 2 * (replications[1] - replications[0])
    assert 0 < (held[1] - held[0]) / cells <= cli._CELL_BYTES
    assert (peaks[1] - peaks[0]) / cells <= cli._CELL_BYTES


def test_a_negative_study_risk_is_an_internal_error(tmp_path, capsys, monkeypatch):
    study_block = cli._study_block

    def negative_first_risk(block):
        rows = study_block(block)
        return [rows[0]._replace(risk=-1.0), *rows[1:]]

    monkeypatch.setattr(cli, "_study_block", negative_first_risk)
    out = tmp_path / "o.json"
    assert main(["rate-study", _study_config(tmp_path, replications=2), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "npiv: internal error: RuntimeError: negative risk in study results\n"
    assert not out.exists()


def test_rate_study_usage_errors(tmp_path, capsys):
    nostudy = _write_config(tmp_path, "nostudy.json")
    out = str(tmp_path / "o.json")
    assert main(["rate-study", nostudy, "--out", out]) == 2

    cfg = _study_config(tmp_path)
    assert main(["rate-study", cfg, "--out", out, "--jobs", "0"]) == 2
    capsys.readouterr()
    assert main(["rate-study", cfg, "--out", out, "--emit-gnuplot"]) == 2
    assert "unrecognized arguments: --emit-gnuplot" in capsys.readouterr().err

    badstudy = _write_config(tmp_path, "badstudy.json", study={"grid": [100]})
    assert main(["rate-study", badstudy, "--out", out]) == 2
    capsys.readouterr()

    for grid, message in (
        (["300"], 'study.n_grid must list integers >= 1, got ["300"]'),
        ([300.0, 600], "study.n_grid must list integers >= 1"),
        ([600, 300], "study.n_grid must be strictly increasing"),
        ([], "study.n_grid is empty"),
    ):
        badgrid = _write_config(tmp_path, "badgrid.json", study={"n_grid": grid})
        assert main(["rate-study", badgrid, "--out", out]) == 2
        assert message in capsys.readouterr().err
    nokmax = _write_config(tmp_path, "kmax.json", study={"n_grid": [20, 40], "k_max": 0})
    assert main(["rate-study", nokmax, "--out", out]) == 2
    assert "study.k_max must be >= 1, got 0" in capsys.readouterr().err

    # risks beyond the double range, and responses past 2**400, are usage errors, not internal ones
    for sections, message in (
        ({"selection": {"derivative_order": 538}}, "the risk at n=20 overflows"),
        # each risk, about 1.5e308, is finite, and their mean's sum is not
        ({"structural": {"coeffs": [0, 3800], "smoothness": 1, "radius": 1e10}, "noise": {"sigma": 0.1},
          "selection": {"derivative_order": 500}}, "the risk at n=20 overflows"),
        ({"noise": {"snr": 1e-268}}, "bad noise config: noise level sigma="),
        ({"structural": {"radius": 1e300, "truncation": 30}}, "bad structural config: coefficients too large"),
    ):
        study = {"n_grid": [20, 40], "replications": 2}
        huge = _write_config(tmp_path, "huge.json", study=study, **sections)
        assert main(["rate-study", huge, "--out", out]) == 2
        assert message in capsys.readouterr().err

    assert not (tmp_path / "o.json").exists()


# -- fresh interpreter ----------------------------------------------------

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli(*args, timeout=60, env=()):
    """Run ``python -m npiv.cli ARGS`` with RuntimeWarnings as errors and ``env`` set; returns its stdout."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning", **dict(env)}
    done = subprocess.run([sys.executable, "-m", "npiv.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_sample_csv_reads_as_utf8_under_the_c_locale(tmp_path):
    # a byte-order mark, as spreadsheet exports write it, and the Arabic-Indic digit one
    rows = [f"{j / 20},{(j + 0.5) / 20},{(j + 0.5) / 20}" for j in range(20)]
    path = tmp_path / "s.csv"
    path.write_bytes("\n".join(["\ufeffy,z,w", "\u0661,0.5,0.5", *rows, ""]).encode())
    utf8 = _run_cli("select", path, env={"PYTHONUTF8": "1"})
    assert json.loads(utf8)["n"] == 21
    assert _run_cli("select", path, env={"LC_ALL": "C", "PYTHONUTF8": "0"}) == utf8


def test_oracle_row_at_twenty_million_is_exact_within_20_s():
    # the known-weight cutoffs read a few dozen weights here, not 2e7 of them
    out = _run_cli("oracle", "--smoothness-weights", "sobolev:2", "--operator-weights", "poly:1",
                   "--n-grid", "20000000", timeout=20)
    assert out.splitlines()[-1] == "20000000,13,4.095e-05,32,32,4161.808917758912"


def test_simulate_select_estimate_at_operator_truncation_64(tmp_path):
    cfg = _write_config(tmp_path, "t64.json", structural={"smoothness": 2.0, "radius": 1.0},
                        operator={"decay": "polynomial", "a": 1.0, "truncation": 64})
    for n in (1, 5000):
        csv_path = tmp_path / f"t64_{n}.csv"
        _run_cli("simulate", cfg, "--out", csv_path, "--n", n, "--seed", 0)
        assert csv_path.read_bytes().count(b"\n") == n + 1
    sample = tmp_path / "t64_5000.csv"
    _run_cli("select", sample, "--penalty-const", 0.75, "--out", tmp_path / "select.json")
    truth = tmp_path / "truth.json"
    truth.write_text('{"structural": {"smoothness": 2.0, "radius": 1.0}}')
    _run_cli("estimate", sample, "--k", 12, "--truth", truth, "--out", tmp_path / "estimate.json")


def test_oracle_weight_forms_run_warning_free():
    # constant, Sobolev and polynomial weights, a custom risk table, and a custom
    # operator table as long as --k-max
    base = ("oracle", "--smoothness-weights", "sobolev:2", "--n-grid", 100)
    for flags in (
        ("--operator-weights", "poly:1"),
        ("--risk-weights", "custom:1,2,3", "--operator-weights", "poly:1"),
        ("--operator-weights", "custom:1,0.5,0.3", "--k-max", 3),
    ):
        header, row = _run_cli(*base, *flags).splitlines()
        assert header == "n,k_best,rate,cutoff,cutoff_lower,effective_dim_at_k"
        assert row.startswith("100,")
    # magnitudes at the ends of the doubles
    flags, row = _EXTREME_ORACLE[1]
    assert _run_cli("oracle", "--smoothness-weights", "sobolev:2", "--n-grid", 2, *flags).splitlines()[-1] == row


def test_rate_study_bytes_at_operator_truncation_64_do_not_depend_on_jobs(tmp_path):
    # at n = 400 a block holds 40 samples, whose shared moment store fills in two groups of points
    cfg = _write_config(tmp_path, "t64.json", structural={"smoothness": 2.0, "radius": 1.0},
                        operator={"decay": "polynomial", "a": 1.0, "truncation": 64},
                        study={"n_grid": [200, 400], "replications": 40})
    for jobs in (1, 2):
        _run_cli("rate-study", cfg, "--jobs", jobs, "--out", tmp_path / f"study{jobs}.json")
    for ext in ("json", "csv"):
        one, two = ((tmp_path / f"study{jobs}.{ext}").read_bytes() for jobs in (1, 2))
        assert one and one == two


def _children(pid: int) -> list[int]:
    """Pids of the live processes whose parent is ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        with contextlib.suppress(OSError):
            with open(f"/proc/{entry}/stat") as fh:
                state, ppid = fh.read().rpartition(")")[2].split()[:2]
            if entry.isdigit() and int(ppid) == pid and state != "Z":
                found.append(int(entry))
    return found


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pooled study needs 2 CPUs")
def test_sigterm_to_a_pooled_rate_study_exits_143_and_leaves_no_worker(tmp_path):
    # 4,000 replications run for seconds: the signal comes long before the study ends
    cfg = _write_config(tmp_path, study={"n_grid": [2000, 4000], "replications": 2000})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen([sys.executable, "-m", "npiv.cli", "rate-study", str(cfg), "--jobs", "2",
                             "--out", str(tmp_path / "study.json")], env=env, stderr=subprocess.PIPE)
    workers = []
    try:
        deadline = time.monotonic() + 2
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
            workers = _children(proc.pid)
        assert len(workers) == 2 and proc.poll() is None
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=2) == 128 + signal.SIGTERM
        assert not any(map(_alive, workers))  # before reading stderr, which a live worker holds open
        assert proc.stderr.read() == b""
    finally:
        for pid in [proc.pid, *workers]:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.wait()
        proc.stderr.close()
