"""End-to-end tests of the command-line interface, run in-process."""

import json
import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npiv.basis import WeightSequence
from npiv.cli import main
from npiv.estimator import Sample, load_csv, risk_weighted, write_csv
from npiv.selection import (
    dimension_cutoff,
    dimension_cutoff_lower,
    oracle_dimension,
    penalty_sequences,
)
from npiv.simulate import make_structural

from _reference import rebuild_trace, trig_columns_loop

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
        structural={"profile": "custom", "coeffs": [5.0], "smoothness": 1.0, "radius": 1.0},
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
    ],
)
def test_config_type_errors_name_the_key(tmp_path, capsys, command, sections, path, message):
    _write_config(tmp_path)
    cfg = json.loads((tmp_path / "config.json").read_text())
    for section, values in sections.items():
        cfg[section] = {**cfg.get(section, {}), **values}
    (tmp_path / "typed.json").write_text(json.dumps(cfg))
    argv = [command, str(tmp_path / "typed.json"), "--out", str(tmp_path / "out.json")]
    if command == "simulate":
        argv += ["--n", "10"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path} must be {message}" in err
    assert "Traceback" not in err


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
        json.dumps({"profile": "custom", "coeffs": [1.0, 0.5], "smoothness": 1.0, "radius": 2.0})
    )
    assert main(["estimate", path, "--k", "2", "--mode", "diagonal", "--truth", str(truth_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    from npiv.estimator import diagonal_estimate

    phi = make_structural(1.0, 2.0, profile="custom", coeffs=[1.0, 0.5])
    expected = risk_weighted(diagonal_estimate(s, 2), phi, CONST, 2)
    assert report["risk"] == expected
    assert report["risk_weights"] == "const"


def test_estimate_derivative_coeffs(tmp_path, capsys):
    pts = np.array([0.0, 0.5])
    path = _sample_csv(tmp_path, Sample(np.array([1.0, 3.0]), pts, pts))
    assert main(["estimate", path, "--k", "2", "--mode", "diagonal", "--derivative-order", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    from npiv.estimator import derivative_coeffs, diagonal_estimate

    s = Sample(np.array([1.0, 3.0]), pts, pts)
    expected = derivative_coeffs(diagonal_estimate(s, 2), 1)
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


def test_select_usage_errors(tmp_path, capsys):
    u = np.linspace(0.0, 1.0, 10)
    path = _sample_csv(tmp_path, Sample(np.ones(10), u, u))
    assert main(["select", path, "--penalty-const", "0"]) == 2
    assert main(["select", path, "--risk-weights", "nope"]) == 2
    capsys.readouterr()


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
        assert row["cutoff"] == dimension_cutoff(CONST, poly1, 1.0, n)
        assert row["cutoff_lower"] == dimension_cutoff_lower(CONST, poly1, 1.0, n)
        eff = penalty_sequences(CONST, poly1, k_best).effective_dim[k_best - 1]
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


def test_oracle_usage_errors(capsys):
    base = ["oracle", "--smoothness-weights", "const", "--operator-weights", "const"]
    assert main(base + ["--n-grid", "1000,500"]) == 2
    assert main(base + ["--n-grid", "x"]) == 2
    assert main(base + ["--n-grid", "100", "--link-constant", "0"]) == 2
    capsys.readouterr()


# -- rate study -----------------------------------------------------------


def _study_config(tmp_path, name="study.json", decay="polynomial", a=1.0):
    return _write_config(
        tmp_path,
        name,
        operator={"decay": decay, "a": a, "truncation": 4},
        selection={"penalty_const": 0.75},
        study={"n_grid": [300, 600], "replications": 6, "seed": 1},
    )


def test_rate_study_small_run(tmp_path, capsys):
    cfg = _study_config(tmp_path)
    out = tmp_path / "study.json"
    assert main(["rate-study", cfg, "--out", str(out), "--emit-gnuplot"]) == 0
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
    assert (tmp_path / "study.gp").exists()


def test_rate_study_exponential_regime(tmp_path, capsys):
    cfg = _study_config(tmp_path, "exp.json", decay="exponential", a=0.5)
    out = tmp_path / "expstudy.json"
    assert main(["rate-study", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["regime"] == "is"
    assert report["slope_axis"] == "log_log_n"
    assert report["theoretical_slope"] == -4.0


def test_rate_study_deterministic_across_jobs(tmp_path, capsys):
    cfg = _study_config(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["rate-study", cfg, "--out", str(a), "--jobs", "1"]) == 0
    assert main(["rate-study", cfg, "--out", str(b), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("decay, a", [("polynomial", 1.0), ("exponential", 0.5)])
def test_rate_study_bytes_match_column_loop_basis(tmp_path, capsys, monkeypatch, decay, a):
    # The blocked basis kernel must reproduce the column-at-a-time reference
    # exactly; both run on this platform's libm, so the check is exact anywhere.
    cfg = _study_config(tmp_path, decay=decay, a=a)
    assert main(["rate-study", cfg, "--out", str(tmp_path / "kernel.json")]) == 0
    bound = [
        mod for name, mod in sys.modules.items()
        if name.startswith("npiv.") and hasattr(mod, "trig_columns")
    ]
    assert "npiv.basis" in {mod.__name__ for mod in bound}
    for mod in bound:
        monkeypatch.setattr(mod, "trig_columns", trig_columns_loop)
    assert main(["rate-study", cfg, "--out", str(tmp_path / "loop.json")]) == 0
    capsys.readouterr()
    for ext in (".json", ".csv"):
        assert (tmp_path / f"kernel{ext}").read_bytes() == (tmp_path / f"loop{ext}").read_bytes()


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


def test_rate_study_usage_errors(tmp_path, capsys):
    nostudy = _write_config(tmp_path, "nostudy.json")
    out = str(tmp_path / "o.json")
    assert main(["rate-study", nostudy, "--out", out]) == 2

    cfg = _study_config(tmp_path)
    assert main(["rate-study", cfg, "--out", out, "--replications", "0"]) == 2
    assert main(["rate-study", cfg, "--out", out, "--jobs", "0"]) == 2
    assert main(["rate-study", cfg, "--out", out, "--n-grid", "600,300"]) == 2
    assert main(["rate-study", cfg, "--out", out, "--seed", "-1"]) == 2

    badstudy = _write_config(tmp_path, "badstudy.json", study={"grid": [100]})
    assert main(["rate-study", badstudy, "--out", out]) == 2
    capsys.readouterr()
