"""Tests of tools/same_outputs.py, the byte-identity check against a parent checkout, at smoke size."""

import importlib.util
import os
import shutil

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("same_outputs", os.path.join(_ROOT, "tools", "same_outputs.py"))
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_the_working_tree_matches_itself(capsys):
    assert same_outputs.main(["--parent-dir", _ROOT, "--smoke"]) == 0
    assert capsys.readouterr().out.startswith("SAME: ")


def test_a_last_bit_nudge_is_found_and_named(tmp_path, capsys):
    # sqrt(2) one ulp up moves only last bits, which the benchmark's tolerant
    # references accept, and every design entry with it
    parent = tmp_path / "parent"
    shutil.copytree(os.path.join(_ROOT, "src"), parent / "src", ignore=shutil.ignore_patterns("__pycache__"))
    basis = parent / "src" / "npiv" / "basis.py"
    text = basis.read_text()
    assert text.count("SQRT2 = math.sqrt(2.0)\n") == 1
    basis.write_text(text.replace("SQRT2 = math.sqrt(2.0)\n", "SQRT2 = math.nextafter(math.sqrt(2.0), 2.0)\n"))
    assert same_outputs.main(["--parent-dir", str(parent), "--smoke"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIFFERENT: cli-pipeline/slot0/request00/")
    assert "line " in out and "parent: " in out and "change: " in out


def test_a_wrong_derivative_turn_is_found_and_named(tmp_path, capsys):
    # turning each frequency pair the other way changes only derivative outputs,
    # which no benchmark operation writes
    parent = tmp_path / "parent"
    shutil.copytree(os.path.join(_ROOT, "src"), parent / "src", ignore=shutil.ignore_patterns("__pycache__"))
    estimator = parent / "src" / "npiv" / "estimator.py"
    text = estimator.read_text()
    turns = "((a, b), (b, -a), (-a, -b), (-b, a))"
    assert text.count(turns) == 1
    estimator.write_text(text.replace(turns, "((a, b), (-b, a), (-a, -b), (b, -a))"))
    assert same_outputs.main(["--parent-dir", str(parent), "--smoke"]) == 1
    assert capsys.readouterr().out.startswith("DIFFERENT: estimate-derivative/order1.json, line ")


def test_a_changed_select_default_is_found_and_named(tmp_path, capsys):
    # every benchmark request passes --penalty-const, so only the default's own outputs move
    parent = tmp_path / "parent"
    shutil.copytree(os.path.join(_ROOT, "src"), parent / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = parent / "src" / "npiv" / "cli.py"
    text = cli.read_text()
    default = '"penalty_const": ("number", 540.0, "> 0")'
    assert text.count(default) == 1
    cli.write_text(text.replace(default, default.replace("540.0", "541.0")))
    assert same_outputs.main(["--parent-dir", str(parent), "--smoke"]) == 1
    assert capsys.readouterr().out.startswith("DIFFERENT: select-default/const.json, line ")


def test_first_difference_names_the_file_and_line(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        (side / "a").mkdir(parents=True)
        (side / "a" / "same.txt").write_text("x\ny\n")
    (parent / "a" / "b.txt").write_text("1\n2\n3\n")
    (change / "a" / "b.txt").write_text("1\n2\n4\n")
    assert same_outputs.first_difference(parent, change).startswith(os.path.join("a", "b.txt") + ", line 3:")
    (change / "a" / "b.txt").write_text("1\n2\n3\n")
    assert same_outputs.first_difference(parent, change) is None
    (change / "a" / "b.txt").write_text("1\n2\n3\n4\n")
    assert "line 4:" in same_outputs.first_difference(parent, change)
    (change / "extra.txt").write_text("")
    assert same_outputs.first_difference(parent, change) == "extra.txt: written on one side only"
