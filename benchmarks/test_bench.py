"""Tests of the benchmark itself, on reduced workload sizes.

Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py
"""

import copy
import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3
COUNTS = ("basis.values", "simulate.proposals", "selection.scan_entries", "cli.tasks")


@pytest.fixture(scope="module")
def npiv():
    return run.load_npiv()


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


@pytest.fixture(scope="module")
def traced_twice(npiv):
    return {name: [run.run(npiv, spec, SEED, 0.1, 1)[0] for _ in range(2)] for name, spec in wl.SMOKE.items()}


def _check_result(result, units):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


@pytest.mark.parametrize("name", sorted(wl.SMOKE))
def test_smoke_run_emits_every_metric(npiv, declared, traced_twice, name):
    result, detail = run.run(npiv, wl.SMOKE[name], SEED, 0.1, 0)
    _check_result(result, declared["end_to_end"])
    assert detail["failed_ratio"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    _check_result(traced_twice[name][0], declared["per_layer"])


@pytest.mark.parametrize("name", sorted(wl.SMOKE))
def test_counts_repeat_at_same_seed(traced_twice, name):
    first, second = traced_twice[name]
    for count in COUNTS:
        assert first["metrics"][count]["value"] == second["metrics"][count]["value"], count
        assert first["metrics"][count]["value"] > 0, count


def _first_digest(refs, spec):
    entry = refs[spec.name][str(SEED % wl.SLOTS)]
    return entry[0] if isinstance(entry, list) else entry


@pytest.mark.parametrize("name", sorted(wl.SMOKE))
def test_corrupted_reference_fails(npiv, name):
    spec = wl.SMOKE[name]
    refs = copy.deepcopy(wl.load_refs())
    floats = _first_digest(refs, spec)["floats"]
    key = sorted(floats)[0]
    floats[key][0] = floats[key][0] * 1.001 if floats[key][0] else 1.0
    result, detail = run.run(npiv, spec, SEED, 0.1, 0, refs=refs)
    assert not result["correct"] and result["failed"] > 0
    assert detail["failed_ratio"] > 0
    assert any(key in message for message in detail["failures"])


def test_compare_passes_last_bit_changes_and_fails_real_ones():
    ref = _first_digest(wl.load_refs(), wl.SMOKE["study-fs"])
    nudged = copy.deepcopy(ref)
    for values in nudged["floats"].values():
        values[:] = [v * (1 + 4e-16) for v in values]
    assert wl.compare(nudged, ref) is None
    wrong = copy.deepcopy(ref)
    wrong["ints"]["k_selected_sum"][0] += 1
    assert "k_selected_sum" in wl.compare(wrong, ref)
    assert wl.compare(ref, None) is not None
