#!/usr/bin/env python3
"""npiv benchmark: end-to-end timings with tracing off, per-layer figures from a traced pass.

Usage (from the repository root):

    python3 benchmarks/run.py --workload study-fs --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json and
``--trace 1`` the per-layer metrics, and writes the spans of the traced pass
to ``.bench_out/``.  The last line of standard output is the result object;
the line before it holds the environment record, sample counts and spreads.
npiv is imported from ``src/`` of the checkout this file sits in and driven
only through ``npiv.cli.main`` and, in the traced pass's micro-timings, its
module functions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
MICRO_REPEATS = 5
# Traced pipeline cycles: enough that the requests, not the micro-timings, carry the layer figures.
TRACED_CYCLES = 3
BLAS_ENV = "OPENBLAS_NUM_THREADS"

sys.path.insert(0, BENCH_DIR)

import workloads as wl  # noqa: E402


# -- environment ----------------------------------------------------------


def pin_blas_threads() -> bool:
    """Pin OpenBLAS to one thread per process unless the caller chose a count.

    With ``--jobs 2`` and default OpenBLAS threads, two cores would run four
    threads.  Must run before numpy is imported.  Returns whether this
    benchmark did the pinning.
    """
    if BLAS_ENV in os.environ:
        return False
    os.environ[BLAS_ENV] = "1"
    return True


def load_npiv():
    """Import npiv from this checkout's ``src/``, never from anywhere else."""
    sys.path.insert(0, SRC)
    import npiv
    import npiv.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(npiv.__file__))) != SRC:
        raise ImportError(f"npiv was imported from {npiv.__file__}, not from {SRC}")
    return npiv


def _openblas():
    """(config string, thread count) of the OpenBLAS library numpy loaded, if found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config and get_threads:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return get_config().decode(), get_threads()
    return None, None


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    return None


def _src_sha256() -> str:
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "npiv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _cpu_model() -> str | None:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def environment(seed: int, pinned: bool) -> dict:
    import numpy as np

    blas_config, blas_threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config,
        "blas_threads": blas_threads,
        "blas_threads_env": os.environ.get(BLAS_ENV),
        "blas_threads_pinned_by_benchmark": pinned,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


def pool_jobs() -> int:
    """Workers for the ``--jobs 2`` studies, never more than the usable CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


# -- statistics -----------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples beyond it.

    Below 100 samples that percentile falls under p90 (with 11 samples it is
    the minimum), so p90 interpolated between order statistics is reported
    instead; the detail record gives the sample count.
    """
    s = sorted(values)
    if len(s) < 100:
        return 90.0, statistics.quantiles(s, n=10, method="inclusive")[-1] if len(s) > 1 else s[0]
    return 100.0 * (len(s) - 10) / len(s), s[len(s) - 11]


def quartiles(values: list[float]) -> list[float] | None:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{what}: {error}")


# -- set-up ---------------------------------------------------------------


def measure_setup(cli, config_path: str, tally: Tally) -> list[float]:
    """Wall times of fresh interpreters that import npiv.cli and build the workload's specs."""
    cfg = cli.load_config(config_path)
    sigma = cli.sigma_from_config(cfg, cli.structural_from_config(cfg))
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), SRC, config_path]
    walls = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        error = None
        if proc.returncode != 0:
            error = f"exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        else:
            got = json.loads(proc.stdout)["sigma"]
            if abs(got - sigma) > wl.RTOL * abs(sigma):
                error = f"sigma {got!r}, want {sigma!r}"
        tally.record("setup", error)
        # The first run compiles bytecode that every later interpreter reuses.
        if i > 0:
            walls.append(wall)
    return walls


# -- end-to-end pass ------------------------------------------------------


def end_to_end(cli, spec, seed: int, seconds: float, tmp: str, refs: dict) -> tuple[dict, dict, Tally]:
    slot = seed % wl.SLOTS
    tally = Tally()
    walls: list[float] = []
    deadline = None
    i = 0
    if isinstance(spec, wl.Study):
        config_path = wl.write_config(spec, slot, tmp)
        ref = refs.get(spec.name, {}).get(str(slot))
        jobs = pool_jobs()
        units_per_op = spec.cells
        unit = "cells"
        base = os.path.join(tmp, "study")
        # One warm-up study, checked but not timed, then studies until the time is up.
        while deadline is None or time.perf_counter() < deadline:
            out = wl.run_study(cli, spec, config_path, base, jobs)
            tally.record(f"study {i}", out.error or wl.compare(out.digest, ref))
            if deadline is None:
                deadline = time.perf_counter() + seconds
            else:
                walls.append(out.wall_s)
            i += 1
    else:
        paths = wl.pipeline_files(spec, slot, tmp)
        config_path = paths["config"]
        slot_refs = refs.get(spec.name, {}).get(str(slot), [])
        units_per_op = 1
        unit = "requests"
        # One warm-up cycle of the distinct requests, then requests until the time is up.
        while i < spec.distinct or time.perf_counter() < deadline:
            r, n, data_seed = spec.request(slot, i)
            out = wl.run_request(cli, spec, paths, n, data_seed)
            ref = slot_refs[r] if r < len(slot_refs) else None
            tally.record(f"request {i} (n={n})", out.error or wl.compare(out.digest, ref))
            if i == spec.distinct - 1:
                deadline = time.perf_counter() + seconds
            elif i >= spec.distinct:
                walls.append(out.wall_s)
            i += 1
    rss = peak_rss_mb()
    setup = measure_setup(cli, config_path, tally)
    tail_pct, tail_s = tail(walls)
    metrics = {
        "latency_p50_ms": 1e3 * statistics.median(walls),
        "latency_tail_ms": 1e3 * tail_s,
        "throughput_per_s": units_per_op * len(walls) / sum(walls),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup),
    }
    detail = {
        "operation": "rate-study call" if unit == "cells" else "simulate+select+estimate request",
        "throughput_unit": f"{unit} per second",
        "latency_samples": len(walls),
        "latency_tail_percentile": tail_pct,
        "latency_samples_beyond_tail": sum(w > tail_s for w in walls),
        "latency_quartiles_ms": [1e3 * q for q in quartiles(walls) or []],
        "setup_samples": len(setup),
        "setup_quartiles_s": quartiles(setup),
        "jobs": pool_jobs() if unit == "cells" else None,
    }
    return metrics, detail, tally


# -- traced pass ----------------------------------------------------------


def _same_bytes(a: str, b: str) -> str | None:
    for ext in (".json", ".csv"):
        with open(a + ext, "rb") as fa, open(b + ext, "rb") as fb:
            if fa.read() != fb.read():
                return f"{os.path.basename(a)}{ext} and {os.path.basename(b)}{ext} differ"
    return None


def _median_ms(fn, repeats: int = MICRO_REPEATS) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), result


def micro_timings(npiv, seed: int, tmp: str, refs: dict, tally: Tally) -> dict:
    """ROADMAP item 1 layer timings: medians of repeated calls at fixed sizes."""
    import numpy as np

    basis, simulate, estimator = npiv.basis, npiv.simulate, npiv.estimator
    rng = np.random.default_rng(seed)
    out = {}
    for n in (2000, 16000):
        pts = rng.random(n)
        for k in (8, 64, 200):
            out[f"basis.design_ms.n{n}.k{k}"], design = _median_ms(lambda: basis.trig_design(pts, k))
            tally.record(f"trig_design n={n} k={k}", None if design.shape == (n, k) else f"shape {design.shape}")
    op = simulate.make_operator("polynomial", 1.0, truncation=5)
    out["simulate.sample_joint_ms.n16000"], (z, w) = _median_ms(lambda: simulate.sample_joint(op, 16000, seed))
    tally.record("sample_joint n=16000", None if z.size == w.size == 16000 else f"sizes {z.size}, {w.size}")
    phi = simulate.make_structural(2.0, 1.0, truncation=30)
    sample = simulate.generate_sample(phi, op, simulate.noise_sigma_for_snr(phi, 2.0), 16000, seed)
    path = os.path.join(tmp, "micro.csv")
    out["estimator.write_csv_ms.n16000"], _ = _median_ms(lambda: estimator.write_csv(sample, path))
    out["estimator.load_csv_ms.n16000"], back = _median_ms(lambda: estimator.load_csv(path))
    same = all(np.array_equal(getattr(back, c), getattr(sample, c)) for c in ("y", "z", "w"))
    tally.record("write_csv/load_csv round trip", None if same else "loaded sample differs from written one")
    out["estimator.galerkin_ms.k20"], fit = _median_ms(lambda: estimator.galerkin_estimate(sample, 20))
    tally.record("galerkin k=20", None if fit.k == 20 else f"k={fit.k}")
    # A whole minimal study, so the CLI's study layer is timed on every workload.
    smoke = wl.SMOKE["study-small-n"]
    config_path = wl.write_config(smoke, seed % wl.SLOTS, tmp)
    result = wl.run_study(npiv.cli, smoke, config_path, os.path.join(tmp, "micro_study"), 1)
    out["cli.rate_study_ms.smoke"] = 1e3 * result.wall_s
    ref = refs.get(smoke.name, {}).get(str(seed % wl.SLOTS))
    tally.record("smoke study", result.error or wl.compare(result.digest, ref))
    return out


def traced(npiv, spec, seed: int, seconds: float, tmp: str, refs: dict) -> tuple[dict, dict, Tally]:
    from tracing import LAYERS, Tracer, coverage, layer_metrics

    cli = npiv.cli
    modules = {layer: getattr(npiv, layer) for layer in LAYERS}
    slot = seed % wl.SLOTS
    tally = Tally()
    tracer = Tracer()
    op_walls: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    if isinstance(spec, wl.Study):
        config_path = wl.write_config(spec, slot, tmp)
        ref = refs.get(spec.name, {}).get(str(slot))
        jobs = pool_jobs()
        serial, pooled = [], []
        base1, base2, base_t = (os.path.join(tmp, name) for name in ("serial", "pooled", "traced"))
        # Untraced serial and pooled studies until the time is up; each serial
        # output must equal the pooled one byte for byte (acceptance criterion 8).
        while not serial or time.perf_counter() < deadline:
            for base, j, walls in ((base2, jobs, pooled), (base1, 1, serial)):
                out = wl.run_study(cli, spec, config_path, base, j)
                tally.record(f"study --jobs {j}", out.error or wl.compare(out.digest, ref))
                walls.append(out.wall_s)
            tally.record("jobs invariance", _same_bytes(base1, base2))
        tracer.install(modules)
        try:
            tracer.request = "study"
            out = wl.run_study(cli, spec, config_path, base_t, 1)
        finally:
            tracer.uninstall()
        tally.record("traced study", out.error or wl.compare(out.digest, ref) or _same_bytes(base_t, base2))
        op_walls["study"] = out.wall_s
        untraced = statistics.median(serial)
        scaling = untraced / (jobs * statistics.median(pooled))
        traced_wall = out.wall_s
    else:
        paths = wl.pipeline_files(spec, slot, tmp)
        slot_refs = refs.get(spec.name, {}).get(str(slot), [])

        def cycle(tag: str) -> float:
            total = 0.0
            for i in range(spec.distinct):
                r, n, data_seed = spec.request(slot, i)
                tracer.request = f"{tag}.{i}"
                out = wl.run_request(cli, spec, paths, n, data_seed)
                ref = slot_refs[r] if r < len(slot_refs) else None
                tally.record(f"{tracer.request} (n={n})", out.error or wl.compare(out.digest, ref))
                op_walls[tracer.request] = out.wall_s
                total += out.wall_s
            return total

        cycles = []
        while not cycles or time.perf_counter() < deadline:
            cycles.append(cycle("untraced"))
        op_walls.clear()
        tracer.install(modules)
        try:
            traced_wall = sum(cycle(f"request{c}") for c in range(TRACED_CYCLES)) / TRACED_CYCLES
        finally:
            tracer.uninstall()
        untraced = statistics.median(cycles)
        scaling = 1.0  # one client, no pool: a single process is fully used by definition
    tracer.install(modules)
    try:
        tracer.request = "micro"
        micro = micro_timings(npiv, seed, tmp, refs, tally)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.spans)
    layers["cli.scaling_eff"] = scaling
    layers["trace.overhead_ratio"] = traced_wall / untraced
    layers["trace.coverage"] = coverage(tracer.spans, op_walls)
    layers.update(micro)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_path = os.path.join(out_dir, f"spans-{spec.name}-seed{seed}.jsonl")
    tracer.write_jsonl(span_path)
    detail = {"spans": len(tracer.spans), "span_file": os.path.relpath(span_path, ROOT),
              "untraced_wall_s": untraced, "traced_wall_s": traced_wall}
    return layers, detail, tally


# -- entry point ----------------------------------------------------------


def run(npiv, spec, seed: int, seconds: float, trace: int, refs: dict | None = None) -> tuple[dict, dict]:
    """Run one workload pass; returns (result object, detail record)."""
    refs = wl.load_refs() if refs is None else refs
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        if trace:
            metrics, detail, tally = traced(npiv, spec, seed, seconds, tmp, refs)
        else:
            metrics, detail, tally = end_to_end(npiv.cli, spec, seed, seconds, tmp, refs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in _declared(trace)}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail.update(
        workload=spec.name,
        slot=seed % wl.SLOTS,
        failed_ratio=tally.failed / tally.attempted,
        failures=tally.errors,
    )
    return result, detail


def _declared(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    pinned = pin_blas_threads()
    try:
        npiv = load_npiv()
    except ImportError as exc:
        print(f"benchmark: cannot import npiv from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, detail = run(npiv, wl.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    detail["env"] = environment(args.seed, pinned)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
