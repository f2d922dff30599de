"""Span recording around npiv's module functions, and the layer metrics built from the spans.

The tracer wraps functions from outside the package: every public function
of ``basis``, ``simulate``, ``estimator``, ``selection`` and ``cli`` (plus
the study cell ``cli._study_worker``) is replaced, in every npiv module that
binds it, by a wrapper that records a span.  Nothing under ``src/`` knows
about it, and ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("basis", "simulate", "estimator", "selection", "cli")
# Private functions that mark a layer boundary worth a span.
_PRIVATE_BOUNDARIES = {"cli": ("_study_worker",)}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counters read at the layer boundaries; each gets the call's arguments and result.
def _count_trig_columns(args, kwargs, result):
    return {"values": int(result.size), "n": int(result.shape[0])}


def _count_joint_density(args, kwargs, result):
    return {"proposals": int(np.size(_arg(args, kwargs, 1, "z")))}


def _count_sample_joint(args, kwargs, result):
    return {"n": int(_arg(args, kwargs, 1, "n"))}


def _count_estimate(args, kwargs, result):
    return {"thresholded": bool(result.thresholded)}


def _count_select(args, kwargs, result):
    return {"thresholded": bool(result.estimate.thresholded)}


def _count_cutoff(args, kwargs, result):
    sample = _arg(args, kwargs, 0, "sample")
    weights = _arg(args, kwargs, 1, "risk_weights")
    return {"cutoff": int(result), "n": int(sample.n), "cap": _dimension_cap(weights, sample.n)}


def _count_write_csv(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _count_load_csv(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_study_worker(args, kwargs, result):
    task = _arg(args, kwargs, 0, "task")
    return {"n": int(result[0]), "cutoff": int(result[4]), "k_fixed": int(task[5])}


_COUNTERS = {
    "basis.trig_columns": _count_trig_columns,
    "simulate.joint_density": _count_joint_density,
    "simulate.sample_joint": _count_sample_joint,
    "estimator.diagonal_estimate": _count_estimate,
    "estimator.galerkin_estimate": _count_estimate,
    "selection.penalized_select": _count_select,
    "selection.empirical_dimension_cutoff": _count_cutoff,
    "estimator.write_csv": _count_write_csv,
    "estimator.load_csv": _count_load_csv,
    "cli._study_worker": _count_study_worker,
}


def _dimension_cap(weights, n: int) -> int:
    """Largest N <= n whose running maximum of risk weights stays <= n, at least 1.

    The rule of ``npiv.selection.dimension_cap``, restated so the count does not
    depend on that helper surviving a refactor.
    """
    ok = np.nonzero(np.maximum.accumulate(weights.values(n)) <= n)[0]
    return int(ok[-1]) + 1 if ok.size else 1


class Tracer:
    """Keeps spans in memory; ``request`` tags the spans of the current operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = "-"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None, self.request, 0)
            spans.append(span)
            stack.append(span.id)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span.attrs = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the layer functions of ``modules`` (layer name -> module object)."""
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or name in _PRIVATE_BOUNDARIES.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        # Modules import each other's functions by name, so every binding is replaced.
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def write_jsonl(self, path: str) -> None:
        self_ns = self_times(self.spans)
        with open(path, "w") as fh:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "request": s.request,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": self_ns[s.id],
                    **s.attrs,
                }
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration_ns for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration_ns
    return out


def coverage(spans: list[Span], op_walls: dict[str, float]) -> float:
    """Share of the operations' wall time covered by their root spans."""
    covered = {}
    for s in spans:
        if s.parent is None and s.request in op_walls:
            covered[s.request] = covered.get(s.request, 0) + s.duration_ns
    total = sum(op_walls.values())
    return sum(covered.values()) / 1e9 / total if total else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times over all recorded spans."""
    self_ns = self_times(spans)
    children: dict[int, list[int]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s.id)

    def subtree(root: int, stop=()):
        """Ids under ``root``, not descending into spans named in ``stop``."""
        todo, out = list(children.get(root, ())), []
        while todo:
            i = todo.pop()
            if spans[i].name in stop:
                continue
            out.append(i)
            todo.extend(children.get(i, ()))
        return out

    def ancestors(i: int):
        p = spans[i].parent
        while p is not None:
            yield spans[p]
            p = spans[p].parent

    def under(s: Span, name: str) -> bool:
        return any(a.name == name for a in ancestors(s.id))

    def named(*names):
        return [s for s in spans if s.name in names]

    def outermost(*names):
        return [s for s in named(*names) if not any(a.name in names for a in ancestors(s.id))]

    def seconds(ss):
        return sum(s.duration_ns for s in ss) / 1e9

    def values_under(root: int, stop=()) -> int:
        return sum(spans[i].attrs["values"] for i in subtree(root, stop) if spans[i].name == "basis.trig_columns")

    m: dict[str, float] = {}

    # basis: design evaluation.  Values are basis-function evaluations (n * k per design).
    designs = named("basis.trig_columns")
    values = sum(s.attrs["values"] for s in designs)
    basis_self = sum(self_ns[s.id] for s in spans if s.name.startswith("basis.")) / 1e9
    m["basis.self_s"] = basis_self
    m["basis.calls"] = len(designs)
    m["basis.values"] = values
    m["basis.bytes_computed"] = 8 * values
    m["basis.values_per_s"] = values / basis_self if basis_self else 0.0

    # simulate: rejection sampler and response generation.
    joints = named("simulate.sample_joint")
    proposals = sum(s.attrs["proposals"] for s in named("simulate.joint_density") if under(s, "simulate.sample_joint"))
    m["simulate.sample_joint_s"] = seconds(outermost("simulate.sample_joint"))
    m["simulate.proposals"] = proposals
    m["simulate.accept_ratio"] = sum(s.attrs["n"] for s in joints) / proposals if proposals else 0.0
    m["simulate.generate_self_s"] = sum(self_ns[s.id] for s in named("simulate.generate_sample")) / 1e9

    # selection: the cutoff scan and the penalised choice.  Diagonal entries are
    # counted from the designs evaluated under each span, whatever helper made them.
    scans = named("selection.empirical_dimension_cutoff")
    scan_entries = sum(values_under(s.id) / (2 * s.attrs["n"]) for s in scans)
    scan_useful = sum(min(s.attrs["cutoff"] + 1, s.attrs["cap"]) for s in scans)
    selects = named("selection.penalized_select")
    m["selection.cutoff_s"] = seconds(outermost("selection.empirical_dimension_cutoff"))
    m["selection.select_s"] = seconds(selects) - seconds([s for s in scans if under(s, "selection.penalized_select")])
    m["selection.scan_entries"] = scan_entries
    m["selection.scan_useful_ratio"] = scan_useful / scan_entries if scan_entries else 0.0
    m["selection.moment_reuse_ratio"] = _moment_reuse(spans, subtree, values_under)
    m["selection.cutoff_at_cap"] = (
        sum(s.attrs["cutoff"] == s.attrs["cap"] for s in scans) / len(scans) if scans else 0.0
    )

    # estimator: moments, solvers and CSV I/O.
    estimates = named("estimator.diagonal_estimate", "estimator.galerkin_estimate", "selection.penalized_select")
    m["estimator.diagonal_s"] = seconds(
        outermost("estimator.empirical_diagonal", "estimator.diagonal_block", "estimator.diagonal_estimate")
    )
    m["estimator.galerkin_s"] = seconds(outermost("estimator.galerkin_estimate"))
    m["estimator.zero_fallback_ratio"] = (
        sum(s.attrs["thresholded"] for s in estimates) / len(estimates) if estimates else 0.0
    )
    m["estimator.csv_write_s"] = seconds(named("estimator.write_csv"))
    m["estimator.csv_read_s"] = seconds(named("estimator.load_csv"))
    m["estimator.csv_bytes"] = sum(s.attrs["bytes"] for s in named("estimator.write_csv", "estimator.load_csv"))

    # cli: argument handling outside the commands, and the study outside its cells.
    commands = [s for s in spans if s.name.startswith("cli.cmd_") and s.parent is not None
                and spans[s.parent].name == "cli.main"]
    m["cli.parse_s"] = seconds(named("cli.main")) - seconds(commands)
    cells = named("cli._study_worker")
    m["cli.study_self_s"] = seconds(named("cli.cmd_rate_study")) - seconds(
        [s for s in cells if under(s, "cli.cmd_rate_study")]
    )
    m["cli.tasks"] = len(cells)
    return m


def _moment_reuse(spans, subtree, values_under) -> float:
    """Diagonal entries computed per operation over the distinct entries it needs.

    An operation is a study cell or a ``select`` command.  Computed entries are
    the useful part of the cutoff scan (its overshoot is ``scan_useful_ratio``),
    plus the entries computed under the penalised selection outside the scan,
    plus those of a fixed-dimension diagonal estimate.  Needed entries are the
    scan's useful part or the fixed dimension, whichever is larger.
    """
    computed = needed = 0.0
    for op in spans:
        if op.name not in ("cli._study_worker", "cli.cmd_select"):
            continue
        ids = subtree(op.id)
        scans = [spans[i] for i in ids if spans[i].name == "selection.empirical_dimension_cutoff"]
        if not scans:
            continue
        scan = scans[0]
        n = scan.attrs["n"]
        useful = min(scan.attrs["cutoff"] + 1, scan.attrs["cap"])
        selected = sum(
            values_under(i, stop=("selection.empirical_dimension_cutoff",))
            for i in ids
            if spans[i].name == "selection.penalized_select"
        ) / (2 * n)
        fixed = sum(
            values_under(i) for i in ids if spans[i].name == "estimator.diagonal_estimate"
        ) / (2 * n)
        computed += useful + selected + fixed
        needed += max(useful, op.attrs.get("k_fixed", 0))
    return computed / needed if needed else 0.0
