"""Nested span tracer that wraps conebarrier's layer entry points from outside.

Importing this module imports neither numpy nor conebarrier, so the
benchmark can time those imports as part of set-up.

The program is not changed: ``hooked`` swaps the public names that ``solve``
looks up at run time for timing wrappers and puts the originals back on exit.
Every wrapped call appends one span (layer, parent span, start, end) to flat
in-memory lists; ``Tracer.summary`` turns them into per-layer call counts and
self times, where a span's self time is its duration minus the durations of
its direct children.
"""
from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from pathlib import Path

ROOT_LAYER = "solver"

# Layers in report order.  ``solver`` is the root span around ``solve`` itself,
# so its self time is the outer loop's own work.
LAYERS = (
    ROOT_LAYER,
    "cones.barrier_factor",
    "linops.workspace_build",
    "linops.reduced_hessian_apply",
    "linops.ops",
    "cones.local_norm_dual",
    "capped_cg",
    "lanczos",
    "solver.line_search",
    "certify",
    "problems.value",
    "problems.gradient",
    "problems.hessian",
    "counters.add",
)

WORKSPACE_OPS = ("unscale", "scale_dual", "project", "null_step", "null_step_t", "multipliers")


class HookError(RuntimeError):
    """A name the tracer must wrap is missing, or a hook was not restored."""


def _cg_outcome(result) -> tuple[int, bool]:
    return result.iterations, not result.is_solution


def _meo_outcome(result) -> tuple[int, bool]:
    return result.iterations, result.found_negative_curvature


@dataclasses.dataclass
class SpanSummary:
    """Per-layer aggregates of one traced solve."""

    calls: dict[str, int]
    self_s: dict[str, float]
    wall_s: float  # summed duration of root spans
    outcomes: dict[str, list[tuple[int, bool]]]
    child_calls: dict[tuple[str, str], int]  # (parent layer, child layer) -> spans

    def outcome_means(self, layer: str) -> tuple[float, float]:
        """Mean iterations per call and share of calls ending in negative curvature."""
        rows = self.outcomes.get(layer, [])
        if not rows:
            return 0.0, 0.0
        return (sum(r[0] for r in rows) / len(rows), sum(r[1] for r in rows) / len(rows))


class Tracer:
    """Records nested spans; ``clock`` is injectable so tests can drive time."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layers = list(LAYERS)
        self.span_layer: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.outcomes: dict[str, list[tuple[int, bool]]] = {}
        self._stack = [-1]

    def reset(self) -> None:
        """Drop recorded spans; the lists are cleared in place for live wrappers."""
        for lst in (self.span_layer, self.span_parent, self.span_start, self.span_end):
            del lst[:]
        for lst in self.outcomes.values():
            del lst[:]
        del self._stack[1:]

    def wrap(self, layer: str, fn, outcome=None):
        """Return ``fn`` wrapped so each call records one span of ``layer``."""
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        layers, parents = self.span_layer, self.span_parent
        starts, ends, stack, clock = self.span_start, self.span_end, self._stack, self.clock
        results = self.outcomes.setdefault(layer, []) if outcome is not None else None

        def traced(*args, **kwargs):
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if results is not None:
                results.append(outcome(out))
            return out

        return traced

    def summary(self) -> SpanSummary:
        import numpy as np

        layer = np.asarray(self.span_layer, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        k = len(self.layers)
        calls = np.bincount(layer, minlength=k)
        self_s = np.bincount(layer, weights=own, minlength=k)
        pairs = np.bincount(layer[parent[nested]] * k + layer[nested], minlength=k * k)
        return SpanSummary(
            calls={name: int(calls[i]) for i, name in enumerate(self.layers)},
            self_s={name: float(self_s[i]) for i, name in enumerate(self.layers)},
            wall_s=float(dur[~nested].sum()),
            outcomes={name: list(rows) for name, rows in self.outcomes.items()},
            child_calls={
                (self.layers[i // k], self.layers[i % k]): int(c)
                for i, c in enumerate(pairs) if c
            },
        )

    def write(self, path: Path) -> None:
        """Write the recorded spans as arrays; layer names index ``layer``."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layer_names=np.asarray(self.layers),
            layer=np.asarray(self.span_layer, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
        )


def _require(owner, attr: str):
    """Look up a name to wrap; a missing one is an error, never a zero."""
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise HookError(f"{owner.__module__}.{owner.__name__}.{attr} is missing")
        return vars(owner)[attr]
    try:
        return getattr(owner, attr)
    except AttributeError:
        raise HookError(f"{owner.__name__}.{attr} is missing") from None


def _targets():
    """(owner, attribute, layer, outcome) for every name ``solve`` reaches at run time."""
    from conebarrier import certify, counters, solver

    ws = _require(solver, "IterationWorkspace")
    return [
        (solver, "barrier_factor", "cones.barrier_factor", None),
        (solver, "local_norm_dual", "cones.local_norm_dual", None),
        (solver, "capped_cg", "capped_cg", _cg_outcome),
        (solver, "min_eig_oracle", "lanczos", _meo_outcome),
        (solver, "line_search_sol", "solver.line_search", None),
        (solver, "line_search_nc", "solver.line_search", None),
        (certify, "check_fosp", "certify", None),
        (certify, "check_sosp_dense", "certify", None),
        (ws, "__init__", "linops.workspace_build", None),
        (ws, "reduced_hessian_apply", "linops.reduced_hessian_apply", None),
        *[(ws, name, "linops.ops", None) for name in WORKSPACE_OPS],
        (_require(counters, "OpCounters"), "add", "counters.add", None),
    ]


@contextmanager
def hooked(tracer: Tracer, problem):
    """Install the wrappers; yields (traced solve, problem with traced callbacks).

    Originals are restored on exit, and the exit checks that they were.
    """
    from conebarrier import solver

    targets = _targets()
    originals = [(owner, attr, _require(owner, attr)) for owner, attr, _, _ in targets]
    callbacks = {}
    for field in ("value", "gradient", "hessian"):
        fn = getattr(problem, field)
        if fn is None:
            raise HookError(f"problem {problem.name!r} has no {field} callback to trace")
        callbacks[field] = tracer.wrap(f"problems.{field}", fn)
    traced_problem = dataclasses.replace(problem, **callbacks)
    traced_solve = tracer.wrap(ROOT_LAYER, _require(solver, "solve"))
    try:
        for (owner, attr, layer, outcome), (_, _, fn) in zip(targets, originals):
            setattr(owner, attr, tracer.wrap(layer, fn, outcome))
        yield traced_solve, traced_problem
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    for owner, attr, fn in originals:
        if _require(owner, attr) is not fn:
            raise HookError(f"hook on {attr} was not restored")
