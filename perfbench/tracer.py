"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public stage functions of each fastslow layer with
timing wrappers and the model's ``source`` / ``jac`` callables with
counters.  Spans are kept in memory as ``[name, layer, start, end, parent]``
rows; kernel calls (``source`` and ``jac``) are far too frequent to keep one
span each, so they are summed per enclosing span instead.  Self times are
derived afterwards from the spans and those per-span kernel sums.

A hook whose target no longer exists is recorded as unmeasured instead of
failing the run, so renaming or folding a stage function leaves the
benchmark usable and marks the affected metrics unmeasured.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass

KERNELS = ("source", "jac")


@dataclass(frozen=True)
class Hook:
    """One traced function: its layer, defining module and name.

    ``model_factory`` marks a function returning a ReactionDiffusionModel
    whose ``source`` / ``jac`` get wrapped with kernel counters; ``keep``
    keeps the function's return values for metrics read from them.
    """

    layer: str
    module: str
    name: str
    model_factory: bool = False
    keep: bool = False

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


# Stage-level public functions of each layer, plus the artifact writers.
# Per-node and per-step helpers are not hooked: their time is self time of
# the stage that calls them.
HOOKS = (
    Hook("models", "fastslow.models", "michaelis_menten_model", model_factory=True),
    Hook("models", "fastslow.models", "equilibrium"),
    Hook("gql", "fastslow.gql", "build_surrogate"),
    Hook("gql", "fastslow.gql", "spectral_split"),
    Hook("gql", "fastslow.gql", "slow_manifold_mesh"),
    Hook("pde", "fastslow.pde", "integrate_to_steady", keep=True),
    Hook("redim", "fastslow.redim", "gradient_estimate_from_profile"),
    Hook("redim", "fastslow.redim", "evolve_redim_1d"),
    Hook("redim", "fastslow.redim", "evolve_redim_2d"),
    Hook("fasttime", "fastslow.fasttime", "measure_fast_time_ode"),
    Hook("fasttime", "fastslow.fasttime", "measure_fast_time_pde"),
    Hook("cli", "fastslow.cli", "run_pipeline"),
    Hook("cli", "fastslow.cli", "run_gql"),
    Hook("cli", "fastslow.cli", "write_rows_csv"),
    Hook("cli", "fastslow.cli", "write_mesh_csv"),
    Hook("core", "fastslow.core", "write_profile_csv"),
)

# Span names (hook keys) that write artifacts; cli.write_s sums the
# outermost of them.
WRITERS = frozenset({"cli.write_rows_csv", "cli.write_mesh_csv", "core.write_profile_csv"})


class Tracer:
    """Records spans and kernel counters; single-threaded by design."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, layer, start, end, parent]
        self.kernels = {}        # (span index or -1, kernel) -> [calls, states, seconds]
        self.unmeasured = set()  # hook keys whose target was missing
        self.results = {}        # hook key -> return values, for hooks with keep=True
        self.paused = False      # while True, wrappers call through unrecorded
        self._stack = []
        self._patches = []       # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = self.clock()
        self._stack.pop()

    def add_kernel(self, kernel: str, states: int, seconds: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        row = self.kernels.setdefault((parent, kernel), [0, 0, 0.0])
        row[0] += 1
        row[1] += states
        row[2] += seconds

    def clear(self) -> None:
        """Forget everything recorded so far (no span may be open)."""
        if self._stack:
            raise RuntimeError("cannot clear a tracer with open spans")
        self.spans.clear()
        self.kernels.clear()
        self.results.clear()

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, hook: Hook, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = self.open(hook.key, hook.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook.keep:
                self.results.setdefault(hook.key, []).append(result)
            if hook.model_factory:
                result = self.counted_model(result)
            return result
        return traced

    def counted_kernel(self, kernel: str, fn):
        clock = self.clock

        def counted(z):
            if self.paused:
                return fn(z)
            t0 = clock()
            out = fn(z)
            seconds = clock() - t0
            self.add_kernel(kernel, math.prod(getattr(z, "shape", ())[:-1]), seconds)
            return out
        return counted

    def counted_model(self, model):
        """A copy of ``model`` whose source and jac count states and time."""
        changes = {k: self.counted_kernel(k, getattr(model, k))
                   for k in KERNELS if getattr(model, k, None) is not None}
        return dataclasses.replace(model, **changes)

    # -- installation ------------------------------------------------------

    def install(self, hooks=HOOKS) -> None:
        """Replace each hook target in every ``fastslow`` namespace that holds it."""
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                self.unmeasured.add(hook.key)
                continue
            original = getattr(module, hook.name, None)
            if not callable(original):
                self.unmeasured.add(hook.key)
                continue
            wrapper = self.span_wrapper(hook, original)
            for namespace in _fastslow_modules():
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._patches.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived quantities --------------------------------------------------

    def self_times(self) -> list:
        return self_times(self.spans, self.kernel_seconds_by_span())

    def kernel_seconds_by_span(self) -> dict:
        out = {}
        for (parent, _), (_, _, seconds) in self.kernels.items():
            out[parent] = out.get(parent, 0.0) + seconds
        return out

    def kernel_totals(self, kernel: str, under=None) -> tuple:
        """(states, seconds) of ``kernel`` calls, optionally only those made
        inside spans whose name is in ``under`` (at any depth)."""
        inside = None if under is None else self.descendants(under)
        states, seconds = 0, 0.0
        for (parent, name), (_, n, s) in self.kernels.items():
            if name == kernel and (inside is None or parent in inside):
                states += n
                seconds += s
        return states, seconds

    def descendants(self, names) -> set:
        """Indices of spans named in ``names`` and of every span inside them."""
        inside = set()
        for index, (name, _, _, _, parent) in enumerate(self.spans):
            if name in names or parent in inside:
                inside.add(index)
        return inside

    def inclusive(self, names, outermost: bool = False) -> float:
        """Summed duration of spans named in ``names``; with ``outermost``,
        spans nested inside another such span are skipped."""
        total = 0.0
        for name, _, start, end, parent in self.spans:
            if name not in names:
                continue
            if outermost and self._has_ancestor(parent, names):
                continue
            total += end - start
        return total

    def layer_self(self) -> dict:
        """Self seconds per layer; kernel time counts toward ``core``."""
        out = {}
        for span, own in zip(self.spans, self.self_times()):
            out[span[1]] = out.get(span[1], 0.0) + own
        kernel_s = sum(row[2] for row in self.kernels.values())
        out["core"] = out.get("core", 0.0) + kernel_s
        return out

    def _has_ancestor(self, parent: int, names) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][4]
        return False


def self_times(spans, kernel_seconds) -> list:
    """Self time of each span: its duration minus the durations of its
    direct child spans and of kernel calls made directly inside it.

    ``spans`` rows are ``[name, layer, start, end, parent]`` with ``parent``
    the index of the enclosing span or -1; ``kernel_seconds`` maps a span
    index to the kernel seconds spent directly inside it.
    """
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    for index, seconds in kernel_seconds.items():
        if index >= 0:
            own[index] -= seconds
    return own


def _fastslow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fastslow" or name.startswith("fastslow."))]
