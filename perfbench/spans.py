"""Outside-in spans around the public functions of every klpriv module.

Nothing in the library is changed.  :func:`install` replaces each public
function in the namespace where the consuming module looks it up (for
example ``klpriv.estimator.forward_batch`` or ``klpriv.cli.run_kl_estimation``)
with a wrapper that records calls, total time and self time.  Self time is
total time minus the time of child spans, so the self times of all spans
under a root span add up to the root's wall time.

Spans are aggregated per name in memory; a span is named
``<defining module>.<function>`` whichever module calls it.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "data", "numerics", "network", "linearized", "estimator", "accountant")


class Tracer:
    """Per-span-name call counts, total and self times, plus exact counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        # child time accumulated by each open span; the bottom entry is the
        # time spent in spans with no open parent
        self._child_s = [0.0]

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(counters, result)`` runs on success."""
        stack = self._child_s

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - child
            if after is not None:
                after(self.counters, result)
            return result

        return spanned

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counters": dict(self.counters)}


def _count_noise(counters, W):
    counters["estimator.noise_bytes"] += 8 * W.flat.size


def _count_estimation(counters, result):
    counters["estimator.steps"] += sum(t.per_step_sq_diffs.shape[0] for t in result.traces)
    counters["estimator.neighbors"] += result.traces[0].cumulative_per_neighbor.size
    counters["estimator.diverged_runs"] += sum(bool(t.diverged) for t in result.traces)


def _count_capped(counters, neighbors):
    counters["data.neighbors.capped"] += int(neighbors.capped)


# exact counts taken from a span's return value
_AFTER = {
    "estimator.noisy_gd_step": _count_noise,
    "estimator.run_kl_estimation": _count_estimation,
    "data.enumerate_neighbors": _count_capped,
}


def install(tracer: Tracer) -> None:
    """Wrap every public klpriv function at each module-level lookup site."""
    for layer in LAYERS:
        mod = importlib.import_module(f"klpriv.{layer}")
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("klpriv.")):
                continue
            name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
            setattr(mod, attr, tracer.wrap(name, obj, _AFTER.get(name)))
    numerics = importlib.import_module("klpriv.numerics")
    numerics.RngStream.generator = tracer.wrap("numerics.generator",
                                               numerics.RngStream.generator)
