"""The names ``perfbench/spans.py`` hooks by name still exist in klpriv.

``spans.install`` wraps every public function it finds, and attaches the
counters in ``spans._AFTER`` to three of them by span name; it also replaces
``RngStream.generator``.  A renamed function would leave its counter at zero
without an error, so this checks each name against the package and feeds
each counter a real return value, without installing any span.
"""

import importlib
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

from klpriv.data import Neighbor, synth_sphere
from klpriv.estimator import DnnModel, TrainConfig
from klpriv.network import NetArch, ParamVector
from klpriv.numerics import RngStream

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    # executed from its source, so no bytecode cache is written under perfbench/
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), spans.__dict__)
    return spans


def _public_function(span_name: str):
    """The klpriv function that ``spans.install`` names ``span_name``."""
    layer, attr = span_name.split(".")
    fn = getattr(importlib.import_module(f"klpriv.{layer}"), attr)
    assert isinstance(fn, types.FunctionType) and not attr.startswith("_")
    assert (fn.__module__, fn.__name__) == (f"klpriv.{layer}", attr)
    return fn


def test_hooked_names_are_public_klpriv_functions():
    spans = _load_spans()
    for name in spans._AFTER:
        assert name.split(".")[0] in spans.LAYERS
        _public_function(name)
    assert isinstance(RngStream.__dict__["generator"], types.FunctionType)


def test_each_counter_counts_a_real_return_value():
    spans = _load_spans()
    arch = NetArch.uniform(3, 4, 2, 1)
    data = synth_sphere(4, 3, RngStream(1))
    pool = synth_sphere(3, 3, RngStream(2))
    steps, runs = 3, 2
    W, grad = ParamVector.zeros(arch), ParamVector.zeros(arch)
    # the arguments that produce each hooked function's return value
    calls = {
        "estimator.noisy_gd_step": lambda fn: fn(W, grad, 0.1, 0.01, np.zeros(arch.num_params)),
        "data.enumerate_neighbors": lambda fn: fn(data, Neighbor.REPLACE_ONE, pool=pool, cap=2),
        "estimator.run_kl_estimation": lambda fn: fn(
            DnnModel(arch, "he"), data,
            _public_function("data.enumerate_neighbors")(data, Neighbor.REMOVE_ONE),
            TrainConfig(eta=0.1, steps=steps, sigma2=0.01, runs=runs)),
    }
    assert set(spans._AFTER) == set(calls)
    counters = defaultdict(int)
    for name, after in spans._AFTER.items():
        after(counters, calls[name](_public_function(name)))
    assert dict(counters) == {
        "estimator.noise_bytes": 8 * arch.num_params,
        "estimator.steps": runs * steps,
        "estimator.neighbors": data.n,
        "estimator.diverged_runs": 0,
        "data.neighbors.capped": 1,
    }
