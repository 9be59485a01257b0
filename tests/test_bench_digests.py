"""The full-size benchmark invocations still write their golden artifacts.

``perfbench/golden.json`` holds the artifact digest of each workload's full
invocation at seed 0.  The goldens under ``tests/golden`` use models with
fewer than 100 parameters, so only these invocations reach the BLAS
groupings of the full sizes (P = 20,608 for ``estimate-linearized``, whose
per-example statistics are read from blocks of gradient rows).

The argument lists, the invocation and the digest come from
``perfbench/run.py``, executed from its source so that no bytecode cache is
written under ``perfbench/``.  Each invocation is a fresh ``python -m
klpriv.cli`` process working in the test's temporary directory; the four
take about 8 s on a 2-core host.
"""

import json
import sys
import types
from pathlib import Path
from time import perf_counter

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def _exec_module(file: str, name: str, monkeypatch) -> types.ModuleType:
    path = PERFBENCH / file
    module = types.ModuleType(name)
    module.__file__ = str(path)
    # dataclasses look up the defining module in sys.modules
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _load_run(monkeypatch) -> types.ModuleType:
    # run.py imports LAYERS from a module named spans
    _exec_module("spans.py", "spans", monkeypatch)
    return _exec_module("run.py", "perfbench_run", monkeypatch)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_full_invocation_matches_golden_digest(name, tmp_path, monkeypatch):
    bench = _load_run(monkeypatch)
    wl = bench.WORKLOADS[name]
    argv = bench.cli_argv(wl.variant(smoke=False, setup=False), 0)
    inv = bench.invoke(argv, tmp_path, wl.artifacts, perf_counter() + bench.RUN_LIMIT_S)
    assert inv.rc == 0, inv.error
    assert inv.digest == bench.golden_for(name, 0, smoke=False)["full"] == GOLDEN[name]["full"]
