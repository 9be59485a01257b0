"""klpriv benchmark: four CLI workloads, closed loop, one client.

Usage (from the root of a klpriv checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One client runs one ``klpriv`` CLI invocation at a time, each in its own
subprocess, for about ``--seconds`` seconds, and checks every artifact it
writes.  With ``--trace 0`` it alternates the workload's full invocation with
its set-up-only invocation and reports the end-to-end metrics.  With
``--trace 1`` it alternates an untraced full invocation with a traced one
(``traced_cli.py``, spans from ``spans.py``) and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a JSON detail record with quartiles, sample counts,
``fail_ratio``, digests, the probe scale and machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
ARTIFACT = "bench.csv"          # embedded in the header as out=, so fixed
RUN_LIMIT_S = 170.0             # hard stop for one benchmark process
MIN_CYCLES = {False: 3, True: 1}  # full+setup cycles untraced, untraced+traced pairs traced
# The host's speed drifts: a fixed loop runs up to 1.5 times slower for
# minutes at a time.  probe.py is timed after every cycle, and the reported
# times are in reference seconds, seconds * REF_PROBE_S / (the run's median
# probe time), in which that drift cancels while a change to the program
# shows in full; the detail line keeps the raw ones as raw_*.  REF_PROBE_S is
# the probe's time on the 2-core Xeon KVM guest the benchmark was tuned on.
REF_PROBE_S = 0.15


@dataclass(frozen=True)
class Workload:
    """One CLI command line, its set-up-only and smoke variants and its work count."""

    args: tuple[str, ...]
    setup: dict                 # flag overrides that remove the training work
    smoke: dict                 # flag overrides for the tiny smoke size
    artifacts: tuple[str, ...]
    unit_factor: int            # work units = factor * product of unit_flags
    unit_flags: tuple[str, ...]

    def variant(self, smoke: bool, setup: bool) -> tuple[str, ...]:
        args = with_flags(self.args, self.smoke) if smoke else self.args
        return with_flags(args, self.setup) if setup else args

    def units(self, args) -> int:
        n = self.unit_factor
        for flag in self.unit_flags:
            n *= int(args[args.index(flag) + 1])
        return n


def with_flags(args, overrides: dict) -> tuple[str, ...]:
    args = list(args)
    for flag, value in overrides.items():
        args[args.index(flag) + 1] = value
    return tuple(args)


_ESTIMATE_OUT = (ARTIFACT, ARTIFACT + ".neighbors.csv")

WORKLOADS = {
    "estimate-wide": Workload(
        args=("estimate", "--scheme", "he", "--data", "synth:64", "--d", "32",
              "--width", "256", "--depth", "6", "--eta", "1e-3", "--steps", "120",
              "--sigma2", "1e-2", "--runs", "2", "--record-every", "10"),
        setup={"--steps": "0"}, smoke={"--width": "16", "--steps": "6"},
        artifacts=_ESTIMATE_OUT, unit_factor=1, unit_flags=("--runs", "--steps")),
    "estimate-replace": Workload(
        args=("estimate", "--scheme", "lecun", "--data", "synth:64", "--d", "32",
              "--width", "32", "--depth", "4", "--eta", "1e-3", "--steps", "2000",
              "--sigma2", "1e-2", "--runs", "2", "--neighbor", "replace",
              "--pool-size", "8", "--cap", "256"),
        setup={"--steps": "0"}, smoke={"--steps": "20"},
        artifacts=_ESTIMATE_OUT, unit_factor=1, unit_flags=("--runs", "--steps")),
    "estimate-linearized": Workload(
        args=("estimate", "--linearize", "--scheme", "lecun", "--data", "synth:64",
              "--d", "32", "--width", "128", "--depth", "3", "--eta", "1e-2",
              "--steps", "250", "--sigma2", "1e-2", "--runs", "2", "--neighbor", "add",
              "--pool-size", "16"),
        setup={"--steps": "0"}, smoke={"--width": "16", "--steps": "5"},
        artifacts=_ESTIMATE_OUT, unit_factor=1, unit_flags=("--runs", "--steps")),
    # four schemes x three checks (single output) x samples
    "mc-verify": Workload(
        args=("mc-verify", "--scheme", "all", "--d", "8", "--width", "32", "--depth", "4",
              "--samples", "800"),
        setup={"--samples": "2"}, smoke={"--samples": "20"},
        artifacts=(ARTIFACT,), unit_factor=12, unit_flags=("--samples",)),
}


@dataclass
class Invocation:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    digest: str | None = None
    artifact_bytes: int = 0
    violations: int = 0
    spans: dict | None = None
    error: str = ""             # last stderr line of a failed invocation


def probe(deadline: float) -> float:
    """Seconds the timed part of ``probe.py`` took, in a child process."""
    out = subprocess.run([sys.executable, str(HERE / "probe.py")], capture_output=True,
                         text=True, check=True, timeout=max(deadline - perf_counter(), 1.0))
    return float(out.stdout)


def cli_argv(args, seed: int) -> list[str]:
    return [*args, "--seed", str(seed), "--out", ARTIFACT]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@contextlib.contextmanager
def work_dir():
    """A per-process working directory inside the checkout, removed on exit."""
    path = ROOT / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def artifact_digest(workdir: Path, names) -> tuple[str | None, int]:
    """SHA-256 of ``sha256sum``-style lines over the artifacts, and their size."""
    lines, size = [], 0
    for name in names:
        path = workdir / name
        if not path.is_file():
            return None, 0
        data = path.read_bytes()
        size += len(data)
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest(), size


def count_violations(path: Path) -> int:
    """Rows flagged ``violation=1`` in an mc-verify table; 0 for other tables.

    Only full invocations are held to it: the set-up variant draws two
    samples, too few for the moment checks to pass.
    """
    rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = rows[0].split(",") if rows else []
    if "violation" not in header:
        return 0
    col = header.index("violation")
    return sum(row.split(",")[col] != "0" for row in rows[1:])


def invoke(cli_args, workdir: Path, artifacts, deadline: float,
           traced: bool = False) -> Invocation:
    """Run one CLI invocation to completion; time it and digest its artifacts."""
    for name in artifacts:
        (workdir / name).unlink(missing_ok=True)
    spans_file = workdir / "spans.json"
    spans_file.unlink(missing_ok=True)
    prefix = ([sys.executable, str(HERE / "traced_cli.py"), str(spans_file)] if traced
              else [sys.executable, "-m", "klpriv.cli"])
    with open(workdir / "stderr.txt", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([*prefix, *cli_args], cwd=workdir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(rc=proc.returncode, wall_s=wall,
                     cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0)
    if inv.rc != 0:
        inv.error = "".join((workdir / "stderr.txt").read_text(errors="replace")
                            .strip().splitlines()[-1:])
    inv.digest, inv.artifact_bytes = artifact_digest(workdir, artifacts)
    if inv.digest is not None:
        inv.violations = count_violations(workdir / artifacts[0])
    if traced and spans_file.is_file():
        inv.spans = json.loads(spans_file.read_text())
    return inv


class Checker:
    """Counts invocations and failures against golden or first-seen digests."""

    def __init__(self, golden: dict | None):
        self.expected = dict(golden or {})
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, variant: str, inv: Invocation) -> None:
        self.attempted += 1
        reason = None
        if inv.rc != 0:
            reason = f"exit code {inv.rc} ({inv.error})"
        elif inv.digest is None:
            reason = "missing artifact"
        elif inv.digest != self.expected.setdefault(variant, inv.digest):
            reason = f"digest {inv.digest[:12]} != {self.expected[variant][:12]}"
        elif inv.violations and variant == "full":
            reason = f"{inv.violations} mc-verify violation rows"
        if reason is not None:
            self.failures.append(f"{variant}: {reason}")


def summary(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _cycles(seconds: float, trace: bool, one_cycle) -> None:
    """Run ``one_cycle`` until the next cycle would end after ``seconds``."""
    t0 = perf_counter()
    done = 0
    while True:
        one_cycle(done)
        done += 1
        elapsed = perf_counter() - t0
        if done >= MIN_CYCLES[trace] and elapsed * (done + 1) / done > seconds:
            return


def _timed(invs) -> list[Invocation]:
    """Successful invocations when there are any, else all of them."""
    ok = [i for i in invs if i.rc == 0]
    return ok or list(invs)


# span-name prefixes summed for a per-layer name that is not a single span
_PREFIXES = {layer: layer + "." for layer in LAYERS} | {"estimator.mc": "estimator.mc_"}


def layer_value(name: str, inv: Invocation):
    """The per-layer metric ``name`` of one traced invocation.

    ``<span>.calls`` and ``<span>.self_s`` read the span's totals, or the sum
    over a layer's spans for a layer name in ``_PREFIXES``; any other name
    not special-cased here is an exact counter of ``spans.py``.
    """
    spans = inv.spans
    if name == "cli.import_s":
        return spans["import_s"]
    if name == "cli.artifact_bytes":
        return inv.artifact_bytes
    if name == "trace.coverage":
        return (spans["import_s"] + sum(spans["self_s"].values())) / inv.wall_s
    span, _, kind = name.rpartition(".")
    if kind in ("calls", "self_s"):
        table = spans[kind]
        if span in _PREFIXES:
            return sum(v for k, v in table.items() if k.startswith(_PREFIXES[span]))
        return table.get(span, 0)
    return spans["counters"].get(name, 0)


def measure(wl: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
            golden: dict | None, layer_names=()) -> dict:
    """Run one benchmark measurement and return the result and detail records.

    With ``trace`` the metrics are ``layer_names``, each the median over the
    successful traced invocations; all are None when there is none.
    """
    full = cli_argv(wl.variant(smoke, setup=False), seed)
    setup = cli_argv(wl.variant(smoke, setup=True), seed)
    checker = Checker(golden)
    deadline = perf_counter() + RUN_LIMIT_S
    with work_dir() as workdir:
        # warm-up: byte-compiles the sources and fills the file cache
        checker.check("setup", invoke(setup, workdir, wl.artifacts, deadline))
        runs = {"full": [], "setup": [], "traced": []}

        def run(kind, argv, traced=False):
            inv = invoke(argv, workdir, wl.artifacts, deadline, traced=traced)
            checker.check("setup" if kind == "setup" else "full", inv)
            runs[kind].append(inv)

        probes = [probe(deadline)]
        if trace:
            def cycle(k):
                order = [("full", False), ("traced", True)]
                for kind, traced in (order if k % 2 == 0 else order[::-1]):
                    run(kind, full, traced)
                probes.append(probe(deadline))
        else:
            def cycle(k):
                run("full", full)
                run("setup", setup)
                probes.append(probe(deadline))
        _cycles(seconds, trace, cycle)

    timed = _timed(runs["full"])
    samples = {"wall_s": [i.wall_s for i in timed], "probe_s": probes}
    if trace:
        spanned = [i for i in runs["traced"] if i.rc == 0 and i.spans is not None]
        samples["traced_wall_s"] = [i.wall_s for i in _timed(runs["traced"])]
        overhead = (statistics.median(samples["traced_wall_s"])
                    / statistics.median(samples["wall_s"]) - 1.0)
        metrics = dict.fromkeys(layer_names)
        if spanned:
            metrics.update({n: statistics.median_low(layer_value(n, i) for i in spanned)
                            for n in layer_names if n != "trace.overhead_ratio"})
            metrics["trace.overhead_ratio"] = overhead
    else:
        setups = _timed(runs["setup"])
        samples.update(setup_s=[i.wall_s for i in setups], cpu_s=[i.cpu_s for i in timed],
                       peak_rss_mb=[i.rss_mb for i in timed])
        raw = {k: statistics.median(v) for k, v in samples.items()}
        raw["work_per_s"] = wl.units(full) / (raw["wall_s"] - raw["setup_s"])
        ref = REF_PROBE_S / raw["probe_s"]
        metrics = {"raw_" + k: v for k, v in raw.items()}
        metrics.update(wall_s=raw["wall_s"] * ref, setup_s=raw["setup_s"] * ref,
                       work_per_s=raw["work_per_s"] / ref, cpu_s=raw["cpu_s"] * ref,
                       peak_rss_mb=raw["peak_rss_mb"])
        scale = {"probe_scaled": ["wall_s", "setup_s", "work_per_s", "cpu_s"],
                 "unit": "reference seconds: raw seconds * factor (work_per_s: / factor)",
                 "factor": ref, "ref_probe_s": REF_PROBE_S, "median_probe_s": raw["probe_s"]}
    detail = {"full_argv": full, "setup_argv": setup, "work_units": wl.units(full),
              "digests": checker.expected, "failures": checker.failures,
              "fail_ratio": len(checker.failures) / checker.attempted,
              "samples": {k: summary(v) for k, v in samples.items()}}
    if not trace:
        detail["scale"] = scale
    return {"checker": checker, "metrics": metrics, "detail": detail}


def machine_facts() -> dict:
    """Cores, CPU, caches, interpreter, numpy and BLAS threading as the children see them.

    Called after measuring: a child's ``ru_maxrss`` starts from the parent's
    resident size at fork, so the parent imports numpy only once no child is
    left to start.
    """
    import ctypes

    import numpy as np

    def read(path, prefix=""):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
        except OSError:
            pass
        return None

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": read("/proc/cpuinfo", "model name"),
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def golden_for(name: str, seed: int, smoke: bool) -> dict | None:
    """Golden digests apply at seed 0; other seeds check self-consistency."""
    if seed != 0:
        return None
    table = json.loads(GOLDEN.read_text())[name]
    return {"full": table["smoke" if smoke else "full"],
            "setup": table["smoke-setup" if smoke else "setup"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "klpriv" / "cli.py").is_file():
        print(f"error: no klpriv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None or args.seconds <= 0 or not 0 <= args.seed < 1 << 64:
        p.error("need --workload, --seconds > 0 and 0 <= --seed < 2**64")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                  args.smoke, golden_for(args.workload, args.seed, args.smoke),
                  [m["name"] for m in spec["per_layer"]])
    checker, values = out["checker"], out["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, **out["detail"],
              "metrics": values, "machine": machine_facts()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not checker.failures, "attempted": checker.attempted,
                      "failed": len(checker.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
