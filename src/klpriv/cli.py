"""Command line interface.

Commands: bound | estimate | mc-verify | lazy | sweep.  Every output file is
CSV with a comment header embedding the library version and the full resolved
run configuration, so any result can be reproduced from the file alone.
Exit codes: 0 success, 2 validation error, 3 divergence flag raised.
"""

from __future__ import annotations

import argparse
import math
import sys
import typing
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .accountant import (
    DnnBoundInputs,
    KLConstant,
    averaged_iterate_risk_bound,
    dnn_drift_bound,
    expected_grad_norm_init,
    expected_output_sqnorm_init,
    gradient_norm_constant_B,
    kl_bound_linearized,
    kl_to_dp_delta,
    lazy_R_bound,
    table_closed_form_B,
)
from .data import Dataset, Neighbor, enumerate_neighbors, load_csv, synth_sphere
from .estimator import (
    DnnModel,
    LinearizedModel,
    TrainConfig,
    _recorded_steps,
    lin_averaged_iterate,
    mc_grad_norm_at_init,
    mc_linearized_grad_diff,
    mc_output_sqnorm,
    run_kl_estimation,
    run_streams,
)
from .linearized import (
    build_features,
    lazy_solution,
    lin_empirical_loss,
)
from .network import SCHEME_NAMES, LossKind, NetArch, init_betas, sample_init
from .numerics import RngStream, _fork_map

# Fixed substream indices, disjoint from the run indices used by the trainer.
_DATA_CHILD = 1 << 20
_POOL_CHILD = _DATA_CHILD + 1
_INIT_CHILD = _DATA_CHILD + 2


def _flag(default, commands: tuple[str, ...], **argparse_kwargs):
    """A RunConfig field that is a flag of ``commands``, the commands that read it.

    The flag is ``--`` plus the field name with hyphens; its type and default
    come from the field, extra argparse keywords (``choices``, ``help``) from
    ``argparse_kwargs``.
    """
    return field(default=default, metadata={"commands": commands, **argparse_kwargs})


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation; serialized into every output.

    Every field but ``command`` is a config-file key and a flag of the commands
    that read it; other commands keep it at its default and ignore its key.
    """

    command: str = ""
    scheme: str = _flag("lecun", ("bound", "estimate", "mc-verify", "lazy", "sweep"),
                        choices=SCHEME_NAMES + ("all",))
    d: int = _flag(16, ("bound", "estimate", "mc-verify", "lazy", "sweep"))
    width: int = _flag(64, ("bound", "estimate", "mc-verify", "lazy"))
    depth: int = _flag(3, ("bound", "estimate", "mc-verify", "lazy"))
    outputs: int = _flag(1, ("bound", "estimate", "mc-verify", "lazy", "sweep"))
    eta: float = _flag(0.01, ("bound", "estimate", "lazy", "sweep"))
    steps: int = _flag(100, ("bound", "estimate", "lazy", "sweep"))
    sigma2: float = _flag(0.01, ("bound", "estimate", "lazy", "sweep"))
    runs: int = _flag(6, ("estimate", "sweep"))
    seed: int = _flag(0, ("estimate", "mc-verify", "lazy", "sweep"))
    neighbor: str = _flag("remove", ("estimate", "sweep"),
                          choices=tuple(k.value for k in Neighbor))
    kl_constant: str = _flag("paper", ("bound", "estimate", "sweep"),
                             choices=tuple(k.value for k in KLConstant))
    data: str = _flag("synth:32", ("bound", "estimate", "lazy", "sweep"),
                      help="synth:<n> or csv:<path>")
    out: str | None = _flag(None, ("bound", "estimate", "mc-verify", "lazy", "sweep"))
    time: float | None = _flag(None, ("bound",))
    n: int | None = _flag(None, ("bound", "sweep"))
    x_sqnorm: float | None = _flag(None, ("bound",))
    beta_smooth: float | None = _flag(None, ("bound",))
    c_grad: float | None = _flag(None, ("bound",))
    rank_mt: int | None = _flag(None, ("bound",))
    e_delta0: float | None = _flag(None, ("bound",))
    e_grad0: float | None = _flag(None, ("bound",))
    samples: int = _flag(4000, ("mc-verify",))
    mc_n: int = _flag(32, ("mc-verify",))
    ridge: float | None = _flag(None, ("lazy",))
    pool_size: int = _flag(8, ("estimate", "sweep"))
    record_every: int = _flag(1, ("estimate", "sweep"))
    cap: int = _flag(256, ("estimate", "sweep"))
    # a flag of no command: its header line stays until the headers are trimmed
    replay_sigma2: float | None = _flag(None, ())
    label_column: str = _flag("label", ("estimate", "lazy", "sweep"))
    widths: str = _flag("16,64,256", ("sweep",))
    depths: str = _flag("3", ("sweep",))
    metric: str = _flag("analytic", ("sweep",), choices=("analytic", "empirical", "both"))
    linearize: bool = _flag(False, ("estimate",))

    def validate(self) -> None:
        # argparse checks choices on the command line only, not on --config
        # values; and ``nan <= 0`` is false, so no bound below rejects a nan
        for f in fields(self):
            value, choices = getattr(self, f.name), f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"unknown {f.name.replace('_', ' ')} {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{f.name.replace('_', '-')} must be finite, got {value!r}")
        if min(self.d, self.width, self.outputs) < 1 or self.depth < 2:
            raise ValueError("need d, width, outputs >= 1 and depth >= 2")
        if self.eta <= 0 or self.sigma2 <= 0:
            raise ValueError("eta and sigma2 must be positive")
        if self.steps < 0 or self.runs < 1 or self.samples < 2:
            raise ValueError("steps must be >= 0, runs >= 1, samples >= 2")
        if self.runs >= _DATA_CHILD:
            # run r draws from RngStream(seed).child(r); the data streams start here
            raise ValueError(f"runs must be below {_DATA_CHILD}")
        if self.pool_size < 1 or self.cap < 1 or self.record_every < 1:
            raise ValueError("pool-size, cap and record-every must be positive")
        if self.n is not None and self.n < 1:
            raise ValueError(f"--n must be at least 1, got {self.n}")
        if self.mc_n < 1:
            raise ValueError(f"--mc-n must be at least 1, got {self.mc_n}")

    def header_items(self) -> list[tuple[str, str]]:
        items = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = int(v)
            items.append((f.name, "" if v is None else _fmt(v)))
        return sorted(items)

    @property
    def convention(self) -> KLConstant:
        return KLConstant(self.kl_constant)

    @property
    def horizon(self) -> float:
        return self.time if self.time is not None else self.eta * self.steps


def _base_type(hint) -> type:
    """``int`` for ``int`` and ``int | None``; likewise for the other field types."""
    return next((a for a in typing.get_args(hint) if a is not type(None)), hint)


_FIELD_HINTS = typing.get_type_hints(RunConfig)
_FIELD_TYPES = {name: _base_type(hint) for name, hint in _FIELD_HINTS.items()}


def _coerce_field(name: str, raw: str):
    """Convert a config-file string to the RunConfig field type."""
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {name!r}")
    if raw == "":
        if type(None) not in typing.get_args(_FIELD_HINTS[name]):
            raise ValueError(f"empty value for {name!r}")
        return None
    kind = _FIELD_TYPES[name]
    try:
        if kind is bool:
            return {"0": False, "false": False, "1": True, "true": True}[raw]
        return kind(raw)
    except (KeyError, ValueError):
        raise ValueError(f"bad {kind.__name__} for {name!r}: {raw!r}") from None


def load_config_file(path: str) -> dict:
    """Read flat key=value lines; '#' starts a comment, blank lines ignored.

    Files written by this tool (first line `# klpriv-version=...`) can be
    passed back directly: the embedded `# key=value` header is the config
    and the data rows are skipped.
    """
    out = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    artifact = bool(lines) and lines[0].startswith("# klpriv-version=")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if artifact:
            # the header's key=value lines; data rows and notes carry no config
            if not line.startswith("#") or "=" not in line:
                continue
            line = line.lstrip("# ")
        elif not line or line.startswith("#"):
            continue
        elif "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in ("klpriv_version", "command"):
            continue
        out[key] = _coerce_field(key, raw.strip())
    return out


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_table(cfg: RunConfig, columns: list[str], rows: list[tuple],
                 out: str | None) -> None:
    lines = [f"# klpriv-version={__version__}"]
    lines += [f"# {k}={v}" for k, v in cfg.header_items()]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Shared resolution helpers
# ---------------------------------------------------------------------------

def _schemes(cfg: RunConfig, allow_all: bool = True) -> list[str]:
    if cfg.scheme == "all":
        if not allow_all:
            raise ValueError(f"{cfg.command} needs a single scheme, not 'all'")
        return list(SCHEME_NAMES)
    return [cfg.scheme]


def _load_data(cfg: RunConfig) -> Dataset:
    """The records of the ``--data`` spec: a synthetic sample or every csv row."""
    n = _synth_size(cfg.data)
    if n is None:
        return load_csv(cfg.data.split(":", 1)[1], cfg.label_column)
    if cfg.outputs != 1:
        raise ValueError("synthetic data is binary; multi-output runs need csv data")
    return synth_sphere(n, cfg.d, RngStream(cfg.seed).child(_DATA_CHILD))


def _resolve_data(cfg: RunConfig) -> tuple[Dataset, Dataset | None]:
    """Dataset and (when the notion needs one) a candidate pool, drawn or the csv's last rows."""
    full = _load_data(cfg)
    if Neighbor(cfg.neighbor) is Neighbor.REMOVE_ONE:
        return full, None
    if _synth_size(cfg.data) is not None:
        return full, synth_sphere(cfg.pool_size, cfg.d, RngStream(cfg.seed).child(_POOL_CHILD))
    if full.n <= cfg.pool_size:
        raise ValueError("dataset too small to hold out a candidate pool")
    k = cfg.pool_size
    return Dataset(X=full.X[:-k], Y=full.Y[:-k]), Dataset(X=full.X[-k:], Y=full.Y[-k:])


def _synth_size(spec: str) -> int | None:
    """Size n of a ``synth:<n>`` data spec, or None for a ``csv:<path>`` spec."""
    if spec.startswith("csv:"):
        return None
    n = None
    if spec.startswith("synth:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            pass
    if n is None:
        raise ValueError(f"bad data spec {spec!r}; expected synth:<n> or csv:<path>")
    if n < 1:
        raise ValueError("synthetic dataset size must be positive")
    return n


def _dataset_size(cfg: RunConfig) -> int:
    if cfg.n is not None:
        return cfg.n
    n = _synth_size(cfg.data)
    if n is None:
        raise ValueError("--n is required when the data spec is a csv file")
    return n


def _sphere_input(d: int, seed: int) -> np.ndarray:
    x = RngStream(seed).child(_DATA_CHILD).generator().standard_normal(d)
    return x * (math.sqrt(d) / np.linalg.norm(x))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_bound(cfg: RunConfig) -> int:
    """Analytic bounds for each requested scheme."""
    n = _dataset_size(cfg)
    T = cfg.horizon
    rows = []
    for scheme in _schemes(cfg):
        arch = NetArch.uniform(cfg.d, cfg.width, cfg.depth, cfg.outputs)
        betas = init_betas(scheme, arch)
        B = gradient_norm_constant_B(arch, betas)
        kl = kl_bound_linearized(B, T, n, cfg.sigma2, cfg.convention)
        rows.append((scheme, "B", B))
        rows.append((scheme, "table_B", table_closed_form_B(scheme, cfg.d, cfg.width,
                                                            cfg.depth, cfg.outputs)))
        rows.append((scheme, "kl_bound_linearized", kl))
        rows.append((scheme, "dp_delta", kl_to_dp_delta(kl)))
        if cfg.x_sqnorm is not None:
            rows.append((scheme, "expected_grad_norm_init",
                         expected_grad_norm_init(arch, betas, cfg.x_sqnorm)))
            rows.append((scheme, "expected_output_sqnorm_init",
                         expected_output_sqnorm_init(arch, betas, cfg.x_sqnorm)))
        if cfg.beta_smooth is not None:
            c = cfg.c_grad if cfg.c_grad is not None else math.sqrt(B)
            inputs = DnnBoundInputs(
                T=T, n=n, sigma2=cfg.sigma2, beta_smooth=cfg.beta_smooth,
                c_grad=c,
                rank_mt=cfg.rank_mt if cfg.rank_mt is not None else min(n, arch.num_params),
                e_delta0=cfg.e_delta0 if cfg.e_delta0 is not None else 4.0 * B / n ** 2,
                e_grad0=cfg.e_grad0 if cfg.e_grad0 is not None else B)
            report = dnn_drift_bound(inputs, cfg.convention)
            rows.append((scheme, "kl_bound_dnn", report.value))
            rows.append((scheme, "dnn_integral", report.integral))
            for term, val in report.terms.items():
                rows.append((scheme, f"dnn_term_{term}", val))
            rows.append((scheme, "dnn_exponential_regime",
                         1 if report.exponential_regime else 0))
    _write_table(cfg, ["scheme", "metric", "value"], rows, cfg.out)
    return 0


def _estimate_result(cfg: RunConfig, scheme: str, data: Dataset, pool: Dataset | None):
    """KL estimate on ``data`` and ``pool`` as resolved by :func:`_resolve_data`."""
    arch = NetArch.uniform(data.d, cfg.width, cfg.depth, cfg.outputs)
    neighbors = enumerate_neighbors(data, Neighbor(cfg.neighbor), pool=pool,
                                    cap=cfg.cap, seed=cfg.seed)
    where = f"[{cfg.command}] scheme={scheme} width={cfg.width} depth={cfg.depth}:"
    if neighbors.capped:
        # the worst case is over a subsample: say so, outside the csv
        print(f"{where} kept {neighbors.count} of {data.n * pool.n} replace-one pairs "
              f"(cap {cfg.cap}, cap seed {cfg.seed})", file=sys.stderr)
    if cfg.linearize:
        model = LinearizedModel(sample_init(arch, scheme, RngStream(cfg.seed).child(_INIT_CHILD)))
    else:
        model = DnnModel(arch, scheme)
    tc = TrainConfig(eta=cfg.eta, steps=cfg.steps, sigma2=cfg.sigma2, runs=cfg.runs,
                     seed=cfg.seed, kl_constant=cfg.convention,
                     record_every=cfg.record_every)
    result = run_kl_estimation(model, data, neighbors, tc)
    for r, trace in enumerate(result.traces):
        if trace.left_by is not None:
            print(f"{where} run {r} left at step {trace.completed + 1} ({trace.left_by})",
                  file=sys.stderr)
    return result


def _trace_rows(result) -> list[tuple]:
    """(step, mean, std, diverged) rows of a KL trace table, from step 0 on.

    Mean and std are over runs of the worst-neighbor KL; ``diverged`` is 1
    where some run diverged before the step.
    """
    rows = [(0, 0.0, 0.0, 0)]
    for step, mean, std in zip(result.recorded_steps.tolist(), result.worst_mean,
                               result.worst_std):
        diverged = any(t.diverged and step > t.completed for t in result.traces)
        rows.append((step, float(mean), float(std), 1 if diverged else 0))
    return rows


def cmd_estimate(cfg: RunConfig) -> int:
    """Empirical worst-case KL trace for one scheme."""
    scheme = _schemes(cfg, allow_all=False)[0]
    data, pool = _resolve_data(cfg)
    # the header records the d trained on, which a csv fixes
    cfg = replace(cfg, d=data.d)
    result = _estimate_result(cfg, scheme, data, pool)
    _write_table(cfg, ["epochs", "kl_means", "kl_stds", "diverged"],
                 _trace_rows(result), cfg.out)
    if cfg.out is not None:
        detail = [(r, j, float(t.cumulative_per_neighbor[j]))
                  for r, t in enumerate(result.traces)
                  for j in range(t.cumulative_per_neighbor.size)]
        _write_table(cfg, ["run", "neighbor", "kl_final"], detail,
                     cfg.out + ".neighbors.csv")
    return 3 if result.diverged_any else 0


def cmd_mc_verify(cfg: RunConfig) -> int:
    """Monte Carlo checks of the initialization moments against closed forms."""
    rows = []
    base = RngStream(cfg.seed)
    x = _sphere_input(cfg.d, cfg.seed)
    if cfg.outputs == 1:
        # wrapped to 64 bits, so the largest seed draws its second record too
        xb = _sphere_input(cfg.d, (cfg.seed + 1) % (1 << 64))
    arch = NetArch.uniform(cfg.d, cfg.width, cfg.depth, cfg.outputs)
    # every cfg field is read here, before the checks run in forked workers
    checks = []
    for si, scheme in enumerate(_schemes(cfg)):
        checks += [
            (scheme, "grad_norm_init", partial(
                mc_grad_norm_at_init, arch, scheme, x, cfg.samples, base.child(3 * si))),
            (scheme, "output_sqnorm_init", partial(
                mc_output_sqnorm, arch, scheme, x, cfg.samples, base.child(3 * si + 1))),
        ]
        if cfg.outputs == 1:
            checks.append((scheme, "linearized_grad_diff", partial(
                mc_linearized_grad_diff, arch, scheme, (x, 1.0), (xb, -1.0), cfg.mc_n,
                cfg.samples, base.child(3 * si + 2))))
    reports = _fork_map(lambda check: check(), [check for _, _, check in checks])
    for (scheme, name, _), rep in zip(checks, reports):
        rows.append((scheme, name, rep.mean, rep.stderr, rep.samples,
                     rep.reference, rep.z_score, 1 if rep.violation else 0))
        status = "FAIL" if rep.violation else "ok"
        print(f"[mc-verify] {scheme} {name}: mean={rep.mean:.6g} "
              f"ref={rep.reference:.6g} z={rep.z_score:+.2f} {status}", file=sys.stderr)
    _write_table(cfg, ["scheme", "check", "mean", "stderr", "samples",
                       "reference", "z", "violation"], rows, cfg.out)
    return 0


def cmd_lazy(cfg: RunConfig) -> int:
    """Interpolator diagnostics and an optional linearized training run."""
    scheme = _schemes(cfg, allow_all=False)[0]
    if cfg.outputs != 1:
        raise ValueError("the lazy construction needs a single output")
    data = _load_data(cfg)
    cfg = replace(cfg, d=data.d)
    arch = NetArch.uniform(data.d, cfg.width, cfg.depth, cfg.outputs)
    betas = init_betas(scheme, arch)
    W0 = sample_init(arch, betas, RngStream(cfg.seed).child(_INIT_CHILD))
    features = build_features(W0, data.X)
    sol = lazy_solution(features, data.Y, ridge=cfg.ridge)
    target = 1.0 / data.n ** 2
    rows = [
        ("lambda_min", sol.gram.lambda_min),
        ("rank_M0", sol.gram.rank),
        ("R", sol.R),
        ("R_bound_order_of_magnitude", lazy_R_bound(arch, betas, data.n)),
        ("achieved_loss", sol.achieved_loss),
        ("loss_target", target),
        ("below_target", 1 if sol.achieved_loss < target else 0),
        ("alpha_gap", sol.achieved_loss),
        ("ridge_used", sol.ridge_used),
    ]
    if cfg.steps > 0:
        # averaged-iterate excess risk of noisy GD on the linearized model,
        # measured against the near-optimal interpolator
        W_avg = lin_averaged_iterate(features, data.Y, cfg.eta, cfg.sigma2, cfg.steps,
                                     run_streams(cfg.seed, 0)[1])
        avg_loss = lin_empirical_loss(features, W_avg, data.Y, LossKind.LOGISTIC_SINGLE)
        bound = averaged_iterate_risk_bound(sol.achieved_loss, sol.R, cfg.eta * cfg.steps,
                                            cfg.sigma2, sol.gram.rank)
        rows.append(("averaged_iterate_loss", avg_loss))
        rows.append(("excess_vs_interpolator", avg_loss - sol.achieved_loss))
        rows.append(("risk_bound", bound))
    _write_table(cfg, ["metric", "value"], rows, cfg.out)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    """Grid over schemes, widths and depths in long format.

    Every cell reads the same flags and data, so an error in one cell is an
    error of the set-up: it reaches :func:`main`, which exits 2 before
    anything is written.
    """
    try:
        widths = [int(w) for w in cfg.widths.split(",") if w]
        depths = [int(v) for v in cfg.depths.split(",") if v]
    except ValueError:
        raise ValueError("widths and depths must be comma-separated integers")
    if not widths or not depths:
        raise ValueError("need at least one width and one depth")
    # a bad grid exits before any cell runs, as estimate's --width and --depth do
    bad = [f"width {w}" for w in widths if w < 1] + [f"depth {v}" for v in depths if v < 2]
    if bad:
        raise ValueError(f"widths must be at least 1 and depths at least 2, got {bad[0]}")
    train = cfg.metric in ("empirical", "both")
    if train:
        # the analytic rows bound the problem that the empirical rows train on
        resolved = _resolve_data(cfg)
        d, n = resolved[0].d, resolved[0].n
        if cfg.n is not None and cfg.n != n:
            raise ValueError(f"--n {cfg.n} differs from the {n} records the sweep trains on")
        cfg = replace(cfg, d=d)
    else:
        d, n = cfg.d, _dataset_size(cfg)
    rows = []
    any_diverged = False
    for scheme in _schemes(cfg):
        for m in widths:
            for L in depths:
                if cfg.metric in ("analytic", "both"):
                    arch = NetArch.uniform(d, m, L, cfg.outputs)
                    B = gradient_norm_constant_B(arch, init_betas(scheme, arch))
                    for step in [0, *_recorded_steps(cfg.steps, cfg.record_every).tolist()]:
                        kl = kl_bound_linearized(B, cfg.eta * step, n, cfg.sigma2,
                                                 cfg.convention) if step else 0.0
                        rows.append((scheme, m, L, step, "kl_bound", kl))
                if train:
                    cell = replace(cfg, scheme=scheme, width=m, depth=L)
                    result = _estimate_result(cell, scheme, *resolved)
                    for step, mean, std, _ in _trace_rows(result):
                        rows.append((scheme, m, L, step, "kl_mean", mean))
                        rows.append((scheme, m, L, step, "kl_std", std))
                    if result.diverged_any:
                        any_diverged = True
                        rows.append((scheme, m, L, int(cfg.steps), "diverged", 1.0))
    _write_table(cfg, ["scheme", "width", "depth", "epoch", "metric", "value"],
                 rows, cfg.out)
    return 3 if any_diverged else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "bound": (cmd_bound, "analytic KL bounds"),
    "estimate": (cmd_estimate, "empirical worst-case KL trace"),
    "mc-verify": (cmd_mc_verify, "Monte Carlo moment checks"),
    "lazy": (cmd_lazy, "interpolator diagnostics"),
    "sweep": (cmd_sweep, "scheme/width/depth grid"),
}


def build_parser(overrides: dict | None = None) -> argparse.ArgumentParser:
    """Parser with one subcommand per command, each with the flags of its RunConfig fields.

    ``overrides`` (from ``--config``) replace the field defaults.  Flags
    are not abbreviated: ``sweep --width`` must not pass for ``--widths``.
    """
    overrides = overrides or {}
    parser = argparse.ArgumentParser(prog="klpriv", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", default=None, help="key=value file with defaults")
        for f in fields(RunConfig):
            kwargs = dict(f.metadata)
            # ``command``, the subcommand itself, has no metadata
            if command not in kwargs.pop("commands", ()):
                continue
            default = overrides.get(f.name, f.default)
            if _FIELD_TYPES[f.name] is bool:
                kwargs.update(action="store_true", default=bool(default))
            else:
                kwargs.update(type=_FIELD_TYPES[f.name], default=default)
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    try:
        overrides = load_config_file(known.config) if known.config else {}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser(overrides)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    kwargs = {f.name: getattr(ns, f.name) for f in fields(RunConfig)
              if hasattr(ns, f.name)}
    cfg = RunConfig(**kwargs)
    try:
        cfg.validate()
        return _COMMANDS[cfg.command][0](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
