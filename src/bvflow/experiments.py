"""Scenario configuration, sweep execution, rate fitting, and the
entry point of the invariant battery (the gates live in
:mod:`bvflow.gates`).

A scenario is a flat key=value file with dotted sections::

    field_id = C
    solver.method = rk4_event
    solver.step = 1e-3
    kernel.profile = poly_bump
    kernel.eta_kind = constant
    kernel.eta_params = 1 0
    functional.gamma = 0 1 3 9 27 81
    functional.epsilon = 0.1 0.05
    functional.t = 0.3
    functional.n_x = 48
    functional.n_z = 48
    output.dir = out
    seed = 1234

Lists are whitespace-separated.  ``run`` evaluates one
DiscrepancyReport row per (epsilon, gamma, t) into ``report.csv``,
fitted rates into ``sweep.csv``, and a ``meta`` file that echoes the
configuration in the same format (so it re-parses to an equivalent
scenario) plus version and timing comments.  All floats are written
with 17 significant digits; reruns are byte-identical.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import catalog as cat
from . import flow as flow_mod
from . import functionals as fn
from .kernels import AnisotropicKernel, DirectionField, PROFILES

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepResult",
    "parse_config",
    "run_scenario",
    "fit_rate",
    "run_checks",
]


class ConfigError(ValueError):
    """Configuration parse/validation failure; carries key and line.

    ``key`` is a tuple of keys when the rejected value was checked
    together with others.
    """

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        loc = []
        if key is not None:
            keys = (key,) if isinstance(key, str) else key
            loc.append("key " + " or ".join(repr(k) for k in keys))
        if line is not None:
            loc.append(f"line {line}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(f"{message}{suffix}")


@dataclass
class ScenarioConfig:
    field_id: str = "C"
    solver_method: str = "rk4_event"
    solver_step: float = 1e-3
    kernel_profile: str = "poly_bump"
    kernel_eta_kind: str = "constant"
    kernel_eta_params: tuple = (1.0, 0.0)
    gammas: tuple = (0.0,)
    epsilons: tuple = (0.05,)
    t_values: tuple = (0.3,)
    n_x: int = 48
    n_z: int = 48
    dt_fd: float = 1e-3
    output_dir: str = "out"
    seed: int = 1234

    KEYS = {
        "field_id": ("field_id", str),
        "solver.method": ("solver_method", str),
        "solver.step": ("solver_step", float),
        "kernel.profile": ("kernel_profile", str),
        "kernel.eta_kind": ("kernel_eta_kind", str),
        "kernel.eta_params": ("kernel_eta_params", "floats"),
        "functional.gamma": ("gammas", "floats"),
        "functional.epsilon": ("epsilons", "floats"),
        "functional.t": ("t_values", "floats"),
        "functional.n_x": ("n_x", int),
        "functional.n_z": ("n_z", int),
        "functional.dt_fd": ("dt_fd", float),
        "output.dir": ("output_dir", str),
        "seed": ("seed", int),
    }

    def echo_lines(self):
        def fmt(v):
            if isinstance(v, float):
                return f"{v:.17g}"
            return str(v)

        lines = []
        for key, (attr, kind) in self.KEYS.items():
            v = getattr(self, attr)
            if kind == "floats":
                lines.append(f"{key} = {' '.join(fmt(float(x)) for x in v)}")
            else:
                lines.append(f"{key} = {fmt(v)}")
        return lines


def parse_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError."""
    cfg = ScenarioConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError("expected key = value", line=lineno)
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in ScenarioConfig.KEYS:
            raise ConfigError(f"unknown key {key!r}", key=key, line=lineno)
        attr, kind = ScenarioConfig.KEYS[key]
        try:
            if kind == "floats":
                parsed = tuple(float(v) for v in value.replace(",", " ").split())
            elif kind is float:
                parsed = float(value)
            elif kind is int:
                parsed = int(value)
            else:
                parsed = value
        except ValueError as exc:
            raise ConfigError(f"bad value {value!r}: {exc}", key=key, line=lineno)
        setattr(cfg, attr, parsed)
    _build(cfg)
    return cfg


@contextmanager
def _named(*keys):
    """Re-raise a constructor's rejection as a ConfigError naming the
    scenario keys the rejected value came from."""
    key = keys[0] if len(keys) == 1 else keys
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"bad value: {exc.args[0]}", key=key) from exc
    except ValueError as exc:
        raise ConfigError(str(exc), key=key) from exc


def _build(cfg: ScenarioConfig):
    """Construct each library object of a scenario once: the field, its
    two flow maps, a kernel per gamma and a FunctionalConfig per epsilon.

    The library constructors do the validation; only what none of them
    sees (empty lists, the times, the direction kind, the width's value
    count) is checked here.
    """
    for key, values in (
        ("functional.gamma", cfg.gammas),
        ("functional.epsilon", cfg.epsilons),
        ("functional.t", cfg.t_values),
    ):
        if len(values) == 0:
            raise ConfigError("list must be nonempty", key=key)
    if not all(np.isfinite(cfg.t_values)):
        raise ConfigError("times must be finite", key="functional.t")
    if cfg.kernel_eta_kind not in ("constant", "mollified_normal"):
        raise ConfigError(
            f"unknown kernel.eta_kind {cfg.kernel_eta_kind!r}", key="kernel.eta_kind"
        )
    if cfg.kernel_eta_kind == "mollified_normal" and len(cfg.kernel_eta_params) != 1:
        raise ConfigError(
            "mollified_normal takes one value, the width", key="kernel.eta_params"
        )
    with _named("field_id"):
        fld = cat.get_field(cfg.field_id)
    with _named("kernel.profile"):
        profile = PROFILES[cfg.kernel_profile]
    with _named("solver.step", "solver.method"):
        solver = flow_mod.FlowSolverConfig(step=cfg.solver_step, method=cfg.solver_method)
    with _named("field_id", "solver.method"):
        flow_x = flow_mod.make_flow_map(fld, solver)
    # second flow: the other solver route when one exists
    flow_y = flow_mod.ExactFlowMap(fld) if fld.has_jumps or fld.id == "B" else flow_x
    with _named("kernel.eta_params"):
        if cfg.kernel_eta_kind == "constant":
            eta = DirectionField.constant(cfg.kernel_eta_params)
        else:
            source = fld if fld.has_jumps else cat.get_field("C")
            eta = DirectionField.mollified_normal(source, cfg.kernel_eta_params[0])
    with _named("functional.gamma", "kernel.eta_params"):
        kernels = {float(g): AnisotropicKernel(profile, eta, float(g)) for g in cfg.gammas}
    with _named("functional.epsilon", "functional.n_x", "functional.n_z",
                "functional.dt_fd"):
        fcfgs = {
            float(e): fn.FunctionalConfig(
                epsilon=float(e), n_x=cfg.n_x, n_z=cfg.n_z, dt_fd=cfg.dt_fd
            )
            for e in cfg.epsilons
        }
    return fld, flow_x, flow_y, kernels, fcfgs


@dataclass
class SweepResult:
    """Rows of (parameter -> measured value) plus log-log fits."""

    name: str
    x_label: str
    x_values: np.ndarray
    y_values: np.ndarray
    slope: float = float("nan")
    stderr: float = float("nan")

    def fit(self):
        if len(self.x_values) >= 3 and np.all(np.asarray(self.y_values) > 0):
            self.slope, self.stderr = fit_rate(self.y_values, self.x_values)
        return self


def fit_rate(y, x):
    """Least-squares slope of log y against log x, with standard error.

    Requires at least three strictly positive samples on each axis.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("rate fit needs at least 3 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("rate fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    a = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, residuals, *_ = np.linalg.lstsq(a, ly, rcond=None)
    dof = max(1, x.size - 2)
    if residuals.size:
        var = float(residuals[0]) / dof
    else:
        var = float(np.sum((ly - a @ coef) ** 2)) / dof
    gram_inv = np.linalg.inv(a.T @ a)
    stderr = float(np.sqrt(max(var, 0.0) * gram_inv[0, 0]))
    return float(coef[0]), stderr


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> dict:
    """Execute a scenario; writes report.csv, sweep.csv and meta.

    Returns the output paths.  Numerical failures (NaN, non-transversal
    crossings) propagate to the caller; the CLI maps them to exit 3.
    """
    t_start = time.time()
    fld, flow_x, flow_y, kernels, fcfgs = _build(cfg)
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)

    # the singular majorant at C(t) = 1, once per gamma: a report row
    # scales it by C(t)^2 and the sweep takes it as it is
    singular_unit = {g: fn.singular_bound(fld, k) for g, k in kernels.items()}
    rows = []
    for eps in cfg.epsilons:
        for gamma in cfg.gammas:
            for t in cfg.t_values:
                rows.append(
                    fn.discrepancy_report(flow_x, flow_y, fld, kernels[gamma], fcfgs[eps],
                                          float(t), singular_unit=singular_unit[gamma])
                )

    report_path = os.path.join(out, "report.csv")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(fn.DiscrepancyReport.CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(r.csv_row() + "\n")

    sweeps = []
    if len(cfg.gammas) >= 3 and fld.has_jumps:
        g = np.asarray(cfg.gammas, dtype=float)
        sb = np.array([singular_unit[gv] for gv in g])
        sweeps.append(
            SweepResult("singular_bound", "1+gamma", 1.0 + g, sb).fit()
        )
    if len(cfg.epsilons) >= 3:
        # D against eps at the first gamma and t: each value is already the
        # D of the report row with that eps
        e = np.asarray(sorted(cfg.epsilons), dtype=float)
        g0, t0 = float(cfg.gammas[0]), float(cfg.t_values[0])
        d_at = {}
        for r in rows:
            if r.gamma == g0 and r.t == t0:
                d_at.setdefault(r.epsilon, r.D)
        sweeps.append(SweepResult("D", "epsilon", e, np.array([d_at[ev] for ev in e])).fit())

    sweep_path = os.path.join(out, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("sweep,x_label,x,y,slope,stderr\n")
        for s in sweeps:
            for xv, yv in zip(s.x_values, s.y_values):
                fh.write(
                    f"{s.name},{s.x_label},{xv:.17g},{yv:.17g},"
                    f"{s.slope:.17g},{s.stderr:.17g}\n"
                )

    # seeded spot check: the integration-by-parts identity at random
    # off-jump points, with the scenario's kernel at its first gamma; where
    # grad_a b vanishes at every spot (the constant pieces of C and D) both
    # sides are 0 and the check would check nothing
    rng = np.random.default_rng(cfg.seed)
    spots = []
    while len(spots) < 10:
        x = rng.random(2)
        if any(abs(j.level(x[None, :])[0]) < 1e-3 for j in fld.jumps):
            continue
        spots.append(x)
    spots = np.array(spots)
    if np.any(fld.jacobian_many(spots)):
        residuals = fn.R_a_check(fld, kernels[cfg.gammas[0]], spots, n_z=120)
        spot = f"{max([0.0, *np.abs(residuals)]):.3e} (10 seeded points)"
    else:
        spot = "n/a (grad_a b = 0 at the 10 seeded points)"

    meta_path = os.path.join(out, "meta")
    wall = time.time() - t_start
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write("# scenario echo; re-parses to an equivalent configuration\n")
        fh.write(f"# python {sys.version.split()[0]} numpy {np.__version__}\n")
        fh.write(f"# wall_time_s {wall:.3f}\n")
        fh.write(f"# spot_check_r_a_max_residual {spot}\n")
        for line in cfg.echo_lines():
            fh.write(line + "\n")
    return {"report": report_path, "sweep": sweep_path, "meta": meta_path}


def run_checks(fast: bool = True):
    """Run every gate of :mod:`bvflow.gates` in its order, at the fast
    size (``bvflow check``) or at the acceptance size (``check --full``).

    Returns a list of :class:`bvflow.gates.InvariantResult`; the CLI
    prints one line per entry and exits nonzero when any fails.
    """
    from . import gates  # on first use: a scenario run never loads it

    return [gate(full=not fast) for gate in gates.GATES]
