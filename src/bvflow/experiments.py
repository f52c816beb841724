"""Scenario configuration, sweep execution, rate fitting, and the
invariant check suite.

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
    "InvariantResult",
]


class ConfigError(ValueError):
    """Configuration parse/validation failure; carries key and line."""

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        loc = []
        if key is not None:
            loc.append(f"key {key!r}")
        if line is not None:
            loc.append(f"line {line}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(f"{message}{suffix}")


@dataclass
class ScenarioConfig:
    field_id: str = "C"
    solver_method: str = "rk4_event"
    solver_step: float = 1e-3
    solver_event_tol: float = 1e-12
    solver_max_crossings: int = 1000
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
        "solver.event_tol": ("solver_event_tol", float),
        "solver.max_crossings": ("solver_max_crossings", int),
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

    def validate(self) -> None:
        if self.field_id not in cat.FIELD_IDS:
            raise ConfigError(
                f"unknown field_id {self.field_id!r}; catalog ids are "
                f"{', '.join(cat.FIELD_IDS)}",
                key="field_id",
            )
        if self.kernel_profile not in PROFILES:
            raise ConfigError(
                f"unknown kernel.profile {self.kernel_profile!r}",
                key="kernel.profile",
            )
        if self.kernel_eta_kind not in ("constant", "mollified_normal"):
            raise ConfigError(
                f"unknown kernel.eta_kind {self.kernel_eta_kind!r}",
                key="kernel.eta_kind",
            )
        if self.solver_method not in ("rk4_event", "explicit_exact"):
            raise ConfigError(
                f"unknown solver.method {self.solver_method!r}",
                key="solver.method",
            )
        for name, values in (
            ("functional.gamma", self.gammas),
            ("functional.epsilon", self.epsilons),
            ("functional.t", self.t_values),
        ):
            if len(values) == 0:
                raise ConfigError("list must be nonempty", key=name)
        for e in self.epsilons:
            if not 0.0 < e < 0.5:
                raise ConfigError(
                    f"epsilon {e} outside (0, 1/2): scaled support must fit "
                    "the torus",
                    key="functional.epsilon",
                )
        for g in self.gammas:
            if g < 0:
                raise ConfigError("gamma must be nonnegative", key="functional.gamma")

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

    def direction_field(self) -> DirectionField:
        if self.kernel_eta_kind == "constant":
            return DirectionField.constant(self.kernel_eta_params)
        source_id = self.field_id if cat.get_field(self.field_id).has_jumps else "C"
        width = self.kernel_eta_params[0] if self.kernel_eta_params else 0.2
        return DirectionField.mollified_normal(cat.get_field(source_id), width)


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
    cfg.validate()
    return cfg


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


def _scenario_flows(cfg: ScenarioConfig):
    fld = cat.get_field(cfg.field_id)
    solver = flow_mod.FlowSolverConfig(
        step=cfg.solver_step,
        method=cfg.solver_method,
        event_tol=cfg.solver_event_tol,
        max_crossings=cfg.solver_max_crossings,
    )
    flow_x = flow_mod.make_flow_map(fld, cfg.solver_method, solver)
    # second flow: the other solver route when one exists
    if fld.has_jumps or fld.id == "B":
        flow_y = flow_mod.ExactFlowMap(fld)
    else:
        flow_y = flow_x
    return fld, flow_x, flow_y


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> dict:
    """Execute a scenario; writes report.csv, sweep.csv and meta.

    Returns the output paths.  Numerical failures (NaN, non-transversal
    crossings) propagate to the caller; the CLI maps them to exit 3.
    """
    t_start = time.time()
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    fld, flow_x, flow_y = _scenario_flows(cfg)
    eta = cfg.direction_field()
    profile = PROFILES[cfg.kernel_profile]

    # the singular majorant at C(t) = 1, once per gamma: a report row
    # scales it by C(t)^2 and the sweep takes it as it is
    singular_unit = {
        float(g): fn.singular_bound(fld, AnisotropicKernel(profile, eta, float(g)))
        for g in cfg.gammas
    }
    rows = []
    for eps in cfg.epsilons:
        for gamma in cfg.gammas:
            kernel = AnisotropicKernel(profile, eta, float(gamma))
            fcfg = fn.FunctionalConfig(
                epsilon=float(eps), n_x=cfg.n_x, n_z=cfg.n_z, dt_fd=cfg.dt_fd
            )
            for t in cfg.t_values:
                rows.append(
                    fn.discrepancy_report(flow_x, flow_y, fld, kernel, fcfg, float(t),
                                          singular_unit=singular_unit[float(gamma)])
                )

    report_path = os.path.join(out, "report.csv")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(fn.DiscrepancyReport.CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(r.csv_row() + "\n")

    sweeps = []
    if len(cfg.gammas) >= 3 and fld.has_jumps:
        g = np.asarray(cfg.gammas, dtype=float)
        sb = np.array([singular_unit[float(gv)] for gv in g])
        sweeps.append(
            SweepResult("singular_bound", "1+gamma", 1.0 + g, sb).fit()
        )
    if len(cfg.epsilons) >= 3:
        e = np.asarray(sorted(cfg.epsilons), dtype=float)
        t0 = float(cfg.t_values[0])
        kernel = AnisotropicKernel(profile, eta, float(cfg.gammas[0]))
        d_vals = []
        for ev in e:
            fcfg = fn.FunctionalConfig(
                epsilon=float(ev), n_x=cfg.n_x, n_z=cfg.n_z, dt_fd=cfg.dt_fd
            )
            d_vals.append(fn.discrepancy_D(flow_x, flow_y, fld, kernel, fcfg, t0))
        sweeps.append(SweepResult("D", "epsilon", e, np.asarray(d_vals)).fit())

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
    # off-jump points, with the scenario's kernel at its first gamma
    rng = np.random.default_rng(cfg.seed)
    kernel = AnisotropicKernel(profile, eta, float(cfg.gammas[0]))
    spot = 0.0
    tried = 0
    while tried < 10:
        x = rng.random(2)
        if any(abs(j.level(x[None, :])[0]) < 1e-3 for j in fld.jumps):
            continue
        tried += 1
        spot = max(spot, abs(fn.R_a_check(fld, kernel, x, n_z=120)))

    meta_path = os.path.join(out, "meta")
    wall = time.time() - t_start
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write("# scenario echo; re-parses to an equivalent configuration\n")
        fh.write(f"# python {sys.version.split()[0]} numpy {np.__version__}\n")
        fh.write(f"# wall_time_s {wall:.3f}\n")
        fh.write(f"# spot_check_r_a_max_residual {spot:.3e} (10 seeded points)\n")
        for line in cfg.echo_lines():
            fh.write(line + "\n")
    return {"report": report_path, "sweep": sweep_path, "meta": meta_path}


# ---------------------------------------------------------------------------
# the invariant check suite
# ---------------------------------------------------------------------------


@dataclass
class InvariantResult:
    name: str
    passed: bool
    detail: str


def _check(name, condition, detail) -> InvariantResult:
    return InvariantResult(name, bool(condition), detail)


def run_checks(fast: bool = True):
    """Execute one check per spec-level invariant at quick settings.

    Returns a list of :class:`InvariantResult`; the CLI prints one line
    per entry and exits nonzero when any fails.  The full suite lives in
    the tests; this is the operational smoke battery (a fresh build must
    pass everything here in a few minutes).
    """
    from .kernels import poly_bump, smooth_exp
    from .torus import QuadratureGrid, integrate, min_image_coords, wrap_coords

    rng = np.random.default_rng(20240831)
    results = []

    # torus: wrap idempotence and min-image antisymmetry
    pts = rng.normal(scale=3.0, size=(256, 2))
    w1 = wrap_coords(pts)
    results.append(
        _check(
            "torus.wrap_idempotent",
            np.array_equal(wrap_coords(w1), w1),
            "wrap(wrap(v)) == wrap(v) on 256 samples",
        )
    )
    a, b = rng.random((2, 256, 2))
    anti = np.max(np.abs(min_image_coords(a, b) + min_image_coords(b, a)))
    results.append(
        _check("torus.min_image_antisymmetry", anti < 1e-15, f"max defect {anti:.2e}")
    )
    grid = QuadratureGrid.torus(48, 2)
    f1 = lambda p: np.sin(2 * np.pi * p[:, 0])
    f2 = lambda p: np.cos(2 * np.pi * (p[:, 0] + 2 * p[:, 1]))
    lin = abs(
        integrate(lambda p: 2.0 * f1(p) + 3.0 * f2(p), grid)
        - 2.0 * integrate(f1, grid)
        - 3.0 * integrate(f2, grid)
    )
    results.append(_check("torus.integrate_linear", lin < 1e-14, f"defect {lin:.2e}"))

    # fields: orthogonality, rank-one structure, divergence identity
    worst_orth = 0.0
    worst_rank = 0.0
    for fid in ("C", "D"):
        fld = cat.get_field(fid)
        for jump in fld.jumps:
            xi = np.asarray(jump.xi)
            eta_b = np.asarray(jump.eta)
            worst_orth = max(worst_orth, abs(float(xi @ eta_b)))
            sv = np.linalg.svd(np.outer(xi, eta_b), compute_uv=False)
            worst_rank = max(worst_rank, abs(sv[0] - 1.0), abs(sv[1]))
    results.append(
        _check(
            "fields.rank_one_orthogonal",
            worst_orth < 1e-14 and worst_rank < 1e-14,
            f"max <xi,eta> {worst_orth:.2e}, singular value defect {worst_rank:.2e}",
        )
    )
    phis = [
        cat.TrigPolynomial(((0.7, (1, 0), 0.3), (0.4, (0, 2), 1.1))),
        cat.TrigPolynomial(((1.0, (2, 1), 0.0),)),
    ]
    worst_div = 0.0
    for fid in cat.FIELD_IDS:
        fld = cat.get_field(fid)
        for phi in phis:
            worst_div = max(
                worst_div, abs(cat.distributional_divergence_check(fld, phi, 128))
            )
    results.append(
        _check(
            "fields.distributional_divergence",
            worst_div < 1e-8,
            f"max residual {worst_div:.2e} over fields x test functions",
        )
    )
    grad_worst = 0.0
    h = 1e-6
    for fid in cat.FIELD_IDS:
        fld = cat.get_field(fid)
        pts = rng.random((40, 2))
        jac = fld.jacobian_many(pts)
        for k in range(2):
            dp = pts.copy()
            dp[:, k] += h
            dm = pts.copy()
            dm[:, k] -= h
            fd = (fld.eval_many(dp) - fld.eval_many(dm)) / (2 * h)
            interior = np.ones(pts.shape[0], dtype=bool)
            for jump in fld.jumps:
                interior &= np.abs(jump.level(pts)) > 4 * h
            grad_worst = max(
                grad_worst, float(np.max(np.abs(fd[interior] - jac[interior, :, k])))
            )
    results.append(
        _check(
            "fields.jacobian_finite_difference",
            grad_worst < 1e-4,
            f"max |FD - closed form| {grad_worst:.2e} (O(h^2) at h=1e-6)",
        )
    )

    # kernels: normalization across gamma, d1 integral, change of variables
    worst_norm = 0.0
    for profile in (smooth_exp, poly_bump):
        for gamma in (0.0, 1.0, 10.0, 100.0):
            for _ in range(3):
                ang = rng.random() * np.pi
                eta = DirectionField.constant((np.cos(ang), np.sin(ang)))
                kern = AnisotropicKernel(profile, eta, gamma)
                z, w = kern.z_quadrature(None, 160, rule="gauss")
                worst_norm = max(
                    worst_norm, abs(float(np.sum(kern.rho(None, z) * w)) - 1.0)
                )
    results.append(
        _check(
            "kernels.normalization",
            worst_norm < 1e-6,
            f"max |int rho - 1| {worst_norm:.2e} over profiles x gamma",
        )
    )
    eta_var = DirectionField.mollified_normal(cat.get_field("C"), 0.3)
    kern = AnisotropicKernel(poly_bump, eta_var, 2.0)
    worst_d1 = 0.0
    for _ in range(5):
        x = rng.random((1, 2))
        z, w = kern.z_quadrature(x, 160, rule="gauss")
        xs = np.broadcast_to(x, (z.shape[0], 2))
        val = np.linalg.norm(np.sum(kern.d1_rho(xs, z) * w[:, None], axis=0))
        worst_d1 = max(worst_d1, float(val))
    results.append(
        _check(
            "kernels.d1_rho_integral_zero",
            worst_d1 < 1e-6,
            f"max |int d1_rho dz| {worst_d1:.2e}",
        )
    )

    # scalar-product bounds at sampled jump data
    violations = 0
    for _ in range(2000):
        fid = ("C", "D")[rng.integers(2)]
        fld = cat.get_field(fid)
        jump = fld.jumps[rng.integers(len(fld.jumps))]
        xi = np.asarray(jump.xi)
        eta_b = np.asarray(jump.eta)
        gamma = float(10 ** (rng.random() * 3))
        delta = float(rng.random() * 0.3)
        c, s = np.cos(delta), np.sin(delta)
        eta = np.array([c * eta_b[0] - s * eta_b[1], s * eta_b[0] + c * eta_b[1]])
        z = rng.normal(size=2)
        z /= np.linalg.norm(z) * (1.0 + rng.random())
        u = np.eye(2) + gamma * np.outer(eta, eta)
        u_inv = np.eye(2) - (gamma / (1 + gamma)) * np.outer(eta, eta)
        mis = float(np.linalg.norm(eta - eta_b))
        lhs1 = abs(float(z @ (u @ xi)))
        rhs1 = (1.0 + gamma * mis) * float(np.linalg.norm(z))
        lhs2 = abs(float(eta_b @ (u_inv @ z)))
        rhs2 = (mis + 1.0 / (1.0 + gamma)) * float(np.linalg.norm(z))
        if lhs1 > rhs1 + 1e-12 or lhs2 > rhs2 + 1e-12:
            violations += 1
    results.append(
        _check(
            "kernels.scalar_product_bounds",
            violations == 0,
            f"{violations} violations in 2000 samples",
        )
    )

    # flow: group property, reversibility, density mass
    fld_a = cat.get_field("A")
    solver = flow_mod.FlowSolverConfig(step=2e-3)
    pts = rng.random((64, 2))
    ens = flow_mod.integrate_flow(fld_a, solver, pts, [0.0, 0.5])
    defect = flow_mod.check_group_property(ens, 0.2, 0.3, max_points=16)
    results.append(
        _check("flow.group_property", defect < 1e-7, f"defect {defect:.2e} (field A)")
    )
    back = flow_mod.integrate_flow(
        fld_a, solver, ens.positions[ens.time_index(0.5)], [0.0, -0.5]
    )
    from .torus import torus_distance

    rev = float(
        np.max(torus_distance(back.positions[back.time_index(-0.5)], pts))
    )
    results.append(
        _check("flow.backward_forward", rev < 1e-7, f"max return error {rev:.2e}")
    )
    grid96 = QuadratureGrid.torus(96).nodes
    fld_b = cat.get_field("B")
    axis256 = (np.arange(256) + 0.5) / 256
    grid_b = np.stack(
        np.meshgrid(axis256, axis256[:4], indexing="ij"), axis=-1
    ).reshape(-1, 2)
    exact_cfg = flow_mod.FlowSolverConfig(method="explicit_exact")
    ens_b = flow_mod.integrate_flow(fld_b, exact_cfg, grid_b, [0.0, 0.5])
    mass = flow_mod.density_from_flow(ens_b, 0.5).total_mass()
    results.append(
        _check(
            "flow.density_mass",
            abs(mass - 1.0) < 1e-6,
            f"int mu - 1 = {mass - 1.0:+.2e} (field B, t=0.5)",
        )
    )
    # field E violation triad
    fld_e = cat.get_field("E")
    viol = fld_e.singular_divergence_violation()
    exact = flow_mod.FlowSolverConfig(method="explicit_exact")
    ens_e = flow_mod.integrate_flow(fld_e, exact, grid96, [0.0, 0.4])
    hist = flow_mod.pushforward_histogram(ens_e, 0.4, 16)
    zl, zr = flow_mod.collision_branch_maps(grid96, 0.3)
    branch = float(np.mean(torus_distance(zl, zr)))
    results.append(
        _check(
            "flow.field_e_violations",
            viol > 0.9 and hist.values.max() > 5.0 and hist.values.min() == 0.0
            and branch >= 0.1,
            f"<xi,eta>={viol:.1f}, hist max {hist.values.max():.1f}, "
            f"empty bins, branch discrepancy {branch:.3f}",
        )
    )

    # functionals: R_a identity, singular decay, trace bound
    eta_x = DirectionField.constant((1.0, 0.0))
    worst_ra = 0.0
    for fid in ("A", "B", "C"):
        fld = cat.get_field(fid)
        for gamma in (0.0, 10.0):
            kern = AnisotropicKernel(poly_bump, eta_x, gamma)
            for _ in range(5):
                x = rng.random(2)
                ok_pt = all(
                    abs(j.level(x[None, :])[0]) > 1e-3 for j in fld.jumps
                )
                if not ok_pt:
                    continue
                worst_ra = max(worst_ra, abs(fn.R_a_check(fld, kern, x, n_z=160)))
    results.append(
        _check("functionals.R_a_identity", worst_ra < 1e-6, f"max residual {worst_ra:.2e}")
    )
    gs = np.array([0.0, 1.0, 3.0, 9.0, 27.0])
    sb = np.array(
        [
            fn.singular_bound(
                cat.get_field("C"), AnisotropicKernel(poly_bump, eta_x, g), n_z=96
            )
            for g in gs
        ]
    )
    slope, err = fit_rate(sb, 1.0 + gs)
    results.append(
        _check(
            "functionals.singular_decay",
            abs(slope + 1.0) < 0.05,
            f"log-log slope {slope:.4f} +- {err:.1e} vs -1",
        )
    )
    margins = []
    for _ in range(60):
        m = rng.normal(size=(2, 2))
        ang = rng.random() * np.pi
        res = fn.trace_identity(
            m, poly_bump, gammas=(float(10 ** (rng.random() * 2)),),
            eta_angles=(ang,), n_z=120,
        )
        margins.append(res.lower_margin)
    results.append(
        _check(
            "functionals.trace_lower_bound",
            min(margins) > -1e-8,
            f"worst margin {min(margins):.2e} over 60 random pairs",
        )
    )

    # experiments: exact power-law fit
    slope, err = fit_rate(np.array([1.0, 4.0, 9.0, 16.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    results.append(
        _check(
            "experiments.fit_rate_exact",
            abs(slope - 2.0) < 1e-12 and err < 1e-10,
            f"slope {slope:.12f} +- {err:.1e} on exact square law",
        )
    )
    if not fast:
        # decomposition consistency at reduced size (slow battery only)
        fld_c = cat.get_field("C")
        fmap = flow_mod.ExactFlowMap(fld_c)
        kern = AnisotropicKernel(poly_bump, eta_x, 0.0)
        fcfg = fn.FunctionalConfig(epsilon=0.05, n_x=32, n_z=32)
        res = fn.decomposition_check(fmap, fmap, fld_c, kern, fcfg, 0.3)
        results.append(
            _check(
                "functionals.decomposition",
                res["gap"] <= res["bound"],
                f"gap {res['gap']:.2e} vs bound {res['bound']:.2e}",
            )
        )
    return results
