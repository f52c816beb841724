"""The benchmark's workloads: fixed case lists, their inputs, and the
checks of their outputs.

A workload has a ``setup(seed, workdir)`` that builds everything a pass
needs, a fixed list of cases (one case is one operation), a ``check``
that returns the failures found in one pass's outputs, and an
``errors`` that returns the per-case errors above round-off that
``err_gmean`` averages.  Checks compare against references built here,
apart from the program (closed forms, an analytic x-integration), or
against properties the method must have; never against stored output.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bvflow import catalog as cat
from bvflow import experiments as exp
from bvflow import flow
from bvflow import functionals as fn
from bvflow.kernels import AnisotropicKernel, DirectionField, poly_bump

ETA_X = DirectionField.constant((1.0, 0.0))

# tolerances; the measured values they guard are in README.md
STRIP_REL_GAP_TOL = 1e-2  # |I_eps_fd - (I1 + I2)| / |I_eps_fd|, n_x = n_z = 16
STRIP_D_REL_TOL = 1e-12  # D against the analytic x-integration
ROUNDOFF_TOL = 1e-12  # quantities that vanish exactly (X = Y, constant eta)
SLOPE_TOL = 1e-9  # singular_bound against 1/(1+gamma)
B_MAP_TOL = 1e-13  # B map against the atan2 oracle; log J scaled by 1/|sin 2 pi x1|
UNIQUE_L_TOL = 1e-5  # max L(t) for two routes to C's flow
ORDER_RANGE = (3.5, 4.5)  # log2 of B's residual ratios under step halving
CROSSING_TOL = 1e-9  # transversal field against its closed form


@dataclass
class Workload:
    setup: Callable
    cases: tuple  # (name, callable(state) -> output)
    check: Callable  # (state, outputs) -> list of failure messages
    errors: Callable  # (outputs) -> list of errors above round-off


# ---------------------------------------------------------------------------
# report_strip: the `bvflow run` path on the strip fields C and D
# ---------------------------------------------------------------------------

STRIP_CASES = (("C", (1.0, 0.0)), ("D", (2.0, 1.0)))  # kernel eta = jump normal
STRIP_GAMMAS = (0.0, 3.0, 9.0)
STRIP_EPS, STRIP_T, STRIP_N = 0.05, 0.3, 16

# level-coordinate normal and the two piece values of each strip field
STRIP_GEOMETRY = {
    "C": ((1.0, 0.0), (0.0, 1.0)),
    "D": ((2.0, 1.0), tuple(np.array([-1.0, 2.0]) / math.sqrt(5.0))),
}


def setup_report_strip(seed, workdir):
    poly_bump.normalization(2)  # the profile's normalization is computed lazily
    paths = {}
    for fid, eta in STRIP_CASES:
        out = os.path.join(workdir, fid)
        path = os.path.join(workdir, f"{fid}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"field_id = {fid}\n"
                "solver.method = rk4_event\n"
                "kernel.profile = poly_bump\n"
                "kernel.eta_kind = constant\n"
                f"kernel.eta_params = {eta[0]} {eta[1]}\n"
                f"functional.gamma = {' '.join(str(g) for g in STRIP_GAMMAS)}\n"
                f"functional.epsilon = {STRIP_EPS}\n"
                f"functional.t = {STRIP_T}\n"
                f"functional.n_x = {STRIP_N}\n"
                f"functional.n_z = {STRIP_N}\n"
                f"output.dir = {out}\n"
                f"seed = {seed}\n"
            )
        paths[fid] = path
    return {"configs": paths}


def _run_strip(fid):
    def case(state):
        cfg = exp.parse_config(state["configs"][fid])
        return exp.run_scenario(cfg)
    return case


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def strip_D_oracle(fid, eta_vec, gamma, eps, t, n_z):
    """D(t) for X = Y = the exact flow of strip field C or D.

    Both flows translate each strip rigidly with unit density, so the
    x-integral is analytic in the level coordinate s = <x, n> mod 1: for a
    level shift delta = eps <n, z>, a share 1 - 2|delta| of the x lie
    with x + eps z in their own strip (distance eps|z|), and a share
    |delta| crosses each way (distance |t(v_from - v_to) - eps z| on the
    torus).  The z-integral is the midpoint rule on the unit disk in
    w = U z, the rule the engine uses, written out again here.
    """
    n_vec, v0 = (np.asarray(a, dtype=float) for a in STRIP_GEOMETRY[fid])
    v1 = -v0
    h = 2.0 / n_z
    axis = -1.0 + (np.arange(n_z) + 0.5) * h
    w = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    r2 = np.sum(w * w, axis=1)
    w, r2 = w[r2 < 1.0], r2[r2 < 1.0]
    e = np.asarray(eta_vec, dtype=float) / np.linalg.norm(eta_vec)
    z = w - (gamma / (1.0 + gamma)) * (w @ e)[:, None] * e[None, :]
    weight = h * h * (5.0 / math.pi) * (1.0 - r2) ** 4  # F0 of poly_bump in 2-d

    def torus_norm(v):
        return np.linalg.norm(v - np.floor(v + 0.5), axis=-1)

    delta = np.abs(eps * (z @ n_vec))
    same = (1.0 - 2.0 * delta) * np.linalg.norm(eps * z, axis=-1)
    cross = delta * (
        torus_norm(t * (v0 - v1) - eps * z) + torus_norm(t * (v1 - v0) - eps * z)
    )
    return float(np.sum(weight * (same + cross)))


def check_report_strip(state, outputs):
    failures = []
    for (fid, eta), paths in zip(STRIP_CASES, outputs):
        rows = _read_csv(paths["report"])
        if [float(r["gamma"]) for r in rows] != list(STRIP_GAMMAS):
            failures.append(f"{fid}: report rows {len(rows)} do not cover the gamma list")
            continue
        for r in rows:
            tag = f"{fid} gamma={r['gamma']}"
            i_fd, i1, i2 = float(r["I_eps_fd"]), float(r["I1"]), float(r["I2"])
            rel = abs(i_fd - (i1 + i2)) / abs(i_fd)
            if not rel <= STRIP_REL_GAP_TOL:
                failures.append(f"{tag}: |I_fd-(I1+I2)|/|I_fd| = {rel:.3e}")
            if not abs(i1) <= ROUNDOFF_TOL:
                failures.append(f"{tag}: I1 = {i1:.3e} for a constant eta")
            for col in ("eqfin_residual", "I2_a_limit"):
                if not abs(float(r[col])) <= ROUNDOFF_TOL:
                    failures.append(f"{tag}: {col} = {float(r[col]):.3e} with X = Y")
            ref = strip_D_oracle(fid, eta, float(r["gamma"]), float(r["epsilon"]),
                                 float(r["t"]), int(r["n_z"]))
            if not abs(float(r["D"]) - ref) <= STRIP_D_REL_TOL * ref:
                failures.append(f"{tag}: D = {r['D']} against {ref!r}")
        slopes = {r["slope"] for r in _read_csv(paths["sweep"])
                  if r["sweep"] == "singular_bound"}
        if len(slopes) != 1 or not abs(float(slopes.pop()) + 1.0) <= SLOPE_TOL:
            failures.append(f"{fid}: singular_bound slope is not -1")
    return failures


def errors_report_strip(outputs):
    errs = []
    for paths in outputs:
        for r in _read_csv(paths["report"]):
            errs.append(abs(float(r["I_eps_fd"]) - (float(r["I1"]) + float(r["I2"]))))
    return errs


# ---------------------------------------------------------------------------
# crosscheck_smooth: the decomposition cross-check on fields A and B
# ---------------------------------------------------------------------------

SMOOTH_GAMMAS = (0.0, 10.0)
SMOOTH_EPS, SMOOTH_T, SMOOTH_N = 0.1, 0.3, 20
SMOOTH_A_STEP, SMOOTH_A_GRID = 2e-3, 128


def _decomposition_times(cfg, t):
    return [t + k * cfg.dt_fd for k in (-2, -1, 0, 1, 2)]


def setup_crosscheck_smooth(seed, workdir):
    cfg = fn.FunctionalConfig(epsilon=SMOOTH_EPS, n_x=SMOOTH_N, n_z=SMOOTH_N)
    map_a = flow.InterpolatedFlowMap(
        cat.get_field("A"), flow.FlowSolverConfig(step=SMOOTH_A_STEP), grid_n=SMOOTH_A_GRID
    )
    # A's grid integration and spline prefilter, and its memoized
    # interpolation-error sample, are filled here rather than in pass 1
    map_a.prepare(_decomposition_times(cfg, SMOOTH_T))
    map_a.interpolation_error(SMOOTH_T)
    kernels = {g: AnisotropicKernel(poly_bump, ETA_X, g) for g in SMOOTH_GAMMAS}
    poly_bump.normalization(2)
    return {
        "cfg": cfg,
        "maps": {"A": map_a, "B": flow.ExactFlowMap(cat.get_field("B"))},
        "kernels": kernels,
        "oracle_points": np.random.default_rng(seed).random((256, 2)),
    }


def _run_decomposition(fid, gamma):
    def case(state):
        fm = state["maps"][fid]
        return fn.decomposition_check(fm, fm, cat.get_field(fid), state["kernels"][gamma],
                                      state["cfg"], SMOOTH_T)
    return case


def b_flow_oracle(pts, t):
    """Field B's flow written through atan2: tan(pi x1) grows like
    exp(2 pi t), so x1(t) = atan2(sin(pi x1) e^{pi t}, cos(pi x1) e^{-pi t})/pi,
    with log J = -log(cos^2(pi x1) e^{-2 pi t} + sin^2(pi x1) e^{2 pi t})."""
    u = np.mod(pts[:, 0], 1.0)
    s, c = np.sin(np.pi * u), np.cos(np.pi * u)
    x1 = np.mod(np.arctan2(s * np.exp(np.pi * t), c * np.exp(-np.pi * t)) / np.pi, 1.0)
    disp = np.zeros_like(pts)
    disp[:, 0] = x1 - u
    logj = -np.log(c * c * np.exp(-2.0 * np.pi * t) + s * s * np.exp(2.0 * np.pi * t))
    return disp, logj


def check_crosscheck_smooth(state, outputs):
    failures = []
    cases = [(fid, g) for fid in ("A", "B") for g in SMOOTH_GAMMAS]
    for (fid, gamma), res in zip(cases, outputs):
        if not (math.isfinite(res["gap"]) and res["gap"] <= res["bound"]):
            failures.append(f"{fid} gamma={gamma}: gap {res['gap']:.3e} > bound {res['bound']:.3e}")
    fm, pts = state["maps"]["B"], state["oracle_points"]
    cond = 1.0 / (1.0 + 1.0 / np.abs(np.sin(2.0 * np.pi * pts[:, 0])))
    for t in _decomposition_times(state["cfg"], SMOOTH_T):
        disp, logj = b_flow_oracle(pts, t)
        fm.begin_batch(pts)  # the engine's cached path ...
        batched = fm.displacement(t, pts), np.log(fm.density(t, pts))
        fm.end_batch()
        plain = fm.displacement(t, pts), fm.log_jacobian(t, pts)  # ... and the plain one
        for route, (d, lj) in (("batched", batched), ("plain", plain)):
            err_d = float(np.max(np.abs(d - disp)))
            # log J = log|sin 2 pi x1(t) / sin 2 pi x1| loses digits near the fixed points
            err_lj = float(np.max(np.abs(lj - logj) * cond))
            if not (err_d <= B_MAP_TOL and err_lj <= B_MAP_TOL):
                failures.append(f"B map ({route}) at t={t}: errors {err_d:.3e} (displacement), "
                                f"{err_lj:.3e} (log J) against atan2 oracle")
    return failures


def errors_crosscheck_smooth(outputs):
    return [res["gap"] for res in outputs]


# ---------------------------------------------------------------------------
# gronwall_rk4: the event-aware RK4 through DirectFlowMap and integrate_flow
# ---------------------------------------------------------------------------

GRON_C_STEP, GRON_C_T, GRON_C_TIMES, GRON_C_NX = 1e-2, 0.5, 3, 16
GRON_B_STEPS, GRON_B_T, GRON_B_NX, GRON_B_DT = (0.08, 0.04, 0.02), 0.4, 48, 1e-2
GRON_X_POINTS, GRON_X_TIMES, GRON_X_STEP = 32, (0.3, 1.0), 1e-2


def transversal_field():
    """b = (1, +1) for x1 in (0, 1/2), (1, -1) for x1 in (1/2, 1): unit
    normal speed on both sides, so every crossing is transversal and a
    trajectory over time 1 crosses each surface exactly once."""
    up, down = np.array([1.0, 1.0]), np.array([1.0, -1.0])

    def const(name, v):
        return cat.Piece(name, lambda p: np.broadcast_to(v, p.shape).copy(),
                         lambda p: np.zeros((p.shape[0], 2, 2)))

    def jump(offset, b_plus, b_minus):
        diff = b_plus - b_minus
        sigma = float(np.linalg.norm(diff))
        return cat.JumpComponent((1, 0), offset, (1.0, 0.0), tuple(diff / sigma), sigma,
                                 tuple(b_plus), tuple(b_minus))

    return cat.PiecewiseField(
        "T", "bv", (const("up", up), const("down", down)),
        (jump(0.0, up, down), jump(0.5, down, up)),
        strip_normal=(1, 0), strip_bounds=(0.0, 0.5),
    )


def transversal_oracle(pts, t):
    """Closed-form flow of :func:`transversal_field`: x1 moves at unit
    speed and x2 follows the triangle wave F(s) = min(s, 1 - s) of x1."""
    def tri(s):
        f = np.mod(s, 1.0)
        return np.minimum(f, 1.0 - f)

    x1 = pts[:, 0] + t
    return np.mod(np.stack([x1, pts[:, 1] + tri(x1) - tri(pts[:, 0])], axis=-1), 1.0)


def setup_gronwall_rk4(seed, workdir):
    poly_bump.normalization(2)
    return {
        "kernel": AnisotropicKernel(poly_bump, ETA_X, 3.0),
        "cfg": fn.FunctionalConfig(epsilon=0.05, n_x=GRON_C_NX),
        "exact_C": flow.ExactFlowMap(cat.get_field("C")),
        "exact_B": flow.ExactFlowMap(cat.get_field("B")),
        "transversal": transversal_field(),
        "start_points": np.random.default_rng(seed).random((GRON_X_POINTS, 2)),
    }


def _run_uniqueness(state):
    c = cat.get_field("C")
    # a fresh map per pass: DirectFlowMap memoizes by array identity
    direct = flow.DirectFlowMap(c, flow.FlowSolverConfig(step=GRON_C_STEP))
    return fn.uniqueness_report(c, direct, state["exact_C"], state["kernel"], state["cfg"],
                                GRON_C_T, n_times=GRON_C_TIMES)


def _run_eqfin(step):
    def case(state):
        b = cat.get_field("B")
        direct = flow.DirectFlowMap(b, flow.FlowSolverConfig(step=step))
        return fn.eqfin_residual(direct, state["exact_B"], b, GRON_B_T, n_x=GRON_B_NX,
                                 dt=GRON_B_DT)
    return case


def _run_crossings(state):
    return flow.integrate_flow(state["transversal"], flow.FlowSolverConfig(step=GRON_X_STEP),
                               state["start_points"], (0.0,) + GRON_X_TIMES)


def check_gronwall_rk4(state, outputs):
    failures = []
    rep, residuals, ens = outputs[0], outputs[1:4], outputs[4]
    max_l = float(np.max(rep.l_values))
    if rep.verdict != "UNIQUE" or not max_l <= UNIQUE_L_TOL:
        failures.append(f"C: verdict {rep.verdict}, max L {max_l:.3e}")
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    if not all(ORDER_RANGE[0] <= o <= ORDER_RANGE[1] for o in orders):
        failures.append(f"B: residual orders {orders} under step halving, not 4")
    for t in GRON_X_TIMES:
        d = ens.positions[ens.time_index(t)] - transversal_oracle(state["start_points"], t)
        err = float(np.max(np.linalg.norm(d - np.round(d), axis=-1)))
        if not err <= CROSSING_TOL:
            failures.append(f"transversal: position error {err:.3e} at t={t} against closed form")
    logj = float(np.max(np.abs(ens.log_jacobian)))
    if not logj <= ROUNDOFF_TOL:
        failures.append(f"transversal: |log J| = {logj:.3e}")
    return failures


def errors_gronwall_rk4(outputs):
    return list(outputs[1:4])


WORKLOADS = {
    "report_strip": Workload(
        setup_report_strip,
        tuple((f"run_{fid}", _run_strip(fid)) for fid, _ in STRIP_CASES),
        check_report_strip, errors_report_strip,
    ),
    "crosscheck_smooth": Workload(
        setup_crosscheck_smooth,
        tuple((f"decomposition_{fid}_gamma{g:g}", _run_decomposition(fid, g))
              for fid in ("A", "B") for g in SMOOTH_GAMMAS),
        check_crosscheck_smooth, errors_crosscheck_smooth,
    ),
    "gronwall_rk4": Workload(
        setup_gronwall_rk4,
        (("uniqueness_C", _run_uniqueness),)
        + tuple((f"eqfin_B_h{h:g}", _run_eqfin(h)) for h in GRON_B_STEPS)
        + (("crossings_T", _run_crossings),),
        check_gronwall_rk4, errors_gronwall_rk4,
    ),
}
