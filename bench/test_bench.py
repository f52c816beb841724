"""Tests of the benchmark itself: every correctness check fails on a
planted fault, the tracer sees calls between modules, and its counts
agree with the work the engine does.

    python3 -m pytest -q bench/test_bench.py
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "src")]

import workloads as W  # noqa: E402
from bvflow import catalog as cat  # noqa: E402
from bvflow import flow  # noqa: E402
from bvflow import functionals as fn  # noqa: E402
from bvflow import torus  # noqa: E402
from bvflow.kernels import AnisotropicKernel  # noqa: E402
from tracer import Tracer, strip_crossings  # noqa: E402


def run_pass(name, state):
    return [case(state) for _, case in W.WORKLOADS[name].cases]


def failures(name, state):
    return W.WORKLOADS[name].check(state, run_pass(name, state))


def scale_pair_result(monkeypatch, key, factor=1.0, offset=0.0):
    """Plant a fault in one pair integral returned by the engine."""
    original = fn.pair_integrals_multi

    def faulty(*args, **kwargs):
        out = original(*args, **kwargs)
        for vals in out.values():
            if key in vals:
                vals[key] = vals[key] * factor + offset
        return out

    monkeypatch.setattr(fn, "pair_integrals_multi", faulty)


def joined(msgs):
    return "\n".join(msgs)


# -- report_strip ------------------------------------------------------------


@pytest.fixture
def strip_state(tmp_path):
    return W.setup_report_strip(5, str(tmp_path))


def test_report_strip_passes_unplanted(strip_state):
    assert failures("report_strip", strip_state) == []


def test_report_strip_gap_check_catches_scaled_i2(strip_state, monkeypatch):
    scale_pair_result(monkeypatch, "I2", factor=1.05)
    assert "|I_fd-(I1+I2)|" in joined(failures("report_strip", strip_state))


def test_report_strip_i1_check_catches_offset(strip_state, monkeypatch):
    scale_pair_result(monkeypatch, "I1", offset=1e-9)
    assert "I1 = " in joined(failures("report_strip", strip_state))


def test_report_strip_x_equals_y_check_catches_drifting_map(strip_state, monkeypatch):
    # the scenario's second flow map drifts by 1e-6 per unit time
    class Drifting(flow.ExactFlowMap):
        made = 0

        def __init__(self, fld):
            super().__init__(fld)
            Drifting.made += 1
            self.drift = Drifting.made % 2 == 0

        def displacement(self, t, pts):
            d = super().displacement(t, pts)
            return d + 1e-6 * t if self.drift else d

    monkeypatch.setattr(flow, "ExactFlowMap", Drifting)
    msgs = joined(failures("report_strip", strip_state))
    assert "eqfin_residual" in msgs and "with X = Y" in msgs


def test_report_strip_D_check_catches_kernel_scale(strip_state, monkeypatch):
    original = AnisotropicKernel.rho
    monkeypatch.setattr(AnisotropicKernel, "rho",
                        lambda self, x, z: original(self, x, z) * (1.0 + 1e-6))
    assert "D = " in joined(failures("report_strip", strip_state))


def test_report_strip_slope_check_catches_wrong_decay(strip_state, monkeypatch):
    original = fn.singular_bound
    monkeypatch.setattr(fn, "singular_bound", lambda field, kernel, *a, **k:
                        original(field, kernel, *a, **k) * (1.0 + kernel.gamma) ** 1e-3)
    assert "singular_bound slope" in joined(failures("report_strip", strip_state))


def test_strip_D_oracle_matches_engine_at_other_settings():
    c = cat.get_field("C")
    fm = flow.ExactFlowMap(c)
    kern = AnisotropicKernel(W.poly_bump, W.ETA_X, 2.0)
    cfg = fn.FunctionalConfig(epsilon=0.1, n_x=12, n_z=14)
    got = fn.discrepancy_D(fm, fm, c, kern, cfg, 0.45)
    ref = W.strip_D_oracle("C", (1.0, 0.0), 2.0, 0.1, 0.45, 14)
    assert abs(got - ref) <= 1e-12 * ref


# -- crosscheck_smooth -------------------------------------------------------


@pytest.fixture(scope="module")
def smooth_state(tmp_path_factory):
    return W.setup_crosscheck_smooth(5, str(tmp_path_factory.mktemp("smooth")))


@pytest.fixture(scope="module")
def smooth_outputs(smooth_state):
    return run_pass("crosscheck_smooth", smooth_state)


def test_crosscheck_passes_unplanted(smooth_state, smooth_outputs):
    assert W.check_crosscheck_smooth(smooth_state, smooth_outputs) == []


def test_crosscheck_gap_check_catches_scaled_i2(smooth_state, monkeypatch):
    scale_pair_result(monkeypatch, "I2", factor=1.1)
    assert "> bound" in joined(failures("crosscheck_smooth", smooth_state))


def test_crosscheck_b_oracle_catches_shifted_displacement(smooth_state, smooth_outputs,
                                                          monkeypatch):
    original = flow.ExactFlowMap.displacement
    monkeypatch.setattr(flow.ExactFlowMap, "displacement",
                        lambda self, t, pts: original(self, t, pts) + 1e-6)
    msgs = W.check_crosscheck_smooth(smooth_state, smooth_outputs)
    assert "atan2 oracle" in joined(msgs)


def test_crosscheck_b_oracle_catches_log_jacobian_error(smooth_state, smooth_outputs,
                                                        monkeypatch):
    original = flow.ExactFlowMap.log_jacobian
    monkeypatch.setattr(flow.ExactFlowMap, "log_jacobian",
                        lambda self, t, pts: original(self, t, pts) * (1.0 + 1e-9))
    assert "(log J)" in joined(W.check_crosscheck_smooth(smooth_state, smooth_outputs))


# -- gronwall_rk4 ------------------------------------------------------------


@pytest.fixture
def gron_state(tmp_path):
    return W.setup_gronwall_rk4(5, str(tmp_path))


def test_gronwall_passes_unplanted(gron_state):
    assert failures("gronwall_rk4", gron_state) == []


def test_gronwall_uniqueness_check_catches_drifting_solver(gron_state, monkeypatch):
    original = flow.DirectFlowMap.displacement
    monkeypatch.setattr(flow.DirectFlowMap, "displacement",
                        lambda self, t, pts: original(self, t, pts) + 1e-4 * t)
    assert "C: verdict" in joined(failures("gronwall_rk4", gron_state))


def test_gronwall_order_check_catches_second_order_error(gron_state, monkeypatch):
    original = flow.DirectFlowMap.displacement
    monkeypatch.setattr(flow.DirectFlowMap, "displacement",
                        lambda self, t, pts: original(self, t, pts) + self.config.step**2 * t)
    assert "residual orders" in joined(failures("gronwall_rk4", gron_state))


@pytest.mark.parametrize("what", ["positions", "log_jacobian"])
def test_gronwall_crossing_check_catches_shift(gron_state, monkeypatch, what):
    original = flow.integrate_flow

    def faulty(*args, **kwargs):
        ens = original(*args, **kwargs)
        getattr(ens, what)[...] += 1e-6
        return ens

    monkeypatch.setattr(flow, "integrate_flow", faulty)
    msgs = joined(W.check_gronwall_rk4(gron_state, run_pass("gronwall_rk4", gron_state)))
    assert ("position error" if what == "positions" else "|log J|") in msgs


def test_transversal_oracle_is_not_the_identity():
    pts = np.array([[0.1, 0.2], [0.6, 0.9]])
    moved = W.transversal_oracle(pts, 0.3)
    assert np.allclose(moved, [[0.4, 0.5], [0.9, 0.6]])


# -- tracer ------------------------------------------------------------------


def test_tracer_wraps_names_imported_into_other_modules():
    tracer = Tracer()
    original = torus.wrap_half
    tracer.install()
    try:
        assert fn.wrap_half is torus.wrap_half is not original
        assert cat.wrap_half is torus.wrap_half
        assert fn.volume_quadrature is cat.volume_quadrature
    finally:
        tracer.uninstall()
    assert fn.wrap_half is torus.wrap_half is original


def test_tracer_self_times_and_counts(tmp_path):
    state = W.setup_report_strip(1, str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        snaps = []
        for _ in range(2):
            run_pass("report_strip", state)
            snaps.append(tracer.snapshot())
    finally:
        tracer.uninstall()
    assert snaps[0]["counts"] == snaps[1]["counts"]
    first = snaps[0]
    # self times partition the outermost spans, less the tracer's own bookkeeping
    covered = sum(first["self_s"].values())
    assert 0.8 * first["incl_s"]["experiments"] <= covered <= first["incl_s"]["experiments"]
    assert first["counts"]["functionals.pair.sweeps"] == 2 * 2 * len(W.STRIP_GAMMAS)
    assert first["counts"]["experiments.bytes_written"] > 0


def test_pair_count_matches_engine_work():
    # the count equals the y-points the engine hands to the second flow map
    for fid in ("C", "D", "B"):
        fld = cat.get_field(fid)
        seen = []

        class Counting(flow.ExactFlowMap):
            def displacement(self, t, pts):
                seen.append(np.shape(pts)[0])
                return super().displacement(t, pts)

        kern = AnisotropicKernel(W.poly_bump, W.ETA_X, 3.0)
        cfg = fn.FunctionalConfig(epsilon=0.05, n_x=12, n_z=12)
        tracer = Tracer()
        tracer.install()
        try:
            fn.pair_integrals_multi(flow.ExactFlowMap(fld), Counting(fld), fld, kern, cfg,
                                    [0.2, 0.3], want=("D",))
        finally:
            tracer.uninstall()
        assert tracer.counts["functionals.pair.pairs"] == sum(seen)


def test_crossing_count_matches_closed_form():
    fld = W.transversal_field()
    pts = np.random.default_rng(0).random((20, 2))
    assert strip_crossings(fld, pts, 1.0) == 40
    assert strip_crossings(fld, pts, -1.0) == 40
    assert strip_crossings(cat.get_field("C"), pts, 1.0) == 0


# -- the command -------------------------------------------------------------


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report_strip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
