import os
import re
import subprocess
import sys

import numpy as np
import pytest

from bvflow import experiments as exp
from bvflow import gates


MINIMAL = """
field_id = C
solver.method = rk4_event
kernel.profile = poly_bump
kernel.eta_kind = constant
kernel.eta_params = 1 0
functional.gamma = 0
functional.epsilon = 0.05
functional.t = 0.5
functional.n_x = 16
functional.n_z = 16
seed = 7
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def checkout_env(env):
    """``env`` with this checkout's src first on PYTHONPATH, so that a child
    process imports the code under test, never an installed copy."""
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, env_extra=None):
    env = checkout_env(dict(os.environ))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "bvflow.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_parse_minimal(tmp_path):
    cfg = exp.parse_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.field_id == "C"
    assert cfg.gammas == (0.0,)
    assert cfg.epsilons == (0.05,)


def test_parse_rejects_unknown_key(tmp_path):
    with pytest.raises(exp.ConfigError) as err:
        exp.parse_config(write_cfg(tmp_path, MINIMAL + "\nbogus.key = 1\n"))
    assert "bogus.key" in str(err.value)
    assert "line" in str(err.value)


def test_parse_rejects_unknown_field(tmp_path):
    with pytest.raises(exp.ConfigError) as err:
        exp.parse_config(write_cfg(tmp_path, MINIMAL.replace("= C", "= Z")))
    assert "field_id" in str(err.value)


def test_parse_rejects_large_epsilon(tmp_path):
    bad = MINIMAL.replace("functional.epsilon = 0.05", "functional.epsilon = 0.6")
    with pytest.raises(exp.ConfigError) as err:
        exp.parse_config(write_cfg(tmp_path, bad))
    assert "epsilon" in str(err.value)


def test_docs_key_table_matches_scenario_config():
    # the scenario table in docs/formats.md lists every key with its default
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "formats.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)`\s*\|[^|]*\|\s*`([^`]*)`\s*\|", section, re.M)
    assert [key for key, _ in rows] == list(exp.ScenarioConfig.KEYS)
    defaults = exp.ScenarioConfig()
    for key, text in rows:
        attr, kind = exp.ScenarioConfig.KEYS[key]
        parsed = tuple(map(float, text.split())) if kind == "floats" else kind(text)
        assert parsed == getattr(defaults, attr), key


def test_fit_rate_exact_square():
    assert gates.fit_rate_exact().passed


def test_fit_rate_errors():
    with pytest.raises(ValueError):
        exp.fit_rate([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        exp.fit_rate([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])


def test_fit_rate_noisy_has_stderr():
    rng = np.random.default_rng(0)
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    y = x**1.5 * np.exp(rng.normal(scale=0.05, size=5))
    slope, stderr = exp.fit_rate(y, x)
    assert abs(slope - 1.5) < 0.2
    assert stderr > 0


def test_run_scenario_files(tmp_path):
    cfg = exp.parse_config(write_cfg(tmp_path, MINIMAL))
    out = tmp_path / "out"
    paths = exp.run_scenario(cfg, out_dir=str(out))
    report = (out / "report.csv").read_text().strip().splitlines()
    assert report[0].startswith("field_id,epsilon,gamma,t")
    assert len(report) == 2  # one (eps, gamma, t) combination
    assert (out / "sweep.csv").exists()
    # meta echo re-parses to an equivalent configuration
    cfg2 = exp.parse_config(paths["meta"])
    assert cfg2 == cfg


# Import-time guards, each in a fresh interpreter: the strip-field run
# path must load no scipy at all, and field A's spline map must still
# find scipy.sparse when it first builds a tap-weight matrix.
STRIP_RUN_LOADS_NO_SCIPY = """
import sys
from bvflow import experiments as exp
exp.run_scenario(exp.parse_config(sys.argv[1]), out_dir=sys.argv[2])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""

SPLINE_MAP_LOADS_SPARSE = """
import sys
import numpy as np
from bvflow import catalog, flow
cfg = flow.FlowSolverConfig(step=1e-2)
fm = flow.InterpolatedFlowMap(catalog.get_field("A"), cfg, grid_n=32)
fm.prepare([0.3])
assert "scipy" not in sys.modules
nodes = fm._grid[::7]
got = fm.displacement(0.3, nodes)
assert "scipy.sparse" in sys.modules
ens = flow.integrate_flow(fm.field, cfg, nodes, [0.0, 0.3])
err = np.max(np.abs(got - ens.displacements[ens.time_index(0.3)]))
assert err < 1e-13, err
"""


def run_python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True,
                          env=checkout_env(dict(os.environ)))


def test_strip_run_loads_no_scipy(tmp_path):
    out = tmp_path / "out"
    res = run_python(STRIP_RUN_LOADS_NO_SCIPY, write_cfg(tmp_path, MINIMAL), str(out))
    assert res.returncode == 0, res.stderr
    assert len((out / "report.csv").read_text().strip().splitlines()) == 2


def test_spline_map_loads_scipy_sparse_on_first_query():
    res = run_python(SPLINE_MAP_LOADS_SPARSE)
    assert res.returncode == 0, res.stderr


def test_epsilon_sweep_reads_the_report_rows(tmp_path, monkeypatch):
    # the D-against-eps sweep takes each value from the report row with that
    # eps at the first gamma and t, so a run makes one pair sweep per row
    from bvflow import functionals as fn

    sweeps = []
    engine = fn.pair_integrals_multi

    def counted(*args, **kwargs):
        sweeps.append(args[2].id)
        return engine(*args, **kwargs)

    monkeypatch.setattr(fn, "pair_integrals_multi", counted)
    text = (MINIMAL.replace("field_id = C", "field_id = B")
            .replace("rk4_event", "explicit_exact")
            .replace("functional.gamma = 0", "functional.gamma = 3 0")
            .replace("functional.epsilon = 0.05", "functional.epsilon = 0.1 0.05 0.2")
            .replace("functional.t = 0.5", "functional.t = 0.3 0.2")
            .replace("= 16", "= 8"))
    out = tmp_path / "out"
    paths = exp.run_scenario(exp.parse_config(write_cfg(tmp_path, text)), out_dir=str(out))
    header, *lines = (out / "report.csv").read_text().strip().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 12
    assert sweeps == ["B"] * len(rows)
    first = sorted((float(r["epsilon"]), r["D"]) for r in rows
                   if float(r["gamma"]) == 3.0 and float(r["t"]) == 0.3)
    d_rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()
              if r.startswith("D,")]
    assert [(float(x), y) for _, _, x, y, _, _ in d_rows] == first
    # B's field has grad_a b != 0, so its meta reports a residual
    spot = [ln for ln in open(paths["meta"]) if "spot_check" in ln]
    assert re.fullmatch(r"# spot_check_r_a_max_residual \d\.\d{3}e[+-]\d+ \(10 seeded points\)\n",
                        spot[0])


def test_strip_meta_marks_the_spot_check_not_applicable(tmp_path):
    # on C grad_a b = 0 at every off-jump point: the identity reads 0 = 0,
    # so meta says so rather than report a residual; it still re-parses
    cfg = exp.parse_config(write_cfg(tmp_path, MINIMAL))
    paths = exp.run_scenario(cfg, out_dir=str(tmp_path / "out"))
    text = open(paths["meta"]).read()
    assert "# spot_check_r_a_max_residual n/a (grad_a b = 0 at the 10 seeded points)\n" in text
    assert exp.parse_config(paths["meta"]) == cfg


def test_run_scenario_gamma_sweep_slope(tmp_path):
    text = MINIMAL.replace("functional.gamma = 0", "functional.gamma = 0 1 3 9 27")
    cfg = exp.parse_config(write_cfg(tmp_path, text))
    out = tmp_path / "out"
    exp.run_scenario(cfg, out_dir=str(out))
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    sb_rows = [r for r in rows if r.startswith("singular_bound")]
    assert len(sb_rows) == 5
    slope = float(sb_rows[0].split(",")[4])
    assert abs(slope + 1.0) < 0.05


def test_reproducibility_across_thread_counts(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    outs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        out = tmp_path / sub
        text = MINIMAL + f"output.dir = {out}\n"
        p = write_cfg(tmp_path, text, name=f"s{sub}.cfg")
        res = run_cli("--threads", threads, "run", p)
        assert res.returncode == 0, res.stderr
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_catalog():
    res = run_cli("catalog")
    assert res.returncode == 0
    for fid in ("A", "B", "C", "D", "E"):
        assert fid in res.stdout
    assert "pathological" in res.stdout


def test_cli_unknown_field_exits_2(tmp_path):
    p = write_cfg(tmp_path, MINIMAL.replace("= C", "= Z"))
    res = run_cli("run", p)
    assert res.returncode == 2
    assert "field_id" in res.stderr


# values and keys a scenario rejects; each is named by its key
REJECTED = (
    ("solver.step = -1", "solver."),
    ("solver.step = 1e-13", "solver."),
    ("solver.event_tol = 1e-12", "solver.event_tol"),
    ("solver.max_crossings = 5", "solver.max_crossings"),
    ("functional.dt_fd = 0", "functional."),
    ("field_id = A\nsolver.method = explicit_exact", "solver.method"),
    ("functional.n_x = 0", "functional."),
    ("functional.n_z = 0", "functional."),
    ("kernel.eta_params = 0 0", "kernel.eta_params"),
    ("kernel.eta_params = 1 0 0", "kernel.eta_params"),
    ("kernel.eta_params = 1", "kernel.eta_params"),
    ("kernel.eta_kind = mollified_normal\nkernel.eta_params = 0.1 7 9", "kernel.eta_params"),
    ("kernel.eta_kind = mollified_normal", "kernel.eta_params"),
    # non-finite floats
    ("solver.step = nan", "solver.step"),
    ("solver.step = inf", "solver.step"),
    ("functional.dt_fd = nan", "functional.dt_fd"),
    ("functional.gamma = nan", "functional.gamma"),
    ("functional.t = nan", "functional.t"),
    ("functional.t = inf", "functional.t"),
    ("kernel.eta_params = nan 0", "kernel.eta_params"),
    ("kernel.eta_kind = mollified_normal\nkernel.eta_params = nan", "kernel.eta_params"),
)


@pytest.mark.parametrize("lines,key", REJECTED,
                         ids=[r[0].replace(" = ", "=").replace("\n", ";").replace(" ", "_")
                              for r in REJECTED])
def test_cli_rejected_value_exits_2(tmp_path, capsys, monkeypatch, lines, key):
    from bvflow import cli

    monkeypatch.delenv("RFL_THREADS", raising=False)
    out = tmp_path / "out"
    p = write_cfg(tmp_path, MINIMAL + f"output.dir = {out}\n{lines}\n")
    assert cli.main(["run", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_numerical_failure_exits_3(tmp_path):
    # field E backward in time: the non-transversal crossing surfaces
    text = MINIMAL.replace("field_id = C", "field_id = E").replace(
        "functional.t = 0.5", "functional.t = -0.2"
    )
    p = write_cfg(tmp_path, text)
    res = run_cli("run", p)
    assert res.returncode == 3
    assert "non-transversal" in res.stderr


def test_cli_fit(tmp_path):
    csv = tmp_path / "data.csv"
    csv.write_text("x,y\n1,2\n2,8\n3,18\n4,32\n")
    res = run_cli("fit", str(csv), "y", "x")
    assert res.returncode == 0
    assert "slope 2.0" in res.stdout
    res = run_cli("fit", str(csv), "nope", "x")
    assert res.returncode == 2


def test_rfl_threads_env_accepted(tmp_path):
    p = write_cfg(tmp_path, MINIMAL)
    res = run_cli("run", p, env_extra={"RFL_THREADS": "2"})
    assert res.returncode == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc/self/task")
@pytest.mark.parametrize(
    "preset", [{}, {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2"}],
    ids=["none", "pools_preset_2"],
)
def test_threads_flag_caps_blas_pools(preset):
    # the flag must take effect before numpy loads, and over preset variables
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "RFL_THREADS"}
    env.update(preset)
    code = (
        "import os\n"
        "from bvflow import cli\n"
        "assert cli.main(['--threads', '1', 'catalog']) == 0\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=checkout_env(env), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "1"


def test_check_battery_passes():
    results = exp.run_checks(fast=True)
    assert [r.name for r in results] == [
        "torus.wrap_idempotent",
        "torus.min_image_antisymmetry",
        "torus.integrate_linear",
        "fields.rank_one_orthogonal",
        "fields.distributional_divergence",
        "fields.jacobian_finite_difference",
        "kernels.normalization",
        "kernels.d1_rho_integral_zero",
        "kernels.scalar_product_bounds",
        "flow.group_property",
        "flow.backward_forward",
        "flow.density_mass",
        "flow.field_e_violations",
        "functionals.R_a_identity",
        "functionals.singular_decay",
        "functionals.trace_lower_bound",
        "experiments.fit_rate_exact",
        "functionals.decomposition",
    ]
    assert [r.name for r in results if not r.passed] == []


def test_cli_check_exit_zero():
    res = run_cli("check", "--fast")
    assert res.returncode == 0
    assert "invariants passed" in res.stdout
