import csv
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from adast import cli, harness
from adast.algorithms import AlgoConfig, Trace
from adast.cli import main as cli_main
from adast.errors import ConfigError
from adast.harness import (
    RunConfig,
    counterexample_report,
    run_experiment,
    write_trace,
)
from adast.metrics import TRACE_HEADER
from adast.problems import GradientStream, NoiseModel, QuadraticMinimaxProblem, make_synthetic
from adast.topology import GraphKind, GraphSpec, weights_for
from conftest import make_random_problem


def _mini_case_study(K=50, stride=10, out_dir=None, algos=("d-sgda", "d-tiada", "d-adast")):
    return RunConfig(
        experiment="case-study",
        algo_configs=[
            AlgoConfig(algo=a, gamma_x=0.05, gamma_y=0.05, K=K) for a in algos
        ],
        trace_stride=stride,
        out_dir=out_dir,
    )


# ----------------------------------------------------------------- trace CSV

def _columnar_trace(rows: list[dict], p: int, d: int) -> Trace:
    """A Trace holding the given record rows (TRACE_HEADER metrics plus
    xbar and ybar), with empty per-iteration series."""
    empty = np.zeros(0)
    return Trace(
        **{h: np.array([r[h] for r in rows], dtype=int if h == "k" else float)
           for h in TRACE_HEADER},
        xbar=np.array([r["xbar"] for r in rows]).reshape(-1, p),
        ybar=np.array([r["ybar"] for r in rows]).reshape(-1, d),
        zeta_v_hat_inst=None, zeta_v_series=empty, zeta_u_series=empty,
        zeta_v_hat_series=None, gsum_x_series=empty, gsum_y_series=empty,
        abort=None, final_state=None,
    )


def test_write_trace_empty(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(_columnar_trace([], p=2, d=1), path)
    assert path.read_text().strip().count("\n") == 0  # header only


def test_trace_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for k in range(5):
        rows.append(
            dict(
                k=k,
                grad_phi_sq=(math.nan if k == 2
                             else float(rng.uniform() * 10.0 ** rng.integers(-8, 8))),
                grad_xf_sq=float(rng.uniform()),
                consensus_x=float(rng.uniform()),
                consensus_y=float(rng.uniform()),
                zeta_v_inst=float(rng.uniform()),
                zeta_v_sup=float(rng.uniform()),
                zeta_u_inst=float(rng.uniform()),
                zeta_u_sup=float(rng.uniform()),
                avg_m_x=float(rng.uniform() * 1e17),
                avg_m_y=float(rng.uniform() * 1e-17),
                xbar=rng.standard_normal(2),
                ybar=rng.standard_normal(1),
            )
        )
    trace = _columnar_trace(rows, p=2, d=1)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    with open(path, newline="") as f:
        parsed = list(csv.DictReader(f))
    cols = {h: [float(row[h]) for row in parsed] for h in parsed[0]}
    for i, k in enumerate(trace.k):
        assert cols["k"][i] == k
        if math.isnan(trace.grad_phi_sq[i]):
            assert math.isnan(cols["grad_phi_sq"][i])
        else:
            assert cols["grad_phi_sq"][i] == trace.grad_phi_sq[i]
        assert cols["avg_m_x"][i] == trace.avg_m_x[i]
        assert cols["avg_m_y"][i] == trace.avg_m_y[i]
        assert cols["xbar_0"][i] == trace.xbar[i, 0]
        assert cols["xbar_1"][i] == trace.xbar[i, 1]
        assert cols["ybar_0"][i] == trace.ybar[i, 0]


def test_trace_row_counting(tmp_path):
    cfg = _mini_case_study(K=100, stride=10, out_dir=tmp_path, algos=("d-adast",))
    result = run_experiment(cfg)
    lines = (tmp_path / "trace_d-adast.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 12  # header + 12 data rows


# ----------------------------------------------------------------- experiment

def test_experiment_determinism_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_experiment(_mini_case_study(out_dir=d1))
    run_experiment(_mini_case_study(out_dir=d2))
    for name in ("trace_d-sgda.csv", "trace_d-tiada.csv", "trace_d-adast.csv", "plots.gp"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    m1 = json.loads((d1 / "manifest.json").read_text())
    m2 = json.loads((d2 / "manifest.json").read_text())
    m1.pop("timestamp")
    m2.pop("timestamp")
    assert m1 == m2


def test_manifest_completeness_and_rerun(tmp_path):
    cfg = RunConfig(
        experiment="synthetic",
        algo_configs=[AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=40)],
        n=6,
        seed=11,
        noise=NoiseModel.gaussian(math.sqrt(0.1)),
        trace_stride=10,
        out_dir=tmp_path / "run1",
    )
    result = run_experiment(cfg)
    man = result.manifest
    for key in ("seed", "rho_w", "rho_w_spectral_norm", "problem", "algorithms", "init_x0"):
        assert key in man
    assert man["algorithms"]["d-adast"]["c0"] == 1e-6
    assert man["algorithms"]["d-adast"]["stepsize_source"] == "local"
    # reconstruct the run from the manifest alone
    problem = QuadraticMinimaxProblem.from_dict(man["problem"])
    wm = weights_for(GraphSpec(n=man["topology"]["n"], kind=GraphKind(man["topology"]["kind"])))
    assert wm.rho_w == man["rho_w"]
    from adast.algorithms import run as algorun

    ac = man["algorithms"]["d-adast"]
    cfg2 = AlgoConfig(
        algo=ac["algo"], gamma_x=ac["gamma_x"], gamma_y=ac["gamma_y"], alpha=ac["alpha"],
        beta=ac["beta"], c0=ac["c0"], K=ac["K"], stepsize_source=ac["stepsize_source"],
    )
    noise_doc = dict(man["noise"])
    assert noise_doc.pop("stream") == GradientStream.VERSION == 2
    noise = NoiseModel(**noise_doc)
    trace2 = algorun(
        problem, wm.W, cfg2, noise,
        x0=np.asarray(man["init_x0"]), y0=np.asarray(man["init_y0"]),
        seed=man["seed"], trace_stride=man["trace_stride"],
    )
    orig = result.traces["d-adast"]
    assert np.array_equal(orig.k, trace2.k)
    assert np.array_equal(orig.xbar, trace2.xbar)
    assert np.array_equal(orig.avg_m_x, trace2.avg_m_x)


def test_synthetic_requires_n():
    with pytest.raises(ConfigError):
        run_experiment(
            RunConfig(
                experiment="synthetic",
                algo_configs=[AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=5)],
            )
        )


def test_counterexample_invariants_enforced():
    # one instance per run: the adaptive methods must share their exponents
    with pytest.raises(ConfigError):
        run_experiment(
            RunConfig(
                experiment="counterexample",
                algo_configs=[
                    AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1,
                               alpha=0.6, beta=0.4, K=5),
                    AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1,
                               alpha=0.75, beta=0.25, K=5),
                ],
            )
        )
    with pytest.raises(ConfigError):
        run_experiment(
            RunConfig(
                experiment="counterexample",
                algo_configs=[
                    AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1,
                               alpha=0.75, beta=0.25, K=5)
                ],
                init_x=0.0,
            )
        )
    # exponents outside the construction's window 0 < beta < 0.5 < alpha < 1
    with pytest.raises(ConfigError):
        run_experiment(
            RunConfig(
                experiment="counterexample",
                algo_configs=[
                    AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1,
                               alpha=0.45, beta=0.3, K=5)
                ],
            )
        )
    # d-sgda has no exponents of its own and runs on the adaptive methods' instance
    result = run_experiment(
        RunConfig(
            experiment="counterexample",
            algo_configs=[
                AlgoConfig(algo="d-sgda", gamma_x=0.1, gamma_y=0.1, alpha=0.1, beta=0.9, K=5),
                AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1,
                           alpha=0.75, beta=0.25, K=5),
            ],
        ),
    )
    assert (result.manifest["problem"]["meta"]["alpha"],
            result.manifest["problem"]["meta"]["beta"]) == (0.75, 0.25)


# case -> (RunConfig fields over one d-tiada config at (0.75, 0.25), a
# fragment of the refusal): the checks that need no problem instance
_REFUSED_WITHOUT_A_PROBLEM = {
    "synthetic-without-n": ({"experiment": "synthetic"}, "needs --n"),
    "custom-without-problem-json": (
        {"experiment": "custom", "topology": GraphSpec(n=3, kind=GraphKind.RING)},
        "needs --problem-json"),
    "custom-without-topology": ({"experiment": "custom", "problem_json": Path("p.json")},
                                "explicit topology"),
    "counterexample-two-exponent-pairs": (
        {"experiment": "counterexample", "algo_configs": [
            AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1, alpha=0.75, beta=0.25, K=5),
            AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, alpha=0.6, beta=0.4, K=5)]},
        "one exponent pair"),
    "counterexample-init-y": ({"experiment": "counterexample", "init_y": 1.0}, "do not apply"),
    "counterexample-init-spread": ({"experiment": "counterexample", "init_spread": 0.1},
                                   "do not apply"),
    "counterexample-x0-zero": ({"experiment": "counterexample", "init_x": 0.0}, "x0 != 0"),
    "fractional-trace-stride": ({"experiment": "case-study", "trace_stride": 2.5},
                                "trace_stride must be an integer, got 2.5"),
    # seed = 2.5 used to run as seed 2 and be recorded as 2.5; n = 4.0 died
    # in the synthetic factory with numpy's bare TypeError
    "fractional-seed": ({"experiment": "case-study", "seed": 2.5},
                        "seed must be an integer, got 2.5"),
    "fractional-n": ({"experiment": "synthetic", "n": 4.0}, "n must be an integer, got 4.0"),
    "zero-n": ({"experiment": "synthetic", "n": 0}, "n must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_WITHOUT_A_PROBLEM))
def test_run_config_refuses_without_building_a_problem(monkeypatch, case):
    fields, fragment = _REFUSED_WITHOUT_A_PROBLEM[case]
    for owner, factory in ((harness, "make_two_node_case_study"), (harness, "make_counterexample"),
                           (harness, "make_synthetic"), (QuadraticMinimaxProblem, "from_dict")):
        monkeypatch.setattr(owner, factory, lambda *a: pytest.fail("a problem was built"))
    ac = AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1, alpha=0.75, beta=0.25, K=5)
    with pytest.raises(ConfigError, match=fragment):
        RunConfig(**{"algo_configs": [ac], **fields})


@pytest.mark.parametrize("alpha_grid", ["0.75,0.45", "0.75,0.5000001"])
def test_cli_sweep_with_a_refused_problem_writes_nothing(tmp_path, capsys, monkeypatch,
                                                         alpha_grid):
    # the second cell passes RunConfig, but the counterexample factory
    # refuses its exponents; every problem is built before any cell runs
    monkeypatch.setattr(harness, "run", lambda *a, **kw: pytest.fail("a method ran"))
    out = tmp_path / "out"
    rc = cli_main(["sweep", "--experiment", "counterexample", "--algos", "d-tiada",
                   "--alpha-grid", alpha_grid, "--K", "10", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and "alpha" in err and "Traceback" not in err
    assert not out.exists()


# experiment -> (its required RunConfig fields, "{problem}" standing for a
# 3-node problem file; the default graph and start README documents, the
# start as its manifest note's beginning and as (X0, Y0) on the problem;
# a field that changes the instance, with a new value)
_DOCUMENTED = {
    "case-study": ({}, "ring", "x_i = 1.0 + 0.01*i, y_i = 1.0 + 0.01*i",
                   lambda pr: ([[1.0], [1.01]], [[1.0], [1.01]]), ("seed", 1)),
    "counterexample": ({}, "complete", "all nodes at (x0, slope*x0) = (10.0, ",
                       lambda pr: ([[10.0]] * 3, [[pr.meta["init_slope"] * 10.0]] * 3),
                       ("algo_configs", [AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1,
                                                    alpha=0.75, beta=0.25, K=5)])),
    "synthetic": ({"n": 4}, "exponential", "all nodes at the stationary point",
                  lambda pr: tuple([v.tolist()] * 4 for v in pr.stationary_point()), ("seed", 1)),
    "custom": ({"problem_json": "{problem}", "topology": GraphSpec(n=3, kind=GraphKind.RING)},
               "ring", "x_i = 0.0 + 0.0*i, y_i = 0.0 + 0.0*i",
               lambda pr: ([[0.0, 0.0]] * 3, [[0.0, 0.0]] * 3), ("problem_json", "{copy}")),
}


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_experiment_defaults_and_instance_sharing(tmp_path, experiment):
    required, graph, note, start, (field_name, value) = _DOCUMENTED[experiment]
    doc = json.dumps(make_random_problem(n=3, p=2, d=2, seed=4).to_dict())
    paths = {"problem": tmp_path / "problem.json", "copy": tmp_path / "copy.json"}
    for path in paths.values():
        path.write_text(doc)

    def config(**fields):
        fields = {k: Path(v.format(**paths)) if isinstance(v, str) else v
                  for k, v in {**required, **fields}.items()}
        ac = AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1, K=5)
        return RunConfig(**{"experiment": experiment, "algo_configs": [ac], **fields})

    result = run_experiment(config())
    man = result.manifest
    assert man["topology"]["kind"] == graph
    assert man["init"].startswith(note)
    assert (man["init_x0"], man["init_y0"]) == start(result.problem)
    problems = {}
    first = harness.prepare(config(), problems)[0]
    assert harness.prepare(config(), problems)[0] is first
    changed = harness.prepare(config(**{field_name: value}), problems)[0]
    # the case study's instance depends on nothing, so another seed shares it
    assert (changed is first) == (experiment == "case-study")
    assert len(problems) == 1 + (experiment != "case-study")


def test_counterexample_report_shape():
    rep = counterexample_report(0.75, 0.25, 10.0, K=200)
    assert rep["slope"] == pytest.approx(-4.0)
    assert rep["d-tiada"]["max_rel_drift_grad_x"] <= 1e-9
    assert rep["d-tiada"]["max_rel_drift_grad_y"] <= 1e-9
    assert not rep["d-adast"]["aborted"]
    with pytest.raises(ConfigError):
        counterexample_report(0.75, 0.25, 0.0, K=10)


def test_counterexample_report_honours_K_escape_zero():
    rep = counterexample_report(0.75, 0.25, 10.0, K=20, K_escape=0)
    assert rep["K"] == 20 and rep["K_escape"] == 0
    # d-adast ran no iteration, so its gradients end where they start
    assert rep["d-adast"]["final_over_initial_grad_x"] == 1.0


def test_case_study_init_spread_zero_starts_both_nodes_together():
    cfg = _mini_case_study(K=5, stride=5, algos=("d-adast",))
    cfg.init_spread = 0.0
    man = run_experiment(cfg).manifest
    assert man["init_x0"] == [[1.0], [1.0]]
    assert man["init_y0"] == [[1.0], [1.0]]
    assert man["init"] == "x_i = 1.0 + 0.0*i, y_i = 1.0 + 0.0*i"


@pytest.mark.parametrize("experiment,fields", [
    ("case-study", {"init_x": 1e308, "init_spread": 1e308}),  # x_1 = 2e308
    ("synthetic", {"n": 3, "init_y": -1e308, "init_spread": -1e308}),  # y_1 = -2e308
    # slope*init_x is about -3e150 * 1e200 at the exponents (0.501, 0.4)
    ("counterexample", {"init_x": 1e200, "algo_configs": [
        AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1, alpha=0.501, beta=0.4, K=5)]}),
])
def test_a_start_with_a_non_finite_entry_is_refused(monkeypatch, experiment, fields):
    monkeypatch.setattr(harness, "run", lambda *a, **kw: pytest.fail("a method ran"))
    ac = AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1, K=5)
    cfg = RunConfig(**{"experiment": experiment, "algo_configs": [ac], **fields})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused without a RuntimeWarning
        with pytest.raises(ConfigError, match="start is not finite at node"):
            run_experiment(cfg)


# ----------------------------------------------------------------------- CLI

def test_cli_spectral(capsys):
    rc = cli_main(["spectral", "--topology", "exponential", "--n", "50"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["validation"]["passed"]
    assert doc["rho_w_spectral_norm"] == pytest.approx(0.714, abs=0.01)
    assert doc["rho_w"] == pytest.approx(0.51, abs=0.01)


def test_cli_spectral_bad_topology(capsys):
    assert cli_main(["spectral", "--topology", "star", "--n", "5"]) == 2


def test_cli_run_case_study_artifacts(tmp_path, capsys):
    rc = cli_main([
        "run", "--experiment", "case-study", "--algos", "d-tiada,d-adast",
        "--K", "60", "--trace-stride", "20", "--out-dir", str(tmp_path / "cs"),
    ])
    assert rc == 0
    out = tmp_path / "cs"
    assert (out / "trace_d-tiada.csv").exists()
    assert (out / "trace_d-adast.csv").exists()
    assert (out / "manifest.json").exists()
    assert (out / "plots.gp").exists()
    gp = (out / "plots.gp").read_text()
    assert "trace_d-adast.csv" in gp and "grad_xf_sq" in gp


def test_cli_run_missing_n_for_synthetic(tmp_path):
    rc = cli_main([
        "run", "--experiment", "synthetic", "--K", "10",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert rc == 2


def test_cli_run_numeric_abort_exit_code(tmp_path):
    rc = cli_main([
        "run", "--experiment", "case-study", "--algos", "d-sgda",
        "--gamma-x", "0.5", "--gamma-y", "0.5", "--K", "20000",
        "--trace-stride", "1000", "--out-dir", str(tmp_path / "div"),
    ])
    assert rc == 3
    man = json.loads((tmp_path / "div" / "manifest.json").read_text())
    assert man["aborts"]["d-sgda"] is not None


def test_cli_counterexample_report(tmp_path, capsys):
    rc = cli_main([
        "counterexample", "--alpha", "0.75", "--beta", "0.25", "--x0", "10",
        "--K", "200", "--out", str(tmp_path / "rep.json"),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["d-tiada"]["max_rel_drift_grad_x"] <= 1e-9
    assert cli_main(["counterexample", "--alpha", "0.75", "--beta", "0.25",
                     "--x0", "0"]) == 2


def test_cli_config_file_and_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# case study config\n"
        "experiment = case-study\n"
        "algos = d-adast\n"
        "K = 40\n"
        "gamma_x = 0.05\n"
        "gamma_y = 0.05\n"
        f"out_dir = {tmp_path / 'from-file'}\n"
    )
    rc = cli_main(["run", "--config", str(cfg_file)])
    assert rc == 0
    assert (tmp_path / "from-file" / "trace_d-adast.csv").exists()
    # a flag overrides the file value
    rc = cli_main(["run", "--config", str(cfg_file), "--out-dir", str(tmp_path / "flag")])
    assert rc == 0
    assert (tmp_path / "flag" / "trace_d-adast.csv").exists()


def test_cli_config_file_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    for command, line in [
        ("run", "warp_speed = 9"),
        # the counterexample's start is --init-x; there is no ce_x0 any more
        ("run", "ce_x0 = 3"),
        # the synthetic family's L range is fixed, and the summary is sweep.csv
        ("run", "L_low = 1"),
        ("run", "L_high = 3"),
        ("sweep", "summary = other.csv"),
    ]:
        bad.write_text(f"experiment = case-study\n{line}\n")
        assert cli_main([command, "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


def test_cli_config_file_values_take_the_flags_types(tmp_path, capsys):
    settings = {"experiment": "case-study", "algos": "d-adast", "K": "40",
                "trace_stride": "10", "gamma_x": "1", "gamma_y": "1", "init_x": "2",
                "init_y": "-1e-3"}
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
    rc_file = cli_main(["sweep", "--config", str(cfg_file), "--out-dir", str(tmp_path / "file")])
    rc_flags = cli_main(["sweep", *flags, "--out-dir", str(tmp_path / "flags")])
    assert rc_file == rc_flags
    cells = [sorted(p.name for p in (tmp_path / o).iterdir() if p.is_dir())
             for o in ("file", "flags")]
    assert cells[0] == cells[1] == ["gx1.0_gy1.0_a0.6_b0.4"]
    assert ((tmp_path / "file" / "sweep.csv").read_bytes()
            == (tmp_path / "flags" / "sweep.csv").read_bytes())
    manifests = []
    for o in ("file", "flags"):
        man = json.loads((tmp_path / o / cells[0][0] / "manifest.json").read_text())
        man.pop("timestamp")
        manifests.append(man)
    assert manifests[0] == manifests[1]
    assert manifests[0]["init"] == "x_i = 2.0 + 0.01*i, y_i = -0.001 + 0.01*i"


@pytest.mark.parametrize("key,flag,value,message", [
    ("K", "--K", "1e2", "invalid int value: '1e2'"),
    ("noise", "--noise", "bogus", "invalid choice: 'bogus'"),
])
def test_cli_config_file_value_the_flag_refuses_exits_2(tmp_path, capsys, key, flag, value,
                                                        message):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    for argv in (["run", "--config", str(cfg_file)], ["run", flag, value]):
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_sweep_single_cell_matches_run(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = cli_main([
        "sweep", "--experiment", "case-study", "--algos", "d-adast",
        "--K", "40", "--trace-stride", "10", "--out-dir", str(out),
        "--gamma-x-grid", "0.05", "--gamma-y-grid", "0.05",
    ])
    assert rc == 0
    summary = (out / "sweep.csv").read_text().strip().splitlines()
    assert summary[0].startswith("gamma_x,gamma_y,alpha,beta,algo")
    assert len(summary) == 2
    cell = summary[1].split(",")
    # compare against a direct run of the same cell
    direct = run_experiment(
        RunConfig(
            experiment="case-study",
            algo_configs=[AlgoConfig(algo="d-adast", gamma_x=0.05, gamma_y=0.05, K=40)],
            trace_stride=10,
            out_dir=None,
        ),
    )
    assert float(cell[5]) == direct.traces["d-adast"].grad_phi_sq[-1]


def test_cli_sweep_counterexample_cells_run_their_exponents(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = cli_main([
        "sweep", "--experiment", "counterexample", "--algos", "d-tiada,d-adast",
        "--K", "200", "--trace-stride", "50", "--out-dir", str(out),
        "--alpha-grid", "0.6,0.9", "--beta", "0.25",
    ])
    assert rc == 0
    summary = (out / "sweep.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in summary[1:]]
    assert [(r[2], r[3], r[4]) for r in rows] == [
        ("0.6", "0.25", "d-tiada"), ("0.6", "0.25", "d-adast"),
        ("0.9", "0.25", "d-tiada"), ("0.9", "0.25", "d-adast"),
    ]
    manifests = {}
    for r in rows:
        cell = out / f"gx{r[0]}_gy{r[1]}_a{r[2]}_b{r[3]}"
        manifests[r[2]] = (cell / "manifest.json").read_text()
        ran = json.loads(manifests[r[2]])["algorithms"][r[4]]
        assert (ran["alpha"], ran["beta"]) == (float(r[2]), float(r[3]))
    strip = [json.loads(m) for m in manifests.values()]
    for m in strip:
        m.pop("timestamp")
    assert strip[0]["problem"] != strip[1]["problem"]
    assert rows[0][5:] != rows[2][5:]


# command -> its arguments: a start whose node 1 is inf, a counterexample
# sweep whose second cell starts at ybar_0 = -inf, and exponents whose
# closed forms overflow.  Each passed every check and then exited 3, the
# sweep after writing both cells.
_OVERFLOWING = {
    "start": ["run", "--experiment", "case-study", "--init-x", "1e308",
              "--init-spread", "1e308"],
    "counterexample-start": ["sweep", "--experiment", "counterexample", "--algos", "d-tiada",
                             "--alpha-grid", "0.75,0.501", "--init-x", "1e200"],
    "closed-forms": ["run", "--experiment", "counterexample", "--alpha", "0.5009",
                     "--beta", "0.25"],
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING))
def test_cli_overflowing_start_or_problem_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                     monkeypatch, case):
    monkeypatch.setattr(harness, "run", lambda *a, **kw: pytest.fail("a method ran"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        rc = cli_main([*_OVERFLOWING[case], "--K", "50", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert ("start is not finite" in err) == case.endswith("start")
    assert not out.exists()


# sweep -> (its flags, its grids, the harness factory that builds its
# problem, how many instances the grids need); "{problem}" stands for a
# problem file
_SHARED_PROBLEM_SWEEPS = {
    "custom": (["--experiment", "custom", "--problem-json", "{problem}", "--topology", "ring",
                "--n", "6", "--algos", "d-adast,d-adast-coord", "--init-x", "1",
                "--init-y", "-1", "--init-spread", "0.01"],
               ["--gamma-x-grid", "0.02,0.05", "--gamma-y-grid", "0.05,0.1"],
               "from_dict", 1),
    # the exponent pairs recur in the grid's order: 0.6, 0.9, 0.6, 0.9
    "counterexample": (["--experiment", "counterexample", "--algos", "d-tiada,d-adast",
                        "--beta", "0.25"],
                       ["--gamma-x-grid", "1,2", "--alpha-grid", "0.6,0.9"],
                       "make_counterexample", 2),
    "synthetic": (["--experiment", "synthetic", "--n", "8", "--seed", "3",
                   "--algos", "d-tiada,d-adast"],
                  ["--gamma-x-grid", "0.02,0.05", "--alpha-grid", "0.6,0.75"],
                  "make_synthetic", 1),
}


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    fn = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, staticmethod(counting) if isinstance(owner, type)
                        else counting)
    return calls


@pytest.mark.parametrize("sweep", sorted(_SHARED_PROBLEM_SWEEPS))
def test_cli_sweep_builds_each_problem_once(tmp_path, capsys, monkeypatch, sweep):
    flags, grids, factory, instances = _SHARED_PROBLEM_SWEEPS[sweep]
    problem_json = tmp_path / "problem.json"
    problem_json.write_text(json.dumps(make_random_problem(n=6, p=2, d=2, seed=4).to_dict()))
    flags = [f.format(problem=problem_json) for f in flags] + ["--K", "100",
                                                               "--trace-stride", "10"]
    owner = QuadraticMinimaxProblem if factory == "from_dict" else harness
    calls = _count_calls(monkeypatch, owner, factory)
    out = tmp_path / "sw"
    assert cli_main(["sweep", *flags, *grids, "--out-dir", str(out)]) == 0
    assert len(calls) == instances
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    cells = sorted({tuple(r[:4]) for r in rows})
    assert len(cells) == 4
    # each cell writes what `adast run` writes for it, timestamp apart
    for gx, gy, al, be in cells:
        alone = tmp_path / f"run_{gx}_{gy}_{al}_{be}"
        assert cli_main(["run", *flags, "--gamma-x", gx, "--gamma-y", gy,
                         "--alpha", al, "--beta", be, "--out-dir", str(alone)]) == 0
        cell = out / f"gx{gx}_gy{gy}_a{al}_b{be}"
        names = sorted(f.name for f in cell.iterdir())
        assert names == sorted(f.name for f in alone.iterdir())
        for name in names:
            if name == "manifest.json":
                ms = [json.loads((d / name).read_text()) for d in (cell, alone)]
                for m in ms:
                    m.pop("timestamp")
                assert ms[0] == ms[1]
            else:
                assert (cell / name).read_bytes() == (alone / name).read_bytes()


def test_cli_run_counterexample_runs_the_given_exponents(tmp_path, capsys):
    out = tmp_path / "ce"
    rc = cli_main([
        "run", "--experiment", "counterexample", "--algos", "d-tiada",
        "--alpha", "0.6", "--beta", "0.4", "--K", "10", "--out-dir", str(out),
        "--noise", "gaussian", "--init-x", "-3",
    ])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["algorithms"]["d-tiada"]["alpha"] == 0.6
    assert man["problem"]["meta"]["alpha"] == 0.6
    assert man["algorithms"]["d-tiada"]["beta"] == man["problem"]["meta"]["beta"] == 0.4
    assert man["noise"]["kind"] == "gaussian"
    assert man["topology"] == {"kind": "complete", "n": 3}
    assert man["init_x0"] == [[-3.0]] * 3


@pytest.mark.parametrize("flags", [
    ["--topology", "ring", "--n", "5"],  # the construction has three nodes
    ["--n", "5"],
    ["--init-y", "2"],  # the start lies on the invariance line at --init-x
    ["--init-spread", "0.1"],
    ["--init-x", "0"],  # the origin is stationary
])
def test_cli_run_counterexample_refuses_what_the_construction_fixes(tmp_path, flags):
    rc = cli_main([
        "run", "--experiment", "counterexample", "--algos", "d-tiada",
        "--alpha", "0.75", "--beta", "0.25", "--K", "10",
        "--out-dir", str(tmp_path / "ce"), *flags,
    ])
    assert rc == 2
    assert not (tmp_path / "ce").exists()


def test_cli_run_custom_start_and_manifest_note(tmp_path, capsys):
    problem_json = tmp_path / "problem.json"
    problem_json.write_text(json.dumps(make_synthetic(4, 0).to_dict()))
    out = tmp_path / "custom"
    rc = cli_main([
        "run", "--experiment", "custom", "--problem-json", str(problem_json),
        "--topology", "ring", "--n", "4", "--algos", "d-adast", "--K", "10",
        "--init-x", "1", "--init-y", "-1", "--init-spread", "0.01",
        "--out-dir", str(out),
    ])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["init"] == "x_i = 1.0 + 0.01*i, y_i = -1.0 + 0.01*i"
    assert man["init_x0"] == [[1.0 + 0.01 * i] for i in range(4)]
    assert man["init_y0"] == [[-1.0 + 0.01 * i] for i in range(4)]
    assert man["noise"]["kind"] == "none"


# case -> (the file's text, None for no file, or (node i, key, value) to
# set in a valid 3-node problem with p = d = 2, value None deleting the key
# and node None setting a top-level field; the part of the message naming
# the node or field at fault, or None where none is)
_BAD_PROBLEM_FILES = {
    "missing-file": (None, None),
    "invalid-json": ("{not json", None),
    "no-locals": ('{"p": 2, "d": 2, "n": 3}', None),
    "meta-not-object": ('{"locals": [{"A": [[0]], "B": [[1]], "C": [[0]], "b": [0], "c": [0]}], '
                        '"meta": [1, 2]}', None),
    "node-without-B": ((1, "B", None), "node 1"),
    "non-numeric": ((2, "A", [["x", 0.0], [0.0, 1.0]]), "A[2]"),
    "wrong-shape": ((1, "B", [[1.0]]), "B[1]"),
    "asymmetric-C": ((2, "C", [[1.0, 0.5], [-0.5, 1.0]]), "C[2]"),
    "null-b": ((0, "b", [None, 0.0]), "b[0]"),
    "nan-B": ((1, "B", [[float("nan"), 0.0], [0.0, 1.0]]), "B[1]"),
    "n-disagrees": ((None, "n", 5), "'n' = 5"),
    "p-disagrees": ((None, "p", 7), "'p' = 7"),
    "d-disagrees": ((None, "d", 1), "'d' = 1"),
    # under `adast sweep` the file is read before the first cell
    "sweep-wrong-shape": ((1, "B", [[1.0]]), "B[1]"),
}


@pytest.mark.parametrize("case", sorted(_BAD_PROBLEM_FILES))
def test_cli_run_malformed_problem_json_exits_2(tmp_path, capsys, case):
    content, names = _BAD_PROBLEM_FILES[case]
    problem_json = tmp_path / "problem.json"
    if isinstance(content, tuple):
        doc = make_random_problem(n=3, p=2, d=2, seed=0).to_dict()
        i, key, value = content
        fields = doc if i is None else doc["locals"][i]
        if value is None:
            del fields[key]
        else:
            fields[key] = value
        content = json.dumps(doc)
    if content is not None:
        problem_json.write_text(content)
    out = tmp_path / "out"
    command = (["sweep", "--gamma-x-grid", "0.1,0.2"] if case.startswith("sweep-")
               else ["run"])
    rc = cli_main([
        *command, "--experiment", "custom", "--problem-json", str(problem_json),
        "--topology", "ring", "--n", "3", "--algos", "d-adast", "--K", "10",
        "--out-dir", str(out),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and "Traceback" not in err
    if names is not None:
        assert names in err
    assert not out.exists()


def test_cli_run_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(["run", "--experiment", "synthetic", "--n", "3", "--seed", "-1",
                   "--K", "10", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and "seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--gamma-x-grid", "0.1,0.2"]])
def test_cli_out_dir_under_a_file_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                          command):
    # a path below a regular file cannot be created, also for root
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(harness, "run", lambda *a, **kw: pytest.fail("a method ran"))
    out = blocker / "sub"
    rc = cli_main([*command, "--experiment", "case-study", "--algos", "d-sgda,d-adast",
                   "--K", "10", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and str(out) in err and "Traceback" not in err


# flag -> (the field the error names, flags that make the flag take effect)
_FINITE_FLAGS = {
    "--gamma-x": ("gamma_x", []),
    "--gamma-y": ("gamma_y", []),
    "--c0": ("c0", []),
    "--sigma": ("sigma", []),
    "--clip": ("clip", ["--noise", "gaussian-clipped"]),
    "--init-x": ("init_x", []),
    "--init-y": ("init_y", []),
    "--init-spread": ("init_spread", []),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", sorted(_FINITE_FLAGS))
def test_cli_run_non_finite_number_exits_2(tmp_path, capsys, flag, value):
    name, more = _FINITE_FLAGS[flag]
    out = tmp_path / "out"
    rc = cli_main(["run", "--experiment", "synthetic", "--n", "3", "--algos", "d-adast",
                   "--K", "10", *more, f"{flag}={value}", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and f"{name} must be finite" in err
    assert not out.exists()


def test_cli_sweep_non_finite_grid_value_writes_no_cell(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(["sweep", "--experiment", "case-study", "--algos", "d-adast", "--K", "10",
                   "--gamma-x-grid", "0.1,nan", "--out-dir", str(out)])
    assert rc == 2
    assert "gamma_x must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0.1,0.1", "0.1,1e-1", "0.05,0.1,0.10"])
def test_cli_sweep_grid_that_repeats_a_value_writes_nothing(tmp_path, capsys, grid):
    # a repeated value used to run its cell twice into one directory and
    # write its rows twice into sweep.csv
    out = tmp_path / "out"
    rc = cli_main(["sweep", "--experiment", "case-study", "--algos", "d-adast", "--K", "10",
                   "--gamma-x-grid", grid, "--out-dir", str(out)])
    assert rc == 2
    assert f"grid {grid!r} repeats a value" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_empty_grid(tmp_path):
    rc = cli_main([
        "sweep", "--experiment", "case-study", "--algos", "d-adast",
        "--K", "10", "--out-dir", str(tmp_path), "--gamma-x-grid", " , ",
    ])
    assert rc == 2


def test_cli_unknown_command(capsys):
    assert cli_main(["fly"]) == 2
    assert "unknown command 'fly'" in capsys.readouterr().err
    assert cli_main([]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: adast") and "{run,counterexample,sweep,spectral}" in err


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_cli_help_prints_the_subcommands_and_exits_0(capsys, flag):
    assert cli_main([flag]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "usage: adast {run,counterexample,sweep,spectral} ..."
    assert [line.split()[0] for line in lines[1:]] == ["run", "counterexample", "sweep",
                                                       "spectral"]
    assert captured.err == ""


@pytest.mark.parametrize("command", [["run"], ["sweep", "--gamma-x-grid", "0.1,0.2"]])
def test_cli_empty_out_dir_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "run", lambda *a, **kw: pytest.fail("a method ran"))
    rc = cli_main([*command, "--experiment", "case-study", "--K", "10", "--out-dir", ""])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("config error:") and "--out-dir" in captured.err
    assert captured.out == "" and not any(tmp_path.iterdir())


def test_cli_default_out_dirs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags = ["--experiment", "case-study", "--algos", "d-adast", "--K", "10"]
    assert cli_main(["sweep", *flags, "--gamma-x-grid", "0.1,0.2"]) == 0
    assert capsys.readouterr().out.strip() == str(Path("runs/sweep/sweep.csv"))
    assert (tmp_path / "runs/sweep/sweep.csv").is_file()
    assert not (tmp_path / "runs/latest").exists()
    assert cli_main(["run", *flags]) == 0
    assert json.loads(capsys.readouterr().out)["out_dir"] == str(Path("runs/latest"))
    assert (tmp_path / "runs/latest/manifest.json").is_file()


def test_cli_main_dispatches_through_the_module_handlers(monkeypatch):
    # a tracer that replaces cli.cmd_* after import must see the call
    calls = []
    monkeypatch.setattr(cli, "cmd_spectral", lambda args: calls.append(args) or 7)
    assert cli_main(["spectral", "--topology", "ring", "--n", "4"]) == 7
    assert [(args.topology, args.n) for args in calls] == [("ring", 4)]
