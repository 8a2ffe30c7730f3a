import json
import math
import os

import numpy as np
import pytest

from adast.algorithms import AlgoConfig
from adast.cli import main as cli_main
from adast.errors import ConfigError
from adast.harness import (
    RunConfig,
    counterexample_report,
    read_trace,
    run_experiment,
    worker_count,
    write_trace,
)
from adast.metrics import TraceRecord
from adast.problems import GradientStream, NoiseModel, QuadraticMinimaxProblem
from adast.topology import GraphKind, GraphSpec, weights_for


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

def test_write_trace_empty(tmp_path):
    path = tmp_path / "t.csv"
    write_trace([], path)
    assert path.read_text().strip().count("\n") == 0  # header only


def test_trace_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    records = []
    for k in range(5):
        records.append(
            TraceRecord(
                k=k,
                grad_phi_sq=None if k == 2 else float(rng.uniform() * 10.0 ** rng.integers(-8, 8)),
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
    path = tmp_path / "trace.csv"
    write_trace(records, path)
    cols = read_trace(path)
    for i, r in enumerate(records):
        assert cols["k"][i] == r.k
        if r.grad_phi_sq is None:
            assert math.isnan(cols["grad_phi_sq"][i])
        else:
            assert cols["grad_phi_sq"][i] == r.grad_phi_sq
        assert cols["avg_m_x"][i] == r.avg_m_x
        assert cols["avg_m_y"][i] == r.avg_m_y
        assert cols["xbar_0"][i] == r.xbar[0]
        assert cols["xbar_1"][i] == r.xbar[1]
        assert cols["ybar_0"][i] == r.ybar[0]


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
    orig = result.traces["d-adast"].records
    for r1, r2 in zip(orig, trace2.records):
        assert r1.k == r2.k
        assert np.array_equal(r1.xbar, r2.xbar)
        assert r1.avg_m_x == r2.avg_m_x


def test_synthetic_requires_n():
    with pytest.raises(ConfigError):
        run_experiment(
            RunConfig(
                experiment="synthetic",
                algo_configs=[AlgoConfig(algo="d-adast", gamma_x=0.1, gamma_y=0.1, K=5)],
            )
        )


def test_counterexample_invariants_enforced():
    with pytest.raises(ConfigError):
        run_experiment(
            RunConfig(
                experiment="counterexample",
                algo_configs=[
                    AlgoConfig(algo="d-tiada", gamma_x=0.1, gamma_y=0.1,
                               alpha=0.6, beta=0.4, K=5)
                ],
                ce_alpha=0.75, ce_beta=0.25,  # mismatch with config exponents
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
                ce_alpha=0.75, ce_beta=0.25, ce_x0=0.0,
            )
        )


def test_counterexample_report_shape():
    rep = counterexample_report(0.75, 0.25, 10.0, K=200)
    assert rep["slope"] == pytest.approx(-4.0)
    assert rep["d-tiada"]["max_rel_drift_grad_x"] <= 1e-9
    assert rep["d-tiada"]["max_rel_drift_grad_y"] <= 1e-9
    assert not rep["d-adast"]["aborted"]
    with pytest.raises(ConfigError):
        counterexample_report(0.75, 0.25, 0.0, K=10)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("ADAST_THREADS", "2")
    assert worker_count(8) == 2
    monkeypatch.setenv("ADAST_THREADS", "0")
    assert worker_count(3) >= 1
    monkeypatch.setenv("ADAST_THREADS", "junk")
    with pytest.raises(ConfigError):
        worker_count(2)
    monkeypatch.delenv("ADAST_THREADS")
    assert worker_count(1) == 1


def test_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("ADAST_THREADS", "3")
    r_par = run_experiment(_mini_case_study(out_dir=None), write=False)
    monkeypatch.setenv("ADAST_THREADS", "1")
    r_ser = run_experiment(_mini_case_study(out_dir=None), write=False)
    for label in r_par.traces:
        f1 = r_par.traces[label].records[-1]
        f2 = r_ser.traces[label].records[-1]
        assert np.array_equal(f1.xbar, f2.xbar)
        assert f1.avg_m_x == f2.avg_m_x


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
    bad.write_text("experiment = case-study\nwarp_speed = 9\n")
    assert cli_main(["run", "--config", str(bad)]) == 2


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
        write=False,
    )
    assert float(cell[5]) == direct.traces["d-adast"].records[-1].grad_phi_sq


def test_cli_sweep_empty_grid(tmp_path):
    rc = cli_main([
        "sweep", "--experiment", "case-study", "--algos", "d-adast",
        "--K", "10", "--out-dir", str(tmp_path), "--gamma-x-grid", " , ",
    ])
    assert rc == 2


def test_cli_unknown_command():
    assert cli_main(["fly"]) == 2
    assert cli_main([]) == 2
