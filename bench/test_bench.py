"""The benchmark's own tests: every output check rejects a wrong answer,
the tracer measures what it claims, and each workload runs at a small size.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
from adast import algorithms, topology
from adast.problems import make_counterexample
from adast.topology import GraphKind, GraphSpec
from workloads import Counterexample, RingSweep, SyntheticN50, make_ring_problem

HERE = Path(__file__).resolve().parent


def _records(trace):
    r = trace.records
    return ([x.k for x in r], [x.xbar[0] for x in r], [x.ybar[0] for x in r],
            [x.avg_m_x for x in r], [x.avg_m_y for x in r])


@pytest.fixture(scope="module")
def ce_pass():
    wl = Counterexample(seed=3, small=True, work=Path("unused"))
    return wl, wl.run_pass()


@pytest.fixture(scope="module")
def synthetic_pass(tmp_path_factory):
    wl = SyntheticN50(seed=1, small=True, work=tmp_path_factory.mktemp("synthetic"))
    return wl, wl.run_pass()


@pytest.fixture(scope="module")
def ring_pass(tmp_path_factory):
    wl = RingSweep(seed=2, small=True, work=tmp_path_factory.mktemp("ring"))
    return wl, wl.run_pass()


# ------------------------------------------------------------ counterexample

def test_counterexample_checks_pass_on_the_program_output(ce_pass):
    wl, out = ce_pass
    res = wl.check(out)
    assert (res.wrong, res.failed, res.attempted) == ([], 0, 4)


def test_frozen_check_rejects_one_perturbed_xbar(ce_pass):
    _, out = ce_pass
    cfg, trace = out[0]
    assert cfg.algo == "d-tiada"
    _, xbar, ybar, _, _ = _records(trace)
    assert checks.check_frozen(cfg.alpha, cfg.beta, xbar, ybar) == []
    xbar[len(xbar) // 2] *= 1 + 1e-8
    assert checks.check_frozen(cfg.alpha, cfg.beta, xbar, ybar)


def test_escape_check_rejects_a_run_that_stays_on_the_line(ce_pass):
    _, out = ce_pass
    (tiada_cfg, tiada), (adast_cfg, adast) = out[0], out[1]
    assert checks.check_escape(adast_cfg.alpha, adast_cfg.beta, *_records(adast)[1:3]) == []
    assert checks.check_escape(tiada_cfg.alpha, tiada_cfg.beta, *_records(tiada)[1:3])


def test_tracking_check_rejects_an_accumulator_mean_off_by_1e10(ce_pass):
    _, out = ce_pass
    _, trace = out[1]
    ks, _, _, mx, my = _records(trace)
    args = (trace.gsum_x_series, trace.gsum_y_series, 0.0)
    assert checks.check_tracking(ks, mx, my, *args) == []
    mx[-1] *= 1 + 1e-10
    assert checks.check_tracking(ks, mx, my, *args)


def test_counterexample_slope_matches_the_construction():
    for alpha, beta in ((0.6, 0.4), (0.75, 0.25), (0.9, 0.1)):
        assert checks.counterexample_slope(alpha, beta) == pytest.approx(
            make_counterexample(alpha, beta)[1], rel=1e-15)


# --------------------------------------------------------------- synthetic

def test_synthetic_checks_pass_on_the_program_output(synthetic_pass):
    wl, result = synthetic_pass
    res = wl.check(result)
    assert (res.wrong, res.failed, res.attempted) == ([], 0, 3)


def _synthetic_csv(wl, label):
    manifest = checks.read_manifest(wl.out_dir / "manifest.json")
    return manifest, checks.parse_trace(wl.out_dir / manifest["traces"][label])


def test_csv_check_rejects_a_dropped_row(synthetic_pass):
    wl, result = synthetic_pass
    _, text = _synthetic_csv(wl, "d-adast")
    records = result.traces["d-adast"].records
    assert checks.check_csv_matches_records(text, records) == []
    dropped = {h: v[:3] + v[4:] for h, v in text.items()}
    assert checks.check_csv_matches_records(dropped, records)
    bumped = {h: list(v) for h, v in text.items()}
    bumped["avg_m_y"][2] = repr(float(np.nextafter(float(bumped["avg_m_y"][2]), 1.0)))
    assert checks.check_csv_matches_records(bumped, records)


def test_grad_phi_check_rejects_a_perturbed_xbar(synthetic_pass):
    wl, _ = synthetic_pass
    manifest, text = _synthetic_csv(wl, "d-tiada")
    L = manifest["problem"]["meta"]["L_values"]
    assert checks.check_synthetic_grad_phi(text, L) == []
    text["xbar_0"][5] = repr(float(text["xbar_0"][5]) * (1 + 1e-6))
    assert checks.check_synthetic_grad_phi(text, L)


def test_rho_check_rejects_a_perturbed_rho(synthetic_pass):
    wl, _ = synthetic_pass
    manifest, _ = _synthetic_csv(wl, "d-tiada")
    expected = checks.rho_by_svd(checks.exponential_uniform_weights(wl.n))
    assert checks.check_rho(manifest["rho_w"], expected) == []
    assert checks.check_rho(manifest["rho_w"] * (1 + 1e-7), expected)


def test_exponential_weights_match_the_graph_definition():
    for n in (6, 16, 50):
        W = topology.weights_for(GraphSpec(n=n, kind=GraphKind.EXPONENTIAL)).W
        assert np.array_equal(checks.exponential_uniform_weights(n), W)


def test_tail_zeta_check_rejects_swapped_methods(synthetic_pass):
    _, result = synthetic_pass
    tiada = result.traces["d-tiada"].zeta_v_series
    adast = result.traces["d-adast"].zeta_v_series
    assert checks.check_tail_zeta("d-adast", adast, True, 400) == []
    assert checks.check_tail_zeta("d-tiada", tiada, False, 400) == []
    assert checks.check_tail_zeta("d-adast", tiada, True, 400)
    assert checks.check_tail_zeta("d-tiada", adast, False, 400)


# ------------------------------------------------------------- ring sweep

def test_ring_checks_pass_on_the_program_output(ring_pass):
    wl, out = ring_pass
    res = wl.check(out)
    assert (res.wrong, res.failed, res.attempted) == ([], 0, 8)


def _ring_cell(wl):
    cell = next(p for p in wl.out_dir.iterdir() if p.is_dir())
    manifest = checks.read_manifest(cell / "manifest.json")
    return cell, manifest


def test_quadratic_check_rejects_a_perturbed_coordinate(ring_pass):
    wl, _ = ring_pass
    cell, manifest = _ring_cell(wl)
    text = checks.parse_trace(cell / manifest["traces"]["d-adast"])
    assert checks.check_quadratic_trace(text, wl.oracle) == []
    text["ybar_2"][1] = repr(float(text["ybar_2"][1]) + 1e-6)
    assert [m for m in checks.check_quadratic_trace(text, wl.oracle) if "grad_xf_sq" in m]


def test_summary_check_rejects_a_changed_final_value(ring_pass):
    wl, _ = ring_pass
    cell, manifest = _ring_cell(wl)
    text = checks.parse_trace(cell / manifest["traces"]["d-sgda"])
    import csv

    with (wl.out_dir / "sweep.csv").open() as f:
        row = next(r for r in csv.DictReader(f)
                   if r["algo"] == "d-sgda" and cell.name.startswith(f"gx{r['gamma_x']}_gy"
                                                                    f"{r['gamma_y']}_"))
    assert checks.check_summary_row(row, text, wl.THRESHOLD) == []
    bad = dict(row, final_grad_phi_sq=repr(float(row["final_grad_phi_sq"]) * (1 + 1e-15)))
    assert checks.check_summary_row(bad, text, wl.THRESHOLD)
    bad = dict(row, iters_to_threshold="7")
    assert checks.check_summary_row(bad, text, wl.THRESHOLD)


def test_ring_gap_check_accepts_the_svd_constant_and_rejects_a_shifted_one():
    for n in (8, 40, 400):
        W = topology.metropolis_weights(topology.build_graph(GraphSpec(n=n, kind=GraphKind.RING))).W
        rho = checks.rho_by_svd(W)
        assert checks.check_ring_gap(rho, n) == []
        assert checks.check_ring_gap(1.0 - (1.0 - rho) * (1 + 2e-6), n)


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_generated_ring_problem_has_a_strongly_convex_phi(seed):
    doc = make_ring_problem(seed, 60, 4, 4)
    oracle = checks.QuadraticOracle(doc)
    assert np.linalg.eigvalsh(oracle.phi_hessian())[0] >= 0.5 - 1e-12
    assert min(np.linalg.eigvalsh(np.asarray(l["B"]))[0] for l in doc["locals"]) >= 1 - 1e-12


# ------------------------------------------------------------------ tracing

def test_tracer_restores_the_program_and_counts_mixes():
    original = (algorithms.run, algorithms.mix, topology.weights_for)
    wl = Counterexample(seed=0, small=True, work=Path("unused"))
    tracer = tracing.Tracer(tracing.LAYER_TARGETS)
    try:
        wl.run_pass()
        spans = tracer.take()
    finally:
        tracer.remove()
    assert (algorithms.run, algorithms.mix, topology.weights_for) == original
    m = tracing.layer_metrics(tracer.names, spans)
    # d-tiada and d-adast with local stepsizes mix once per iteration
    assert m["algorithms.mix_calls"] == m["algorithms.iters"] == 2 * (1000 + 10_000)
    # records at k = 0, every stride, and once more at k = K
    assert m["algorithms.records"] == 2 * (1002 + 1002)
    assert m["algorithms.loop_self_us"] > 0
    own = tracing._self_times(spans)
    assert (own >= -1e-9).all()


# ------------------------------------------------------------ end to end

@pytest.mark.parametrize("workload", ["counterexample", "synthetic-n50", "ring-sweep"])
def test_small_workload_runs_and_reports(workload, tmp_path, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--size", "small", "--work-dir", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "iters_per_s", "peak_mem_mib"}
    # peak_mem_mib can read 0 here: this process has peaked higher before the run
    assert all(result["metrics"][k]["value"] > 0 for k in ("wall_s", "setup_s", "iters_per_s"))


def test_traced_run_reports_every_layer_metric(tmp_path, capsys):
    assert run.main(["--workload", "ring-sweep", "--seed", "5", "--seconds", "0",
                     "--size", "small", "--trace", "1", "--work-dir", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["topology.weights_for_calls"] == 2  # one build per sweep cell
    assert m["algorithms.iters"] == 2 * 3 * 200
    assert (tmp_path / "ring-sweep" / "spans.npz").exists()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
