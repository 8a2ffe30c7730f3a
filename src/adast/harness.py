"""Experiment orchestration: configs, reproducible runs, trace CSVs,
manifests and plot scripts.

An experiment bundles one problem instance, one weight matrix and a list
of algorithm configs run side by side.  Everything a re-run needs (seed,
drawn coefficients, topology, connectivity constants, buffers, ordering
flag) lands in ``manifest.json``; traces are one CSV per algorithm with
floats printed to 17 significant digits so parsing them back is exact.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import AlgoConfig, Trace, run
from .errors import ConfigError
from .metrics import TraceRecord
from .problems import (
    GradientStream,
    NoiseModel,
    QuadraticMinimaxProblem,
    make_counterexample,
    make_synthetic,
    make_two_node_case_study,
)
from .topology import GraphKind, GraphSpec, WeightMatrix, validate_doubly_stochastic, weights_for

__all__ = [
    "RunConfig",
    "ExperimentResult",
    "run_experiment",
    "counterexample_report",
    "write_trace",
    "read_trace",
    "TRACE_HEADER",
    "worker_count",
]

EXPERIMENTS = ("case-study", "counterexample", "synthetic", "custom")

TRACE_HEADER = [
    "k",
    "grad_phi_sq",
    "grad_xf_sq",
    "consensus_x",
    "consensus_y",
    "zeta_v_inst",
    "zeta_v_sup",
    "zeta_u_inst",
    "zeta_u_sup",
    "avg_m_x",
    "avg_m_y",
]


@dataclass
class RunConfig:
    """Full experiment description; see the CLI for the flag mirror."""

    experiment: str
    algo_configs: list[AlgoConfig]
    topology: GraphSpec | None = None
    noise: NoiseModel = field(default_factory=NoiseModel.none)
    seed: int = 0
    trace_stride: int = 100
    out_dir: Path | None = None
    # initialization: base point plus a per-node additive offset step
    init_x: float | None = None
    init_y: float | None = None
    init_spread: float = 0.0
    # counterexample parameters
    ce_alpha: float = 0.75
    ce_beta: float = 0.25
    ce_x0: float = 10.0
    # synthetic parameters
    n: int | None = None
    L_low: float = 1.5
    L_high: float = 2.5
    # custom experiment
    problem_json: Path | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if not self.algo_configs:
            raise ConfigError("at least one algorithm config is required")
        if self.trace_stride < 1:
            raise ConfigError("trace_stride must be >= 1")


@dataclass
class PreparedExperiment:
    problem: QuadraticMinimaxProblem
    weights: WeightMatrix
    topology: GraphSpec
    X0: np.ndarray
    Y0: np.ndarray
    init_note: str
    noise: NoiseModel


@dataclass
class ExperimentResult:
    config: RunConfig
    prepared: PreparedExperiment
    traces: dict[str, Trace]
    manifest: dict
    out_dir: Path | None

    @property
    def any_aborted(self) -> bool:
        return any(t.aborted for t in self.traces.values())


def worker_count(n_jobs: int) -> int:
    """Worker cap from ADAST_THREADS (0 or unset means auto)."""
    raw = os.environ.get("ADAST_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"ADAST_THREADS must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ConfigError("ADAST_THREADS must be >= 0")
    if cap == 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_jobs))


def _spread_init(base: float, spread: float, n: int) -> np.ndarray:
    return base + spread * np.arange(n)


def _prepare(cfg: RunConfig) -> PreparedExperiment:
    if cfg.experiment == "case-study":
        problem = make_two_node_case_study()
        topo = cfg.topology or GraphSpec(n=2, kind=GraphKind.RING)
        if topo.n != 2:
            raise ConfigError("the case study is a two-node instance (topology n=2)")
        base_x = 1.0 if cfg.init_x is None else cfg.init_x
        base_y = 1.0 if cfg.init_y is None else cfg.init_y
        spread = cfg.init_spread if cfg.init_spread else 0.01
        X0 = _spread_init(base_x, spread, 2)[:, None]
        Y0 = _spread_init(base_y, spread, 2)[:, None]
        note = f"x_i = {base_x} + {spread}*i, y_i = {base_y} + {spread}*i"
        noise = cfg.noise
    elif cfg.experiment == "counterexample":
        for ac in cfg.algo_configs:
            if ac.algo != "d-sgda":
                ac.require_counterexample_range()
                if (ac.alpha, ac.beta) != (cfg.ce_alpha, cfg.ce_beta):
                    raise ConfigError(
                        "counterexample instance and algorithm exponents must match: "
                        f"instance ({cfg.ce_alpha}, {cfg.ce_beta}) vs "
                        f"config ({ac.alpha}, {ac.beta})"
                    )
        if cfg.ce_x0 == 0.0:
            raise ConfigError("counterexample needs x0 != 0 (the origin is stationary)")
        problem, slope = make_counterexample(cfg.ce_alpha, cfg.ce_beta)
        # The frozen-iterates construction needs three nodes on a complete
        # graph with exact gradients.
        topo = GraphSpec(n=3, kind=GraphKind.COMPLETE)
        X0 = np.full((3, 1), float(cfg.ce_x0))
        Y0 = np.full((3, 1), slope * float(cfg.ce_x0))
        note = f"all nodes at (x0, slope*x0) = ({cfg.ce_x0}, {slope * cfg.ce_x0})"
        noise = NoiseModel.none()
    elif cfg.experiment == "synthetic":
        if cfg.n is None:
            raise ConfigError("synthetic experiment needs --n (node count)")
        problem = make_synthetic(cfg.n, cfg.seed, cfg.L_low, cfg.L_high)
        topo = cfg.topology or GraphSpec(n=cfg.n, kind=GraphKind.EXPONENTIAL)
        if topo.n != cfg.n:
            raise ConfigError(f"topology n={topo.n} does not match --n {cfg.n}")
        if cfg.init_x is None and cfg.init_y is None:
            stat = problem.stationary_point()
            if stat is None:
                X0 = np.zeros((cfg.n, 1))
                Y0 = np.zeros((cfg.n, 1))
                note = "origin (averaged objective has no unique stationary point)"
            else:
                x_star, y_star = stat
                X0 = np.tile(x_star, (cfg.n, 1))
                Y0 = np.tile(y_star, (cfg.n, 1))
                note = f"all nodes at the stationary point ({x_star[0]:.6g}, {y_star[0]:.6g})"
        else:
            bx = cfg.init_x or 0.0
            by = cfg.init_y or 0.0
            X0 = _spread_init(bx, cfg.init_spread, cfg.n)[:, None]
            Y0 = _spread_init(by, cfg.init_spread, cfg.n)[:, None]
            note = f"x_i = {bx} + {cfg.init_spread}*i, y_i = {by} + {cfg.init_spread}*i"
        noise = cfg.noise
    else:  # custom
        if cfg.problem_json is None:
            raise ConfigError("custom experiment needs --problem-json")
        doc = json.loads(Path(cfg.problem_json).read_text())
        problem = QuadraticMinimaxProblem.from_dict(doc)
        if cfg.topology is None:
            raise ConfigError("custom experiment needs an explicit topology")
        topo = cfg.topology
        if topo.n != problem.n:
            raise ConfigError(f"topology n={topo.n} does not match problem n={problem.n}")
        bx = cfg.init_x or 0.0
        by = cfg.init_y or 0.0
        X0 = np.tile(_spread_init(bx, cfg.init_spread, problem.n)[:, None], (1, problem.p))
        Y0 = np.tile(_spread_init(by, cfg.init_spread, problem.n)[:, None], (1, problem.d))
        note = f"x_i = {bx} + {cfg.init_spread}*i (all coords), same for y"
        noise = cfg.noise

    weights = weights_for(topo)
    return PreparedExperiment(
        problem=problem, weights=weights, topology=topo, X0=X0, Y0=Y0,
        init_note=note, noise=noise,
    )


def _fmt(v: float | None) -> str:
    if v is None:
        return "nan"
    return format(float(v), ".17g")


def write_trace(records: list[TraceRecord], path: Path | str) -> None:
    """CSV with the fixed metric header followed by xbar/ybar coordinates."""
    path = Path(path)
    lines = []
    if records:
        p = len(records[0].xbar)
        d = len(records[0].ybar)
    else:
        p = d = 0
    header = TRACE_HEADER + [f"xbar_{j}" for j in range(p)] + [f"ybar_{j}" for j in range(d)]
    lines.append(",".join(header))
    for r in records:
        row = [
            str(r.k),
            _fmt(r.grad_phi_sq),
            _fmt(r.grad_xf_sq),
            _fmt(r.consensus_x),
            _fmt(r.consensus_y),
            _fmt(r.zeta_v_inst),
            _fmt(r.zeta_v_sup),
            _fmt(r.zeta_u_inst),
            _fmt(r.zeta_u_sup),
            _fmt(r.avg_m_x),
            _fmt(r.avg_m_y),
        ]
        row += [_fmt(v) for v in r.xbar]
        row += [_fmt(v) for v in r.ybar]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def read_trace(path: Path | str) -> dict[str, np.ndarray]:
    """Parse a trace CSV back into column arrays (floats round-trip exactly)."""
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    cols: dict[str, list[float]] = {h: [] for h in header}
    for line in text[1:]:
        for h, v in zip(header, line.split(",")):
            cols[h].append(float(v))
    return {h: np.asarray(v) for h, v in cols.items()}


def _gnuplot_script(algo_files: dict[str, str]) -> str:
    """Plot script reading the CSVs: trajectory, gradient norm, inconsistency."""
    lines = [
        "# Trajectory, gradient-norm and inconsistency panels from the trace CSVs.",
        'set datafile separator ","',
        "set terminal pngcairo size 1500,500",
        'set output "panels.png"',
        "set multiplot layout 1,3",
        "set key top right",
        'set xlabel "xbar"',
        'set ylabel "ybar"',
        "plot " + ", \\\n     ".join(
            f'"{f}" using "xbar_0":"ybar_0" with lines title "{algo}"'
            for algo, f in algo_files.items()
        ),
        "set logscale y",
        'set xlabel "iteration"',
        'set ylabel "||grad_x f(xbar,ybar)||^2"',
        "plot " + ", \\\n     ".join(
            f'"{f}" using "k":"grad_xf_sq" with lines title "{algo}"'
            for algo, f in algo_files.items()
        ),
        'set ylabel "zeta_v^2 (instantaneous)"',
        "plot " + ", \\\n     ".join(
            f'"{f}" using "k":(column("zeta_v_inst") > 0 ? column("zeta_v_inst") : NaN) '
            f'with lines title "{algo}"'
            for algo, f in algo_files.items()
        ),
        "unset multiplot",
    ]
    return "\n".join(lines) + "\n"


def run_experiment(cfg: RunConfig, write: bool = True) -> ExperimentResult:
    """Run all algorithm configs of an experiment and persist artifacts.

    Independent configs run on a thread pool capped by ADAST_THREADS.
    """
    prepared = _prepare(cfg)
    problem, wm = prepared.problem, prepared.weights

    labels = []
    seen: dict[str, int] = {}
    for ac in cfg.algo_configs:
        label = ac.algo
        if label in seen:
            seen[label] += 1
            label = f"{label}-{seen[label]}"
        else:
            seen[label] = 0
        labels.append(label)

    def _run_one(ac: AlgoConfig) -> Trace:
        return run(
            problem,
            wm.W,
            ac,
            prepared.noise,
            x0=prepared.X0,
            y0=prepared.Y0,
            seed=cfg.seed,
            trace_stride=cfg.trace_stride,
        )

    n_jobs = len(cfg.algo_configs)
    workers = worker_count(n_jobs)
    if workers > 1 and n_jobs > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_run_one, cfg.algo_configs))
    else:
        traces = [_run_one(ac) for ac in cfg.algo_configs]
    trace_map = dict(zip(labels, traces))

    validation = validate_doubly_stochastic(wm.W)
    manifest = {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "trace_stride": cfg.trace_stride,
        "topology": {
            "kind": prepared.topology.kind.value,
            "n": prepared.topology.n,
        },
        "rho_w": wm.rho_w,
        "rho_w_spectral_norm": wm.spectral_norm,
        "weights_validation": validation.to_dict(),
        "noise": {**prepared.noise.to_dict(), "stream": GradientStream.VERSION},
        "init": prepared.init_note,
        "init_x0": prepared.X0.tolist(),
        "init_y0": prepared.Y0.tolist(),
        "problem": problem.to_dict(),
        "algorithms": {
            label: ac.to_dict() for label, ac in zip(labels, cfg.algo_configs)
        },
        "aborts": {
            label: (
                None
                if not t.aborted
                else {"k": t.abort.k, "node": t.abort.node, "field": t.abort.field}
            )
            for label, t in trace_map.items()
        },
        "traces": {label: f"trace_{label}.csv" for label in labels},
    }

    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    if write and out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, trace in trace_map.items():
            write_trace(trace.records, out_dir / f"trace_{label}.csv")
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        (out_dir / "plots.gp").write_text(
            _gnuplot_script({label: f"trace_{label}.csv" for label in labels})
        )

    return ExperimentResult(
        config=cfg, prepared=prepared, traces=trace_map, manifest=manifest, out_dir=out_dir
    )


def counterexample_report(
    alpha: float,
    beta: float,
    x0: float,
    K: int,
    gamma_x: float = 1.0,
    gamma_y: float = 1.0,
    K_escape: int | None = None,
    seed: int = 0,
) -> dict:
    """Run d-tiada and d-adast from the invariance line and report drift.

    d-tiada is expected to keep both gradient norms frozen (relative
    drift at rounding level); d-adast should leave the line and shrink
    the primal gradient.  All runs use exact gradients and zero buffers.
    """
    if x0 == 0.0:
        raise ConfigError("x0 = 0 starts at the stationary point; nothing to show")
    problem, slope = make_counterexample(alpha, beta)
    X0 = np.full((3, 1), float(x0))
    Y0 = np.full((3, 1), slope * float(x0))

    def grad_norms(rec) -> tuple[float, float]:
        gy = problem.grad_y_avg(rec.xbar, rec.ybar)
        return float(np.sqrt(rec.grad_xf_sq)), float(np.linalg.norm(gy))

    report: dict = {
        "alpha": alpha,
        "beta": beta,
        "x0": x0,
        "slope": slope,
        "gamma_x": gamma_x,
        "gamma_y": gamma_y,
        "K": K,
        "K_escape": K_escape or K,
    }
    for algo, horizon in (("d-tiada", K), ("d-adast", K_escape or K)):
        ac = AlgoConfig(
            algo=algo, gamma_x=gamma_x, gamma_y=gamma_y, alpha=alpha, beta=beta,
            c0=0.0, K=horizon,
        )
        ac.require_counterexample_range()
        trace = run(
            problem, np.full((3, 3), 1.0 / 3.0), ac, NoiseModel.none(),
            x0=X0, y0=Y0, seed=seed, trace_stride=1,
        )
        norms = [grad_norms(r) for r in trace.records]
        gx0, gy0 = norms[0]
        drift_x = max(abs(gx - gx0) / gx0 for gx, _ in norms)
        drift_y = max(abs(gy - gy0) / gy0 for _, gy in norms)
        gx_end, gy_end = norms[-1]
        report[algo] = {
            "max_rel_drift_grad_x": drift_x,
            "max_rel_drift_grad_y": drift_y,
            "final_over_initial_grad_x": gx_end / gx0,
            "final_over_initial_grad_y": gy_end / gy0,
            "aborted": trace.aborted,
        }
    return report
