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
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import AlgoConfig, Trace, run
from .errors import ConfigError
from .metrics import TRACE_HEADER
from .problems import (
    GradientStream,
    NoiseModel,
    QuadraticMinimaxProblem,
    make_counterexample,
    make_synthetic,
    make_two_node_case_study,
    require_finite,
)
from .topology import GraphKind, GraphSpec, validate_doubly_stochastic, weights_for

__all__ = [
    "RunConfig",
    "ExperimentResult",
    "run_experiment",
    "counterexample_report",
    "write_trace",
    "TRACE_HEADER",
]

EXPERIMENTS = ("case-study", "counterexample", "synthetic", "custom")


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
    # start x_i = init_x + init_spread*i (y likewise); None takes the
    # experiment's default, see _DEFAULTS
    init_x: float | None = None
    init_y: float | None = None
    init_spread: float | None = None
    # synthetic parameters
    n: int | None = None
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
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        require_finite(init_x=self.init_x, init_y=self.init_y, init_spread=self.init_spread)


@dataclass
class ExperimentResult:
    problem: QuadraticMinimaxProblem
    traces: dict[str, Trace]
    manifest: dict
    out_dir: Path | None

    @property
    def any_aborted(self) -> bool:
        return any(t.aborted for t in self.traces.values())


# experiment -> (default graph kind, default (init_x, init_y, init_spread)).
# The synthetic default start is its stationary point unless init_x or
# init_y is given; the counterexample starts on its invariance line at
# init_x.  Its iterates stay frozen only on the complete graph with exact
# gradients, its defaults.
_DEFAULTS = {
    "case-study": (GraphKind.RING, (1.0, 1.0, 0.01)),
    "counterexample": (GraphKind.COMPLETE, (10.0, None, None)),
    "synthetic": (GraphKind.EXPONENTIAL, (0.0, 0.0, 0.0)),
    "custom": (None, (0.0, 0.0, 0.0)),
}


def _problem_key(cfg: RunConfig) -> tuple:
    """What the problem instance of ``cfg`` depends on: the experiment and
    its factory's arguments, which are the exponent pair (counterexample),
    ``n`` and ``seed`` (synthetic), the problem file (custom) or nothing
    (case study).  Configs with equal keys get equal instances."""
    if cfg.experiment == "counterexample":
        # The instance is built for the adaptive methods' exponents (d-sgda
        # has none), so one run can hold only one pair.
        adaptive = [ac for ac in cfg.algo_configs if ac.algo != "d-sgda"]
        exponents = sorted({(ac.alpha, ac.beta) for ac in adaptive})
        if len(exponents) > 1:
            raise ConfigError(
                f"counterexample methods need one exponent pair (alpha, beta), got {exponents}"
            )
        ac = (adaptive or cfg.algo_configs)[0]
        return cfg.experiment, ac.alpha, ac.beta
    if cfg.experiment == "synthetic":
        if cfg.n is None:
            raise ConfigError("synthetic experiment needs --n (node count)")
        return cfg.experiment, cfg.n, cfg.seed
    if cfg.experiment == "custom":
        if cfg.problem_json is None:
            raise ConfigError("custom experiment needs --problem-json")
        return cfg.experiment, Path(cfg.problem_json)
    return (cfg.experiment,)


def _build_problem(experiment: str, *args) -> QuadraticMinimaxProblem:
    """The instance of a ``_problem_key``."""
    if experiment == "counterexample":
        return make_counterexample(*args)[0]
    if experiment == "synthetic":
        return make_synthetic(*args)
    if experiment == "custom":
        path, = args
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read problem JSON {path}: {exc}") from exc
        return QuadraticMinimaxProblem.from_dict(doc)
    return make_two_node_case_study()


def _prepare(cfg: RunConfig, problems: dict | None = None):
    """The problem, weights, topology, start (X0, Y0) and its manifest note.

    Every experiment takes its topology, node count, noise and start from
    ``cfg`` by one rule; only the problem and the defaults differ.

    ``problems`` maps a ``_problem_key`` to its instance: the problem is
    taken from there when its key is present and added when not.  The
    weights are built every time."""
    kind, (bx, by, spread) = _DEFAULTS[cfg.experiment]
    bx = bx if cfg.init_x is None else cfg.init_x
    by = by if cfg.init_y is None else cfg.init_y
    spread = spread if cfg.init_spread is None else cfg.init_spread
    X0 = note = None
    if cfg.experiment == "counterexample" and (
            cfg.init_y is not None or cfg.init_spread is not None):
        raise ConfigError(
            "the counterexample starts on its invariance line at init_x; "
            "init_y and init_spread do not apply"
        )
    key = _problem_key(cfg)
    problems = {} if problems is None else problems
    if key not in problems:
        problems[key] = _build_problem(*key)
    problem = problems[key]
    if cfg.experiment == "counterexample":
        if bx == 0.0:
            raise ConfigError("counterexample needs x0 != 0 (the origin is stationary)")
        slope = problem.meta["init_slope"]
        X0, Y0 = np.full((3, 1), float(bx)), np.full((3, 1), slope * float(bx))
        note = f"all nodes at (x0, slope*x0) = ({bx}, {slope * bx})"
    elif cfg.experiment == "synthetic" and cfg.init_x is None and cfg.init_y is None:
        stat = problem.stationary_point()
        if stat is None:
            note = "origin (averaged objective has no unique stationary point)"
        else:
            bx, by = stat
            note = f"all nodes at the stationary point ({bx[0]:.6g}, {by[0]:.6g})"
        if spread:
            note += f", plus {spread}*i"
    elif cfg.experiment == "custom" and cfg.topology is None:
        raise ConfigError("custom experiment needs an explicit topology")

    n = problem.n
    if cfg.n is not None and cfg.n != n:
        raise ConfigError(f"--n {cfg.n} does not match the {cfg.experiment} problem's n={n}")
    topo = cfg.topology or GraphSpec(n=n, kind=kind)
    if topo.n != n:
        raise ConfigError(f"topology n={topo.n} does not match problem n={n}")
    if X0 is None:
        offset = spread * np.arange(n)[:, None]
        X0 = np.full((n, problem.p), bx) + offset
        Y0 = np.full((n, problem.d), by) + offset
    if note is None:
        note = f"x_i = {bx} + {spread}*i, y_i = {by} + {spread}*i"
    return problem, weights_for(topo), topo, X0, Y0, note


def write_trace(trace: Trace, path: Path | str) -> None:
    """CSV with the fixed metric header followed by xbar/ybar coordinates;
    floats at 17 significant digits, NaN as ``nan``."""
    p, d = trace.xbar.shape[1], trace.ybar.shape[1]
    header = TRACE_HEADER + [f"xbar_{j}" for j in range(p)] + [f"ybar_{j}" for j in range(d)]
    columns = [getattr(trace, h) for h in TRACE_HEADER] + list(trace.xbar.T) + list(trace.ybar.T)
    line = "{}" + ",{:.17g}" * (len(columns) - 1) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(map(line.format, *(c.tolist() for c in columns)))


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


def run_experiment(cfg: RunConfig, problems: dict | None = None) -> ExperimentResult:
    """Run all algorithm configs of an experiment; write its artifacts
    unless ``cfg.out_dir`` is None.

    ``problems``, a dict the caller keeps over a series of experiments,
    lets the series build each distinct problem once (see ``_problem_key``
    for what an instance depends on).  Weights, start and manifest are
    made anew, so the outputs equal those of a run without it."""
    problem, wm, topo, X0, Y0, note = _prepare(cfg, problems)
    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

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

    trace_map = {
        label: run(problem, wm.W, ac, cfg.noise, x0=X0, y0=Y0, seed=cfg.seed,
                   trace_stride=cfg.trace_stride)
        for label, ac in zip(labels, cfg.algo_configs)
    }

    manifest = {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "trace_stride": cfg.trace_stride,
        "topology": {
            "kind": topo.kind.value,
            "n": topo.n,
        },
        "rho_w": wm.rho_w,
        "rho_w_spectral_norm": wm.spectral_norm,
        "weights_validation": validate_doubly_stochastic(wm.W),
        "noise": {**cfg.noise.to_dict(), "stream": GradientStream.VERSION},
        "init": note,
        "init_x0": X0.tolist(),
        "init_y0": Y0.tolist(),
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

    if out_dir is not None:
        for label, trace in trace_map.items():
            write_trace(trace, out_dir / f"trace_{label}.csv")
        # streamed, not joined first: a 400-node manifest is about 1 MB of text
        with open(out_dir / "manifest.json", "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
        (out_dir / "plots.gp").write_text(
            _gnuplot_script({label: f"trace_{label}.csv" for label in labels})
        )

    return ExperimentResult(problem=problem, traces=trace_map, manifest=manifest, out_dir=out_dir)


def counterexample_report(
    alpha: float,
    beta: float,
    x0: float,
    K: int,
    gamma_x: float = 1.0,
    gamma_y: float = 1.0,
    K_escape: int | None = None,
) -> dict:
    """Run d-tiada and d-adast from the invariance line and report drift.

    d-tiada is expected to keep both gradient norms frozen (relative
    drift at rounding level); d-adast should leave the line and shrink
    the primal gradient.  All runs use exact gradients and zero buffers.
    """
    K_escape = K if K_escape is None else K_escape
    result = run_experiment(RunConfig(
        experiment="counterexample",
        algo_configs=[
            AlgoConfig(algo=algo, gamma_x=gamma_x, gamma_y=gamma_y, alpha=alpha, beta=beta,
                       c0=0.0, K=horizon)
            for algo, horizon in (("d-tiada", K), ("d-adast", K_escape))
        ],
        trace_stride=1,
        init_x=x0,
    ))
    problem = result.problem
    report: dict = {
        "alpha": alpha,
        "beta": beta,
        "x0": x0,
        "slope": problem.meta["init_slope"],
        "gamma_x": gamma_x,
        "gamma_y": gamma_y,
        "K": K,
        "K_escape": K_escape,
    }
    for algo, trace in result.traces.items():
        gx = np.sqrt(trace.grad_xf_sq)
        gy = np.linalg.norm(problem.grad_y_avg(trace.xbar, trace.ybar), axis=1)
        report[algo] = {
            "max_rel_drift_grad_x": float(np.max(np.abs(gx - gx[0]) / gx[0])),
            "max_rel_drift_grad_y": float(np.max(np.abs(gy - gy[0]) / gy[0])),
            "final_over_initial_grad_x": float(gx[-1] / gx[0]),
            "final_over_initial_grad_y": float(gy[-1] / gy[0]),
            "aborted": trace.aborted,
        }
    return report
