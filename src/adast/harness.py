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
from collections import namedtuple
from dataclasses import asdict, dataclass, field
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
    require_int,
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


def _counterexample_pair(cfg: RunConfig) -> tuple:
    # the instance is built for the adaptive methods' exponents (d-sgda has
    # none), so one run can hold only one pair; d-sgda alone gives its own
    pairs = sorted({(ac.alpha, ac.beta) for ac in cfg.algo_configs if ac.algo != "d-sgda"})
    if len(pairs) > 1:
        raise ConfigError("counterexample methods need one exponent pair (alpha, beta), "
                          f"got {pairs}")
    return pairs[0] if pairs else (cfg.algo_configs[0].alpha, cfg.algo_configs[0].beta)


def _check_counterexample(cfg: RunConfig) -> None:
    _counterexample_pair(cfg)
    if cfg.init_y is not None or cfg.init_spread is not None:
        raise ConfigError("the counterexample starts on its invariance line at init_x; "
                          "init_y and init_spread do not apply")
    if cfg.start()[0] == 0.0:
        raise ConfigError("counterexample needs x0 != 0 (the origin is stationary)")


def _read_problem(path: Path) -> QuadraticMinimaxProblem:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read problem JSON {path}: {exc}") from exc
    return QuadraticMinimaxProblem.from_dict(doc)


def _as_given(cfg, problem, bx, by, spread) -> tuple:
    return bx, by, f"x_i = {bx} + {spread}*i, y_i = {by} + {spread}*i"


def _on_invariance_line(cfg, problem, bx, by, spread) -> tuple:
    by = problem.meta["init_slope"] * bx
    return bx, by, f"all nodes at (x0, slope*x0) = ({bx}, {by})"


def _at_stationary_point(cfg, problem, bx, by, spread) -> tuple:
    if cfg.init_x is not None or cfg.init_y is not None:
        return _as_given(cfg, problem, bx, by, spread)
    stat = problem.stationary_point()
    if stat is None:
        note = "origin (averaged objective has no unique stationary point)"
    else:
        bx, by = stat
        note = f"all nodes at the stationary point ({bx[0]:.6g}, {by[0]:.6g})"
    return bx, by, note + (f", plus {spread}*i" if spread else "")


_Experiment = namedtuple("_Experiment", "graph start key build needs check anchor",
                         defaults=((), None, _as_given))

# experiment -> its one definition: default graph (None: the config gives
# one); default (init_x, init_y, init_spread); what its instance depends on
# (config -> arguments); factory (arguments -> instance, reaching the
# module's names at each call); the config fields it needs, as (field, what
# to give); a check that needs no instance; and its anchor, (config, problem,
# init_x, init_y, init_spread) -> (init_x, init_y, start note), after which
# node i starts at init + init_spread*i.  The counterexample's iterates stay
# frozen only on its default graph with exact gradients.
_TABLE = {
    "case-study": _Experiment(GraphKind.RING, (1.0, 1.0, 0.01), lambda cfg: (),
                              lambda: make_two_node_case_study()),
    "counterexample": _Experiment(GraphKind.COMPLETE, (10.0, None, 0.0), _counterexample_pair,
                                  lambda alpha, beta: make_counterexample(alpha, beta)[0],
                                  check=_check_counterexample, anchor=_on_invariance_line),
    "synthetic": _Experiment(GraphKind.EXPONENTIAL, (0.0, 0.0, 0.0), lambda cfg: (cfg.n, cfg.seed),
                             lambda n, seed: make_synthetic(n, seed),
                             needs=(("n", "--n (node count)"),), anchor=_at_stationary_point),
    "custom": _Experiment(None, (0.0, 0.0, 0.0), lambda cfg: (Path(cfg.problem_json),),
                          _read_problem, needs=(("problem_json", "--problem-json"),
                                                ("topology", "an explicit topology"))),
}
EXPERIMENTS = tuple(_TABLE)


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
    # experiment's default, see _TABLE
    init_x: float | None = None
    init_y: float | None = None
    init_spread: float | None = None
    # synthetic parameters
    n: int | None = None
    # custom experiment
    problem_json: Path | None = None

    def __post_init__(self) -> None:
        """Every check that needs no problem instance.  Past it a run fails
        only on a problem factory's refusal or in ``prepare``."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if not self.algo_configs:
            raise ConfigError("at least one algorithm config is required")
        require_int(1, trace_stride=self.trace_stride)
        require_int(0, seed=self.seed)
        if self.n is not None:
            require_int(1, n=self.n)
        require_finite(init_x=self.init_x, init_y=self.init_y, init_spread=self.init_spread)
        kind = _TABLE[self.experiment]
        for name, what in kind.needs:
            if getattr(self, name) is None:
                raise ConfigError(f"{self.experiment} experiment needs {what}")
        if kind.check is not None:
            kind.check(self)

    def start(self) -> tuple:
        """(init_x, init_y, init_spread), each as given or the experiment's default."""
        given = (self.init_x, self.init_y, self.init_spread)
        return tuple(d if v is None else v for v, d in zip(given, _TABLE[self.experiment].start))


@dataclass
class ExperimentResult:
    problem: QuadraticMinimaxProblem
    traces: dict[str, Trace]
    manifest: dict
    out_dir: Path | None

    @property
    def any_aborted(self) -> bool:
        return any(t.aborted for t in self.traces.values())


def prepare(cfg: RunConfig, problems: dict) -> tuple:
    """The problem, graph, start (X0, Y0) and start note of ``cfg``.

    The problem is taken from ``problems``, which maps the experiment and
    the arguments its instance depends on (see ``_TABLE``) to the instance,
    when its key is there, and built into it when not.  The start follows
    the experiment's anchor from ``cfg.start()``.  Refuses a node count that
    disagrees with the problem's and a start with a non-finite entry."""
    kind = _TABLE[cfg.experiment]
    key = (cfg.experiment, *kind.key(cfg))
    if key not in problems:
        problems[key] = kind.build(*key[1:])
    problem = problems[key]
    n = problem.n
    if cfg.n is not None and cfg.n != n:
        raise ConfigError(f"--n {cfg.n} does not match the {cfg.experiment} problem's n={n}")
    topo = cfg.topology or GraphSpec(n=n, kind=kind.graph)
    if topo.n != n:
        raise ConfigError(f"topology n={topo.n} does not match problem n={n}")
    bx, by, spread = cfg.start()
    bx, by, note = kind.anchor(cfg, problem, bx, by, spread)
    with np.errstate(over="ignore", invalid="ignore"):
        offset = spread * np.arange(n)[:, None]
        X0 = np.full((n, problem.p), bx) + offset
        Y0 = np.full((n, problem.d), by) + offset
    finite = np.isfinite(X0).all(axis=1) & np.isfinite(Y0).all(axis=1)
    if not finite.all():
        raise ConfigError(f"the start is not finite at node {np.argmin(finite)} ({note})")
    return problem, topo, X0, Y0, note


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

    def plot(using: str) -> str:
        return "plot " + ", \\\n     ".join(
            f'"{f}" using {using} with lines title "{algo}"' for algo, f in algo_files.items())

    lines = [
        "# Trajectory, gradient-norm and inconsistency panels from the trace CSVs.",
        'set datafile separator ","',
        "set terminal pngcairo size 1500,500",
        'set output "panels.png"',
        "set multiplot layout 1,3",
        "set key top right",
        'set xlabel "xbar"',
        'set ylabel "ybar"',
        plot('"xbar_0":"ybar_0"'),
        "set logscale y",
        'set xlabel "iteration"',
        'set ylabel "||grad_x f(xbar,ybar)||^2"',
        plot('"k":"grad_xf_sq"'),
        'set ylabel "zeta_v^2 (instantaneous)"',
        plot('"k":(column("zeta_v_inst") > 0 ? column("zeta_v_inst") : NaN)'),
        "unset multiplot",
    ]
    return "\n".join(lines) + "\n"


def run_experiment(cfg: RunConfig, problems: dict | None = None) -> ExperimentResult:
    """Run all algorithm configs of an experiment; write its artifacts
    unless ``cfg.out_dir`` is None.

    ``problems``, a dict the caller keeps over a series of experiments,
    lets the series build each distinct problem once (see ``_TABLE`` for
    what an instance depends on).  Weights, start and manifest are
    made anew, so the outputs equal those of a run without it."""
    problem, topo, X0, Y0, note = prepare(cfg, {} if problems is None else problems)
    wm = weights_for(topo)
    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    # a method listed again is labelled by its repeat count: d-adast, d-adast-1, ...
    labels, seen = [], {}
    for ac in cfg.algo_configs:
        seen[ac.algo] = seen.get(ac.algo, -1) + 1
        labels.append(f"{ac.algo}-{seen[ac.algo]}" if seen[ac.algo] else ac.algo)
    files = {label: f"trace_{label}.csv" for label in labels}

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
        "topology": {"kind": topo.kind.value, "n": topo.n},
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
        "aborts": {label: None if t.abort is None else asdict(t.abort)
                   for label, t in trace_map.items()},
        "traces": files,
    }

    if out_dir is not None:
        for label, trace in trace_map.items():
            write_trace(trace, out_dir / files[label])
        # streamed, not joined first, and without indent, which halves the
        # text of a 400-node manifest (0.97 to 0.53 MB)
        with open(out_dir / "manifest.json", "w") as f:
            json.dump(manifest, f, sort_keys=True)
        (out_dir / "plots.gp").write_text(_gnuplot_script(files))

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
