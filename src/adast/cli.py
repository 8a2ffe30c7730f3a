"""Command-line entry points.

Subcommands:
  run             execute one experiment (case-study, counterexample,
                  synthetic or custom) and write traces + manifest + plots
                  into --out-dir (default runs/latest)
  counterexample  invariance report for d-tiada vs d-adast on the
                  three-node construction (machine-readable JSON)
  sweep           grid over stepsizes or exponents, one summary row per
                  cell, into --out-dir (default runs/sweep)
  spectral        connectivity constants and the stochasticity report of a
                  topology, one JSON object per line

`main` parses the chosen subcommand's flags once and hands them to its
handler.  `run` and `sweep` share their flags, whose defaults and choices
are the library's own.  Exit codes: 0 success, 2 configuration error (an
empty --out-dir included), 3 numeric abort.  A flat key = value config
file can seed any flags of `run` and `sweep`; explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from pathlib import Path

import numpy as np

from .algorithms import STEPSIZE_SOURCES, AlgoConfig
from .errors import ConfigError
from .harness import EXPERIMENTS, RunConfig, counterexample_report, prepare, run_experiment
from .problems import NOISE_KINDS, NoiseModel
from .topology import GraphKind, GraphSpec, validate_doubly_stochastic, weights_for

_TOPOLOGIES = " | ".join(k.value for k in GraphKind if k is not GraphKind.CUSTOM)
# the AlgoConfig fields a sweep grids over, in the order of its cells' names and columns
_GRID = ("gamma_x", "gamma_y", "alpha", "beta")


def _parse_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; keys use underscores."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if len(val) >= 2 and val[0] == val[-1] and val[0] in "\"'":
            val = val[1:-1]
        values[key] = val
    return values


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    probe, _ = parser.parse_known_args(argv)
    cfg_path = getattr(probe, "config", None)
    if cfg_path:
        file_values = _parse_config_file(cfg_path)
        flags = {a.dest: a.option_strings[0] for a in parser._actions if a.dest != "help"}
        unknown = set(file_values) - set(flags)
        if unknown:
            raise ConfigError(f"unknown config key {sorted(unknown)[0]!r} in {cfg_path}")
        # each value goes through its own flag; the explicit flags after it override it
        argv = [*(f"{flags[key]}={val}" for key, val in file_values.items()), *argv]
    return parser.parse_args(argv)


def _csv_list(text: str) -> list[str]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ConfigError(f"empty list value: {text!r}")
    return items


def _csv_floats(text: str) -> list[float]:
    try:
        values = [float(t) for t in _csv_list(text)]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc
    if len(set(values)) < len(values):
        raise ConfigError(f"grid {text!r} repeats a value")
    return values


def _noise_from_args(args) -> NoiseModel:
    # an unset --noise is Gaussian for the synthetic family and none elsewhere
    kind = args.noise or ("gaussian" if args.experiment == "synthetic" else "none")
    if kind == "none":
        return NoiseModel.none()
    if kind == "gaussian":
        return NoiseModel.gaussian(args.sigma)
    return NoiseModel.clipped(args.sigma, args.clip)


def _graph_spec(kind: str, n: int | None) -> GraphSpec:
    if n is None:
        raise ConfigError("--n is required when a topology is given")
    return GraphSpec(n=n, kind=kind)


def _run_flags(sp: argparse.ArgumentParser) -> None:
    """The flags of `run`, which `sweep` shares."""
    sp.add_argument("--config", help="flat key = value config file; flags override")
    sp.add_argument("--experiment", default="case-study", choices=EXPERIMENTS)
    sp.add_argument("--algos", default="d-sgda,d-tiada,d-adast",
                    help="comma-separated algorithm list")
    sp.add_argument("--topology", default=None, help=_TOPOLOGIES)
    sp.add_argument("--n", type=int, default=None, help="node count")
    sp.add_argument("--K", type=int, default=100_000, help="iterations")
    sp.add_argument("--gamma-x", type=float, default=0.1)
    sp.add_argument("--gamma-y", type=float, default=0.1)
    sp.add_argument("--alpha", type=float, default=AlgoConfig.alpha)
    sp.add_argument("--beta", type=float, default=AlgoConfig.beta)
    sp.add_argument("--c0", type=float, default=AlgoConfig.c0, help="initial accumulator buffer")
    sp.add_argument("--stepsize-source", default=AlgoConfig.stepsize_source,
                    choices=STEPSIZE_SOURCES,
                    help="accumulators feeding the stepsize: pre-mix (local) or post-mix")
    sp.add_argument("--noise", default=None, choices=NOISE_KINDS)
    sp.add_argument("--sigma", type=float, default=0.1 ** 0.5,
                    help="noise std (default sqrt(0.1))")
    sp.add_argument("--clip", type=float, default=None, help="gradient norm bound")
    sp.add_argument("--seed", type=int, default=RunConfig.seed)
    sp.add_argument("--trace-stride", type=int, default=RunConfig.trace_stride)
    sp.add_argument("--out-dir", default="runs/latest")
    sp.add_argument("--init-x", type=float, default=None,
                    help="start x_i = init_x + init_spread*i; the counterexample's x0")
    sp.add_argument("--init-y", type=float, default=None)
    sp.add_argument("--init-spread", type=float, default=None)
    sp.add_argument("--problem-json", default=None)


def _sweep_flags(sp: argparse.ArgumentParser) -> None:
    _run_flags(sp)
    sp.set_defaults(out_dir="runs/sweep")
    for name in _GRID:
        sp.add_argument(f"--{name.replace('_', '-')}-grid", help="comma-separated values")
    sp.add_argument("--threshold", type=float, default=1e-3,
                    help="grad_phi_sq level for iterations-to-threshold")


def _counterexample_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--K", type=int, default=1000)
    sp.add_argument("--K-escape", type=int, default=None,
                    help="horizon for the d-adast run (defaults to --K)")
    sp.add_argument("--gamma-x", type=float, default=1.0)
    sp.add_argument("--gamma-y", type=float, default=1.0)
    sp.add_argument("--out", default=None, help="also write the JSON report here")


def _spectral_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--topology", required=True, help=_TOPOLOGIES)
    sp.add_argument("--n", type=int, required=True)


def _run_config_from_args(args, cell: str = "", **grid) -> RunConfig:
    """The run that ``args`` describe, written to ``--out-dir`` or its
    subdirectory ``cell``; ``grid`` overrides fields of every AlgoConfig."""
    if not args.out_dir:
        raise ConfigError("--out-dir must name a directory, got ''")
    algo = dict(gamma_x=args.gamma_x, gamma_y=args.gamma_y, alpha=args.alpha, beta=args.beta,
                c0=args.c0, K=args.K, stepsize_source=args.stepsize_source) | grid
    return RunConfig(
        experiment=args.experiment,
        algo_configs=[AlgoConfig(algo=name, **algo) for name in _csv_list(args.algos)],
        topology=_graph_spec(args.topology, args.n) if args.topology else None,
        noise=_noise_from_args(args),
        seed=args.seed,
        trace_stride=args.trace_stride,
        out_dir=Path(args.out_dir, cell),
        init_x=args.init_x,
        init_y=args.init_y,
        init_spread=args.init_spread,
        n=args.n,
        problem_json=Path(args.problem_json) if args.problem_json else None,
    )


def cmd_run(args) -> int:
    result = run_experiment(_run_config_from_args(args))
    print(json.dumps({
        "out_dir": str(result.out_dir),
        "rho_w": result.manifest["rho_w"],
        "rho_w_spectral_norm": result.manifest["rho_w_spectral_norm"],
        "aborts": result.manifest["aborts"],
    }))
    return 3 if result.any_aborted else 0


def cmd_counterexample(args) -> int:
    report = counterexample_report(
        args.alpha, args.beta, args.x0, args.K,
        gamma_x=args.gamma_x, gamma_y=args.gamma_y,
        K_escape=args.K_escape,
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    aborted = report["d-tiada"]["aborted"] or report["d-adast"]["aborted"]
    return 3 if aborted else 0


def cmd_sweep(args) -> int:
    grids = [_csv_floats(grid) if (grid := getattr(args, f"{name}_grid")) else
             [getattr(args, name)] for name in _GRID]
    # every cell's config and start are checked, and each distinct problem
    # built once, before any cell runs or writes; the cells' results are not kept
    cells = [(cell, _run_config_from_args(args, "gx{}_gy{}_a{}_b{}".format(*cell),
                                          **dict(zip(_GRID, cell))))
             for cell in product(*grids)]
    problems: dict = {}
    for _, cfg in cells:
        prepare(cfg, problems)
    rows = ["gamma_x,gamma_y,alpha,beta,algo,final_grad_phi_sq,final_zeta_v_sup,"
            "iters_to_threshold,aborted"]
    any_abort = False
    for cell, cfg in cells:
        for label, trace in run_experiment(cfg, problems).traces.items():
            any_abort = any_abort or trace.aborted
            hits = np.flatnonzero(trace.grad_phi_sq <= args.threshold)
            hit = trace.k[hits[0]] if hits.size else -1
            rows.append(
                f"{','.join(map(str, cell))},{label},"
                f"{trace.grad_phi_sq[-1].item():.17g},"
                f"{trace.zeta_v_sup[-1].item():.17g},{hit},{int(trace.aborted)}"
            )
    base_out = Path(args.out_dir)
    base_out.mkdir(parents=True, exist_ok=True)
    (base_out / "sweep.csv").write_text("\n".join(rows) + "\n")
    print(str(base_out / "sweep.csv"))
    return 3 if any_abort else 0


def cmd_spectral(args) -> int:
    spec = _graph_spec(args.topology, args.n)
    wm = weights_for(spec)
    print(json.dumps({
        "topology": spec.kind.value,
        "n": args.n,
        "rho_w": wm.rho_w,
        "rho_w_spectral_norm": wm.spectral_norm,
        "validation": validate_doubly_stochastic(wm.W),
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # subcommand -> (its flags, its handler, its one-line help); built at
    # each call, so that a handler replaced on the module since import is
    # the one called
    commands = {
        "run": (_run_flags, cmd_run, "execute one experiment into --out-dir"),
        "counterexample": (_counterexample_flags, cmd_counterexample,
                           "invariance report of d-tiada against d-adast as JSON"),
        "sweep": (_sweep_flags, cmd_sweep,
                  "grid over stepsizes or exponents, one summary row per cell"),
        "spectral": (_spectral_flags, cmd_spectral,
                     "connectivity constants and stochasticity report of a topology"),
    }
    usage = f"usage: adast {{{','.join(commands)}}} ..."
    if argv[:1] in (["-h"], ["--help"]):
        print(usage)
        for name, (*_, text) in commands.items():
            print(f"  {name:<16}{text}")
        return 0
    if not argv or argv[0] not in commands:
        print(usage, file=sys.stderr)
        if argv:
            print(f"error: unknown command {argv[0]!r}", file=sys.stderr)
        return 2
    add_flags, handler, text = commands[argv[0]]
    parser = argparse.ArgumentParser(prog=f"adast {argv[0]}", description=text)
    add_flags(parser)
    try:
        return handler(_apply_config_file(parser, argv[1:]))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
