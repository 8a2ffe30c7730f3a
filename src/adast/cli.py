"""Command-line entry points.

Subcommands:
  run             execute one experiment (case-study, counterexample,
                  synthetic or custom) and write traces + manifest + plots
  counterexample  invariance report for d-tiada vs d-adast on the
                  three-node construction (machine-readable JSON)
  sweep           grid over stepsizes or exponents, one summary row per cell
  spectral        connectivity constants and the stochasticity report of a
                  topology, one JSON object per line

Exit codes: 0 success, 2 configuration error, 3 numeric abort.
A flat key = value config file can seed any flags of `run` and `sweep`;
explicit flags override the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from pathlib import Path

import numpy as np

from .algorithms import AlgoConfig
from .errors import ConfigError
from .harness import EXPERIMENTS, RunConfig, counterexample_report, run_experiment
from .problems import NoiseModel
from .topology import GraphKind, GraphSpec, validate_doubly_stochastic, weights_for

_NOISE_KINDS = ("none", "gaussian", "gaussian-clipped")


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
        return [float(t) for t in _csv_list(text)]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc


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
    try:
        gk = GraphKind(kind)
    except ValueError as exc:
        raise ConfigError(f"unknown topology {kind!r}") from exc
    return GraphSpec(n=n, kind=gk)


def _algo_configs_from_args(args) -> list[AlgoConfig]:
    return [
        AlgoConfig(
            algo=algo,
            gamma_x=args.gamma_x,
            gamma_y=args.gamma_y,
            alpha=args.alpha,
            beta=args.beta,
            c0=args.c0,
            K=args.K,
            stepsize_source=args.stepsize_source,
        )
        for algo in _csv_list(args.algos)
    ]


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="flat key = value config file; flags override")
    sp.add_argument("--experiment", default="case-study", choices=EXPERIMENTS)
    sp.add_argument("--algos", default="d-sgda,d-tiada,d-adast",
                    help="comma-separated algorithm list")
    sp.add_argument("--topology", default=None,
                    help="ring | directed-ring | exponential | dense | complete")
    sp.add_argument("--n", type=int, default=None, help="node count")
    sp.add_argument("--K", type=int, default=100_000, help="iterations")
    sp.add_argument("--gamma-x", type=float, default=0.1)
    sp.add_argument("--gamma-y", type=float, default=0.1)
    sp.add_argument("--alpha", type=float, default=0.6)
    sp.add_argument("--beta", type=float, default=0.4)
    sp.add_argument("--c0", type=float, default=1e-6, help="initial accumulator buffer")
    sp.add_argument("--stepsize-source", default="local", choices=("local", "mixed"),
                    help="accumulators feeding the stepsize: pre-mix (local) or post-mix")
    sp.add_argument("--noise", default=None, choices=_NOISE_KINDS)
    sp.add_argument("--sigma", type=float, default=0.31622776601683794,
                    help="noise std (default sqrt(0.1))")
    sp.add_argument("--clip", type=float, default=None, help="gradient norm bound")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace-stride", type=int, default=100)
    sp.add_argument("--out-dir", default="runs/latest")
    sp.add_argument("--init-x", type=float, default=None,
                    help="start x_i = init_x + init_spread*i; the counterexample's x0")
    sp.add_argument("--init-y", type=float, default=None)
    sp.add_argument("--init-spread", type=float, default=None)
    sp.add_argument("--problem-json", default=None)


def _run_config_from_args(args) -> RunConfig:
    return RunConfig(
        experiment=args.experiment,
        algo_configs=_algo_configs_from_args(args),
        topology=_graph_spec(args.topology, args.n) if args.topology else None,
        noise=_noise_from_args(args),
        seed=args.seed,
        trace_stride=args.trace_stride,
        out_dir=Path(args.out_dir) if args.out_dir else None,
        init_x=args.init_x,
        init_y=args.init_y,
        init_spread=args.init_spread,
        n=args.n,
        problem_json=Path(args.problem_json) if args.problem_json else None,
    )


def cmd_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="adast run")
    _add_run_flags(parser)
    args = _apply_config_file(parser, argv)
    cfg = _run_config_from_args(args)
    result = run_experiment(cfg)
    print(json.dumps({
        "out_dir": str(result.out_dir),
        "rho_w": result.manifest["rho_w"],
        "rho_w_spectral_norm": result.manifest["rho_w_spectral_norm"],
        "aborts": result.manifest["aborts"],
    }))
    return 3 if result.any_aborted else 0


def cmd_counterexample(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="adast counterexample")
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--x0", type=float, required=True)
    parser.add_argument("--K", type=int, default=1000)
    parser.add_argument("--K-escape", type=int, default=None,
                        help="horizon for the d-adast run (defaults to --K)")
    parser.add_argument("--gamma-x", type=float, default=1.0)
    parser.add_argument("--gamma-y", type=float, default=1.0)
    parser.add_argument("--out", default=None, help="also write the JSON report here")
    args = parser.parse_args(argv)
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


def cmd_sweep(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="adast sweep")
    _add_run_flags(parser)
    parser.add_argument("--gamma-x-grid", default=None, help="comma-separated values")
    parser.add_argument("--gamma-y-grid", default=None)
    parser.add_argument("--alpha-grid", default=None)
    parser.add_argument("--beta-grid", default=None)
    parser.add_argument("--threshold", type=float, default=1e-3,
                        help="grad_phi_sq level for iterations-to-threshold")
    args = _apply_config_file(parser, argv)

    gx_grid = _csv_floats(args.gamma_x_grid) if args.gamma_x_grid else [args.gamma_x]
    gy_grid = _csv_floats(args.gamma_y_grid) if args.gamma_y_grid else [args.gamma_y]
    al_grid = _csv_floats(args.alpha_grid) if args.alpha_grid else [args.alpha]
    be_grid = _csv_floats(args.beta_grid) if args.beta_grid else [args.beta]

    rows = ["gamma_x,gamma_y,alpha,beta,algo,final_grad_phi_sq,final_zeta_v_sup,"
            "iters_to_threshold,aborted"]
    any_abort = False
    base_out = Path(args.out_dir) if args.out_dir else Path("runs/sweep")
    # every cell's config is validated before any cell runs or writes
    cells = []
    for gx, gy, al, be in product(gx_grid, gy_grid, al_grid, be_grid):
        args.gamma_x, args.gamma_y, args.alpha, args.beta = gx, gy, al, be
        cells.append(((gx, gy, al, be), _run_config_from_args(args)))
    # the cells' problems, each built once; the cells' results are not kept
    problems: dict = {}
    for (gx, gy, al, be), cfg in cells:
        cfg.out_dir = base_out / f"gx{gx}_gy{gy}_a{al}_b{be}"
        for label, trace in run_experiment(cfg, problems).traces.items():
            any_abort = any_abort or trace.aborted
            hits = np.flatnonzero(trace.grad_phi_sq <= args.threshold)
            hit = trace.k[hits[0]] if hits.size else -1
            rows.append(
                f"{gx},{gy},{al},{be},{label},"
                f"{trace.grad_phi_sq[-1].item():.17g},"
                f"{trace.zeta_v_sup[-1].item():.17g},{hit},{int(trace.aborted)}"
            )
    base_out.mkdir(parents=True, exist_ok=True)
    (base_out / "sweep.csv").write_text("\n".join(rows) + "\n")
    print(str(base_out / "sweep.csv"))
    return 3 if any_abort else 0


def cmd_spectral(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="adast spectral")
    parser.add_argument("--topology", required=True,
                        help="ring | directed-ring | exponential | dense | complete")
    parser.add_argument("--n", type=int, required=True)
    args = parser.parse_args(argv)
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
    parser = argparse.ArgumentParser(
        prog="adast",
        description="decentralized adaptive minimax simulator",
    )
    parser.add_argument("command", choices=("run", "counterexample", "sweep", "spectral"))
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    handlers = {
        "run": cmd_run,
        "counterexample": cmd_counterexample,
        "sweep": cmd_sweep,
        "spectral": cmd_spectral,
    }
    if command not in handlers:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    try:
        return handlers[command](rest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
