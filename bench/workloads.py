"""The benchmark's three workloads.

Each workload makes its inputs from the seed when it is built, runs one
pass through the simulator in ``run_pass`` (the timed part) and checks
that pass's outputs in ``check`` (not timed).  A pass always attempts the
same operations: one per run of a method, and in ``ring-sweep`` one more
per sweep cell for its spectral constant.

- ``counterexample`` enters at ``algorithms.run``: the fixed per-iteration
  cost of the loop at n = 3, with stride-1 records on half the runs.
- ``synthetic-n50`` enters at ``harness.run_experiment``: the noise stream,
  the thread pool and the trace writer at n = 50.
- ``ring-sweep`` enters at the ``adast sweep`` command: a dense gossip mix
  on a 400-node ring, twice per iteration, and a weight matrix with its
  spectral constant rebuilt for every cell.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adast import algorithms, cli, harness, problems
from adast.algorithms import AlgoConfig
from adast.problems import NoiseModel

import checks


@dataclass
class Outcome:
    """What one pass attempted, what failed, what was wrong and how many
    algorithm iterations it completed."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    iters: int = 0


# (alpha, beta) and x0 of criteria 1 and 2, with criterion 2's calibrated
# per-instance stepsizes (gamma_x, gamma_y) for D-AdaST.
CE_GAMMAS = {
    (0.6, 0.4): {1.0: (1.0, 1.0), 10.0: (20.0, 20.0), 100.0: (100.0, 100.0)},
    (0.75, 0.25): {1.0: (1.0, 1.0), 10.0: (20.0, 20.0), 100.0: (300.0, 1.0)},
    (0.9, 0.1): {1.0: (5.0, 5.0), 10.0: (100.0, 0.5), 100.0: (3000.0, 1.0)},
}


class Counterexample:
    """D-TiAda (K = 1e4, stride 1, gamma = 1) and D-AdaST (K = 1e4, stride 10,
    calibrated stepsizes) on the nine three-node instances, exact gradients.

    The seed scales each |x0| by a factor in [0.9, 1.1] and picks its sign;
    the construction is frozen for every x0 on the line, and D-AdaST's
    stepsizes escape over the whole range (checked for 0.8 to 1.25)."""

    name = "counterexample"

    def __init__(self, seed: int, small: bool, work: Path):
        rng = np.random.default_rng(seed)
        cases = [(ab, x0) for ab, row in CE_GAMMAS.items() for x0 in row]
        if small:
            cases = [((0.75, 0.25), 10.0), ((0.9, 0.1), 1.0)]
        k_tiada = 1000 if small else 10_000
        scale = rng.uniform(0.9, 1.1, len(cases)) * rng.choice([-1.0, 1.0], len(cases))
        self.W = np.full((3, 3), 1.0 / 3.0)
        self.cases = []
        for ((alpha, beta), x0), s in zip(cases, scale):
            gx, gy = CE_GAMMAS[(alpha, beta)][x0]
            start = x0 * float(s)
            X0 = np.full((3, 1), start)
            Y0 = np.full((3, 1), checks.counterexample_slope(alpha, beta) * start)
            tiada = AlgoConfig(algo="d-tiada", gamma_x=1.0, gamma_y=1.0, alpha=alpha,
                               beta=beta, c0=0.0, K=k_tiada)
            adast = AlgoConfig(algo="d-adast", gamma_x=gx, gamma_y=gy, alpha=alpha,
                               beta=beta, c0=0.0, K=10_000)
            self.cases.append((alpha, beta, X0, Y0, tiada, adast))
        self.ops = 2 * len(self.cases)

    def reset(self) -> None:
        pass

    def run_pass(self):
        out = []
        for alpha, beta, X0, Y0, tiada, adast in self.cases:
            problem, _ = problems.make_counterexample(alpha, beta)
            for cfg, stride in ((tiada, 1), (adast, 10)):
                out.append((cfg, algorithms.run(problem, self.W, cfg, x0=X0, y0=Y0,
                                                trace_stride=stride)))
        return out

    def check(self, out) -> Outcome:
        res = Outcome(attempted=self.ops)
        for cfg, trace in out:
            res.iters += trace.final_state.k
            if trace.aborted:
                res.failed += 1
                continue
            recs = trace.records
            xbar = [r.xbar[0] for r in recs]
            ybar = [r.ybar[0] for r in recs]
            if cfg.algo == "d-tiada":
                res.wrong += checks.check_frozen(cfg.alpha, cfg.beta, xbar, ybar)
            else:
                res.wrong += checks.check_escape(cfg.alpha, cfg.beta, xbar, ybar)
            res.wrong += checks.check_tracking(
                [r.k for r in recs], [r.avg_m_x for r in recs], [r.avg_m_y for r in recs],
                trace.gsum_x_series, trace.gsum_y_series, cfg.c0)
        return res


class SyntheticN50:
    """The heterogeneous synthetic family on the 50-node exponential graph,
    Gaussian noise sigma = sqrt(0.1), started at the stationary point, through
    ``run_experiment`` writing traces, manifest and plot script.

    The seed draws the family's L_i and seeds the noise stream.  D-SGDA is
    left out: Phi is concave on this family, so it diverges by construction."""

    name = "synthetic-n50"
    ALGOS = ("d-tiada", "d-adast", "d-adast-coord")

    def __init__(self, seed: int, small: bool, work: Path):
        self.n, self.K = (16, 4000) if small else (50, 20_000)
        self.out_dir = work / self.name
        self.ops = len(self.ALGOS)
        self.cfg = harness.RunConfig(
            experiment="synthetic",
            algo_configs=[AlgoConfig(algo=a, gamma_x=0.02, gamma_y=0.1, K=self.K)
                          for a in self.ALGOS],
            n=self.n,
            noise=NoiseModel.gaussian(math.sqrt(0.1)),
            seed=seed,
            trace_stride=100,
            out_dir=self.out_dir,
        )

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run_pass(self):
        return harness.run_experiment(self.cfg)

    def check(self, result) -> Outcome:
        res = Outcome(attempted=self.ops)
        manifest = checks.read_manifest(self.out_dir / "manifest.json")
        W = checks.exponential_uniform_weights(self.n)
        res.wrong += checks.check_rho(manifest["rho_w"], checks.rho_by_svd(W))
        L = manifest["problem"]["meta"]["L_values"]
        for label, trace in result.traces.items():
            res.iters += trace.final_state.k
            if trace.aborted:
                res.failed += 1
                continue
            text = checks.parse_trace(self.out_dir / manifest["traces"][label])
            res.wrong += checks.check_csv_matches_records(text, trace.records)
            res.wrong += checks.check_synthetic_grad_phi(text, L)
            tracked = label != "d-tiada"
            res.wrong += checks.check_tail_zeta(label, trace.zeta_v_series, tracked,
                                                window=self.K // 10)
            if tracked:
                recs = trace.records
                res.wrong += checks.check_tracking(
                    [r.k for r in recs], [r.avg_m_x for r in recs],
                    [r.avg_m_y for r in recs], trace.gsum_x_series, trace.gsum_y_series,
                    1e-6)
        return res


def make_ring_problem(seed: int, n: int, p: int, d: int) -> dict:
    """Quadratic locals f_i = -y'B_i y/2 + x'A_i y - x'C_i x/2 + b_i'x + c_i'y
    in the simulator's problem-JSON layout.

    B_i = I + M M'/(2d) has eigenvalues >= 1.  C_i = -(I/2 + R R'/(2p)) +
    E_i - mean(E) with E_i symmetric, so single nodes may be nonconvex in x
    while C's average is <= -I/2; then the Hessian of Phi,
    Abar Bbar^-1 Abar' - Cbar, is >= I/2 and Phi is strongly convex."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, d, d))
    B = np.eye(d) + M @ np.swapaxes(M, 1, 2) / (2 * d)
    A = 0.3 * rng.standard_normal((n, p, d))
    R = rng.standard_normal((n, p, p))
    Q = rng.standard_normal((n, p, p))
    E = 0.15 * (Q + np.swapaxes(Q, 1, 2))
    C = -(0.5 * np.eye(p) + R @ np.swapaxes(R, 1, 2) / (2 * p)) + E - E.mean(axis=0)
    b = rng.standard_normal((n, p))
    c = rng.standard_normal((n, d))
    return {
        "p": p, "d": d, "n": n,
        "locals": [{"B": B[i].tolist(), "A": A[i].tolist(), "C": C[i].tolist(),
                    "b": b[i].tolist(), "c": c[i].tolist()} for i in range(n)],
        "meta": {"name": "bench-ring", "seed": seed},
    }


class RingSweep:
    """``adast sweep --experiment custom`` on a 400-node ring, no noise,
    ``--stepsize-source mixed``: D-SGDA, D-AdaST and D-AdaST-coord on a
    2 x 2 stepsize grid, K = 1e3, on a p = d = 4 problem generated from the
    seed with a strongly convex Phi."""

    name = "ring-sweep"
    ALGOS = ("d-sgda", "d-adast", "d-adast-coord")
    THRESHOLD = 1e-3

    def __init__(self, seed: int, small: bool, work: Path):
        self.n, K = (40, 200) if small else (400, 1000)
        gx_grid = ("0.05",) if small else ("0.02", "0.05")
        gy_grid = ("0.05", "0.1")
        self.cells = len(gx_grid) * len(gy_grid)
        self.ops = self.cells * (len(self.ALGOS) + 1)
        doc = make_ring_problem(seed, self.n, 4, 4)
        self.oracle = checks.QuadraticOracle(doc)
        lam = float(np.linalg.eigvalsh(self.oracle.phi_hessian())[0])
        if not lam > 0.0:
            raise ValueError(f"generated problem has a Phi Hessian with eigenvalue {lam}")
        work.mkdir(parents=True, exist_ok=True)
        problem_json = work / "ring-problem.json"
        problem_json.write_text(json.dumps(doc))
        self.out_dir = work / self.name
        self.argv = [
            "sweep", "--experiment", "custom", "--problem-json", str(problem_json),
            "--topology", "ring", "--n", str(self.n), "--algos", ",".join(self.ALGOS),
            "--noise", "none", "--stepsize-source", "mixed", "--K", str(K),
            "--gamma-x-grid", ",".join(gx_grid), "--gamma-y-grid", ",".join(gy_grid),
            "--init-x", "1", "--init-y", "-1", "--init-spread", "0.01",
            "--trace-stride", "100", "--threshold", str(self.THRESHOLD),
            "--out-dir", str(self.out_dir),
        ]

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run_pass(self):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(self.argv)
        return code, printed.getvalue()

    def check(self, out) -> Outcome:
        code, printed = out
        res = Outcome(attempted=self.ops)
        summary = self.out_dir / "sweep.csv"
        if code not in (0, 3):  # 3 reports an aborted run, which is counted below
            res.failed = res.attempted
            return res
        if printed.strip() != str(summary) or not summary.exists():
            res.wrong.append(f"sweep printed {printed.strip()!r}, not its summary {summary}")
            return res
        with summary.open(newline="") as f:
            rows = list(csv.DictReader(f))
        cells: dict[str, list[dict]] = {}
        for row in rows:
            key = f"gx{row['gamma_x']}_gy{row['gamma_y']}_a{row['alpha']}_b{row['beta']}"
            cells.setdefault(key, []).append(row)
        if len(cells) != self.cells or len(rows) != self.cells * len(self.ALGOS):
            res.failed = res.attempted
            res.wrong.append(f"summary has {len(rows)} rows in {len(cells)} cells")
            return res
        for key, cell_rows in cells.items():
            cell = self.out_dir / key
            manifest = checks.read_manifest(cell / "manifest.json")
            if checks.check_ring_gap(manifest["rho_w"], self.n):
                res.failed += 1  # the spectral constant of the cell
            for row in cell_rows:
                label = row["algo"]
                text = checks.parse_trace(cell / manifest["traces"][label])
                res.iters += int(text["k"][-1])
                if row["aborted"] != "0" or manifest["aborts"][label] is not None:
                    res.failed += 1
                    continue
                res.wrong += checks.check_quadratic_trace(text, self.oracle)
                res.wrong += checks.check_summary_row(row, text, self.THRESHOLD)
        return res


WORKLOADS = {w.name: w for w in (Counterexample, SyntheticN50, RingSweep)}
