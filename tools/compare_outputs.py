"""Write the standard set of ``adast`` outputs for one source tree, and
compare two such sets file by file.

    python3 tools/compare_outputs.py write SRC_DIR OUT_DIR
    python3 tools/compare_outputs.py compare OUT_A OUT_B

``write`` runs the command line of the package found in SRC_DIR (the
directory that holds ``adast/``) on a fixed list of experiments: trace
CSVs of the case study (once more with one method listed twice, so the
second trace takes a de-duplicated label), of the counterexample at two
starts, of a noisy synthetic run, of a coordinate-wise run, of three short
runs that keep some of an experiment's defaults and override others (the
counterexample on a 3-node ring, the case study on the complete graph
with ``--init-spread 0``, and an 8-node synthetic run from ``--init-x 0.1
--init-y -0.1`` rather than its stationary point), and of two
noisy runs of a custom 60-node ring problem whose sides differ in size
(p = 3, d = 2), one with Gaussian and one with clipped Gaussian noise, and
of two runs of all four methods on a custom 256-node ring problem, one
with Gaussian noise and one with exact gradients and post-mix stepsizes
(the only runs whose W is sparse enough to gossip by the CSR product); a
custom sweep on a 60-node ring, a counterexample exponent sweep and a
noisy synthetic sweep on 16 nodes over a primal-stepsize and an exponent
grid, each with its ``sweep.csv`` (the cells of a sweep share one
problem instance per key, so these check that sharing); three ``adast
counterexample`` reports, the third with a d-adast horizon
(``--K-escape``) and a primal stepsize of its own; and five ``adast
spectral`` lines, one per graph kind the command line can build.  Each
lands in its own subdirectory of OUT_DIR.

``compare`` checks that both sets hold the same files, that every file
is byte-identical, and that every ``manifest.json`` holds the same values
apart from ``timestamp``.  It prints each difference and exits 1 when
there is one, 0 otherwise.  Typical use: write the set for the parent
commit's ``src`` (from a ``git archive`` copy) and for the working tree,
then compare them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def ring_problem(n: int, p: int, d: int, seed: int) -> dict:
    """A custom problem in the problem-JSON layout: B_i >= I, so each
    local is strongly concave in y, and the average of C_i is -I/2."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, d, d))
    B = np.eye(d) + M @ np.swapaxes(M, 1, 2) / (2 * d)
    A = 0.3 * rng.standard_normal((n, p, d))
    E = 0.1 * rng.standard_normal((n, p, p))
    E = E + np.swapaxes(E, 1, 2)
    C = -0.5 * np.eye(p) + E - E.mean(axis=0)
    b = rng.standard_normal((n, p))
    c = rng.standard_normal((n, d))
    return {
        "p": p, "d": d, "n": n,
        "locals": [{"B": B[i].tolist(), "A": A[i].tolist(), "C": C[i].tolist(),
                    "b": b[i].tolist(), "c": c[i].tolist()} for i in range(n)],
        "meta": {"name": "compare-ring", "seed": seed},
    }


def _adast(src: Path, argv: list[str]) -> str:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "adast.cli", *argv], env=env,
                          capture_output=True, text=True)
    if done.returncode not in (0, 3):  # 3: a run aborted, which is an output too
        raise SystemExit(f"adast {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def write_set(src: Path, out: Path) -> None:
    src = src.resolve()
    out.mkdir(parents=True, exist_ok=True)
    problem_json = out / "ring-problem.json"
    problem_json.write_text(json.dumps(ring_problem(60, 2, 2, seed=5)))
    wide_json = out / "ring-problem-p3-d2.json"
    wide_json.write_text(json.dumps(ring_problem(60, 3, 2, seed=6)))
    ring256_json = out / "ring-problem-256.json"
    ring256_json.write_text(json.dumps(ring_problem(256, 2, 2, seed=8)))
    # the counterexample's start flag was --ce-x0 before it became --init-x
    x0_flag = "--ce-x0" if "--ce-x0" in _adast(src, ["run", "--help"]) else "--init-x"
    ce = ["--experiment", "counterexample", "--alpha", "0.75", "--beta", "0.25",
          "--K", "20000", "--trace-stride", "3"]
    synthetic = ["--experiment", "synthetic", "--n", "50", "--seed", "3", "--K", "10000"]
    wide = ["--experiment", "custom", "--problem-json", str(wide_json), "--topology", "ring",
            "--n", "60", "--K", "3000", "--seed", "4", "--init-x", "1", "--init-y", "-1",
            "--init-spread", "0.01", "--trace-stride", "30"]
    # a 256-node ring has 3 nonzeros per row of W and 3 * 64 < 256, so it
    # gossips by the sparse product; every other graph here is dense
    ring256 = ["--experiment", "custom", "--problem-json", str(ring256_json), "--topology",
               "ring", "--n", "256", "--algos", "d-sgda,d-tiada,d-adast,d-adast-coord",
               "--K", "500", "--trace-stride", "10"]
    runs = {
        "case-study": ["run", "--experiment", "case-study", "--K", "20000",
                       "--trace-stride", "1"],
        "case-study-twice": ["run", "--experiment", "case-study", "--K", "2000",
                             "--algos", "d-adast,d-adast", "--trace-stride", "10"],
        "counterexample": ["run", *ce],
        "counterexample-x0-minus-3": ["run", *ce, x0_flag, "-3"],
        # an experiment's defaults on one side and overrides on the other
        "counterexample-ring": ["run", "--experiment", "counterexample", "--topology", "ring",
                                "--n", "3", "--K", "2000", "--trace-stride", "10"],
        "case-study-complete": ["run", "--experiment", "case-study", "--topology", "complete",
                                "--n", "2", "--init-spread", "0", "--K", "2000",
                                "--trace-stride", "10"],
        "synthetic-general-start": ["run", "--experiment", "synthetic", "--n", "8",
                                    "--init-x", "0.1", "--init-y", "-0.1", "--K", "2000",
                                    "--trace-stride", "10"],
        "synthetic": ["run", *synthetic],
        "coord-mixed": ["run", *synthetic, "--algos", "d-adast-coord",
                        "--stepsize-source", "mixed", "--init-x", "0.5",
                        "--init-spread", "0.1", "--trace-stride", "7"],
        "custom-noisy": ["run", *wide, "--algos", "d-sgda,d-tiada,d-adast,d-adast-coord",
                         "--noise", "gaussian", "--gamma-x", "0.05"],
        "custom-clipped": ["run", *wide, "--algos", "d-tiada,d-adast,d-adast-coord",
                           "--noise", "gaussian-clipped", "--sigma", "2", "--clip", "1.5"],
        "custom-ring256-noisy": ["run", *ring256, "--noise", "gaussian"],
        "custom-ring256-mixed": ["run", *ring256, "--noise", "none",
                                 "--stepsize-source", "mixed"],
        "custom-sweep": ["sweep", "--experiment", "custom", "--problem-json",
                         str(problem_json), "--topology", "ring", "--n", "60",
                         "--algos", "d-sgda,d-adast,d-adast-coord", "--noise", "none",
                         "--stepsize-source", "mixed", "--K", "2000",
                         "--gamma-x-grid", "0.02,0.05", "--gamma-y-grid", "0.05,0.1",
                         "--init-x", "1", "--init-y", "-1", "--init-spread", "0.01",
                         "--trace-stride", "50"],
        "counterexample-sweep": ["sweep", "--experiment", "counterexample",
                                 "--algos", "d-tiada,d-adast", "--alpha-grid", "0.75,0.9",
                                 "--K", "5000", "--trace-stride", "10"],
        "synthetic-sweep": ["sweep", "--experiment", "synthetic", "--n", "16", "--seed", "7",
                            "--algos", "d-tiada,d-adast,d-adast-coord", "--K", "2000",
                            "--gamma-x-grid", "0.02,0.05", "--alpha-grid", "0.6,0.75",
                            "--trace-stride", "20"],
    }
    for name, argv in runs.items():
        _adast(src, [*argv, "--out-dir", str(out / name)])
    (out / "reports").mkdir(exist_ok=True)
    reports = (("0.75", "0.25", "10", "1000"), ("0.9", "0.1", "1", "20000"),
               # criterion 2's calibrated instance: d-adast runs 5x longer than d-tiada
               ("0.9", "0.1", "100", "2000", "--K-escape", "10000",
                "--gamma-x", "3000", "--gamma-y", "1"))
    for alpha, beta, x0, K, *more in reports:
        _adast(src, ["counterexample", "--alpha", alpha, "--beta", beta, "--x0", x0,
                     "--K", K, *more,
                     "--out", str(out / "reports" / f"ce-{alpha}-{beta}-{x0}-{K}.json")])
    (out / "spectral").mkdir(exist_ok=True)
    for kind, n in (("exponential", "50"), ("ring", "400"), ("directed-ring", "50"),
                    ("dense", "50"), ("complete", "3")):
        line = _adast(src, ["spectral", "--topology", kind, "--n", n])
        (out / "spectral" / f"{kind}-{n}.json").write_text(line)


def compare_sets(a: Path, b: Path) -> int:
    files = sorted({f.relative_to(root) for root in (a, b)
                    for f in root.rglob("*") if f.is_file()})
    differ = 0
    for rel in files:
        fa, fb = a / rel, b / rel
        if not (fa.is_file() and fb.is_file()):
            print(f"{rel}: only in {a if fa.is_file() else b}")
        elif rel.name == "manifest.json":
            ma, mb = json.loads(fa.read_text()), json.loads(fb.read_text())
            keys = sorted(k for k in (ma.keys() | mb.keys()) - {"timestamp"}
                          if json.dumps(ma.get(k), sort_keys=True)
                          != json.dumps(mb.get(k), sort_keys=True))
            if not keys:
                continue
            print(f"{rel}: manifest values differ at {keys}")
        elif fa.read_bytes() != fb.read_bytes():
            print(f"{rel}: bytes differ")
        else:
            continue
        differ += 1
    print(f"{len(files) - differ} of {len(files)} files identical")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="write the output set of the adast in SRC_DIR")
    w.add_argument("src", type=Path)
    w.add_argument("out", type=Path)
    c = sub.add_parser("compare", help="compare two output sets")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.command == "write":
        write_set(args.src, args.out)
        return 0
    return compare_sets(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
