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
problem instance per key, so these check that sharing); one ``run`` and
one ``sweep`` whose flags come from a ``--config`` file written into
OUT_DIR, each with one of the file's values overridden by an explicit
flag (the primal stepsize, and the sweep's primal-stepsize grid); three
``adast counterexample`` reports, the third with a d-adast horizon
(``--K-escape``) and a primal stepsize of its own; and seven ``adast
spectral`` lines: one per graph kind the command line can build, a
1600-node ring and a 400-node dense graph.  The rings' constants come from
the DFT after a circulance test over 10 and 160 blocks of rows; the dense
graphs' rounded diagonals break circulance, so theirs come from the
eigen-solve.  Each lands in its own subdirectory of OUT_DIR.

``compare`` checks that both sets hold the same files, that every file
is byte-identical, and that every ``manifest.json`` holds the same values
apart from ``timestamp``.  It prints each difference and says how large
it is: for a CSV whose bytes differ, the lines and columns that differ
and the largest relative and ULP difference between numbers finite on
both sides, with the count of differing numbers not finite on one side
(or that the header or the row count differs); for a ``manifest.json``
whose values differ, the key paths that differ (``problem.meta.seed``; a
list is one key).  Its last line totals the comparison: the count of
identical files and, when a CSV differs, the largest relative and ULP
difference over every differing CSV with the file where each occurs,
and the count of values not finite on one side.  It exits 1 when there
is a difference, 0 otherwise.
Typical use: write the set for the parent commit's ``src`` (from a ``git
archive`` copy) and for the working tree, then compare them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
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
    # a config file seeds run and sweep flags; an explicit flag overrides one of its values
    run_config = out / "run.conf"
    run_config.write_text("# a noisy synthetic run, every value through its flag\n"
                          "experiment = synthetic\nn = 8\nseed = 2\nK = 1500\n"
                          "algos = 'd-tiada,d-adast'\nnoise = gaussian-clipped\nsigma = 1\n"
                          "clip = 0.5\ngamma_x = 0.05\ntrace_stride = 10\n")
    sweep_config = out / "sweep.conf"
    sweep_config.write_text("experiment = synthetic\nn = 6\nseed = 4\nK = 3000\n"
                            "algos = d-sgda,d-adast-coord\nstepsize-source = mixed\n"
                            "gamma_x_grid = 0.05,0.1\nalpha_grid = 0.6,0.7  # two exponents\n"
                            "trace_stride = 25\nthreshold = 1e-4\n")
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
        "counterexample-x0-minus-3": ["run", *ce, "--init-x", "-3"],
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
        "config-run": ["run", "--config", str(run_config), "--gamma-x", "0.02"],
        "config-sweep": ["sweep", "--config", str(sweep_config), "--gamma-x-grid", "0.02,0.05"],
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
                    ("dense", "50"), ("complete", "3"), ("ring", "1600"), ("dense", "400")):
        line = _adast(src, ["spectral", "--topology", kind, "--n", n])
        (out / "spectral" / f"{kind}-{n}.json").write_text(line)


def _key_paths(va, vb, at: str = "") -> list[str]:
    """The dotted paths at which two parsed JSON values differ: dicts are
    followed key by key, anything else (a list included) is one leaf."""
    if isinstance(va, dict) and isinstance(vb, dict):
        return [path for k in sorted(va.keys() | vb.keys())
                for path in _key_paths(va.get(k), vb.get(k), f"{at}.{k}" if at else k)]
    return [] if json.dumps(va, sort_keys=True) == json.dumps(vb, sort_keys=True) else [at or "."]


def _ulp_key(x: float) -> int:
    """An integer that orders doubles as the reals do, one step per ULP."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _csv_differences(fa: Path, fb: Path) -> tuple[list[str], float, int, int]:
    """How two CSVs with a header line differ: the lines to print, the
    largest relative and ULP difference between numbers finite on both
    sides, and the count of numbers that differ and are not finite on one
    side or both (inf against a finite value, say)."""
    ra, rb = (list(csv.reader(f.read_text().splitlines())) for f in (fa, fb))
    if not ra or not rb or ra[0] != rb[0]:
        return ["header differs"], 0.0, 0, 0
    if len(ra) != len(rb):
        return [f"{len(ra) - 1} against {len(rb) - 1} rows"], 0.0, 0, 0
    header, lines, cols, rel, ulp, nonfinite = ra[0], [], set(), 0.0, 0, 0
    for line, (row_a, row_b) in enumerate(zip(ra[1:], rb[1:]), start=2):
        if row_a == row_b:
            continue
        lines.append(line)
        for name, x, y in zip(header, row_a, row_b):
            if x == y:
                continue
            cols.add(name)
            try:
                x, y = float(x), float(y)
            except ValueError:
                continue  # a text cell
            if not (math.isfinite(x) and math.isfinite(y)):
                nonfinite += 1  # the texts differ, so the values do
            elif x != y:  # the scale is never 0
                rel = max(rel, abs(x - y) / max(abs(x), abs(y), math.ulp(0.0)))
                ulp = max(ulp, abs(_ulp_key(x) - _ulp_key(y)))
    if not lines:
        return [], rel, ulp, nonfinite
    shown = ", ".join(map(str, lines[:10])) + (", ..." if len(lines) > 10 else "")
    size = f"largest difference {rel:.3g} relative, {ulp} ULP"
    if nonfinite:
        size += f"; {nonfinite} values not finite on one side"
    return [f"{len(lines)} of {len(ra) - 1} rows differ (lines {shown}),"
            f" in columns {', '.join(h for h in header if h in cols)}", size], rel, ulp, nonfinite


def compare_sets(a: Path, b: Path) -> int:
    files = sorted({f.relative_to(root) for root in (a, b)
                    for f in root.rglob("*") if f.is_file()})
    differ = nonfinite = 0
    worst_rel, worst_ulp = (0.0, None), (0, None)  # (size, file) over every differing CSV
    for rel in files:
        fa, fb = a / rel, b / rel
        if not (fa.is_file() and fb.is_file()):
            print(f"{rel}: only in {a if fa.is_file() else b}")
        elif rel.name == "manifest.json":
            ma, mb = json.loads(fa.read_text()), json.loads(fb.read_text())
            ma.pop("timestamp", None)
            mb.pop("timestamp", None)
            keys = _key_paths(ma, mb)
            if not keys:
                continue
            print(f"{rel}: manifest values differ at {', '.join(keys)}")
        elif fa.read_bytes() != fb.read_bytes():
            print(f"{rel}: bytes differ")
            if rel.suffix == ".csv":
                lines, size_rel, size_ulp, bad = _csv_differences(fa, fb)
                for line in lines:
                    print(f"  {line}")
                worst_rel = max(worst_rel, (size_rel, rel), key=lambda t: t[0])
                worst_ulp = max(worst_ulp, (size_ulp, rel), key=lambda t: t[0])
                nonfinite += bad
        else:
            continue
        differ += 1
    total = f"{len(files) - differ} of {len(files)} files identical"
    if worst_rel[1] is not None:  # a number differs, so by one ULP at least
        total += (f"; largest CSV difference {worst_rel[0]:.3g} relative ({worst_rel[1]}),"
                  f" {worst_ulp[0]} ULP ({worst_ulp[1]})")
    if nonfinite:
        total += f"; {nonfinite} CSV values not finite on one side"
    print(total)
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
