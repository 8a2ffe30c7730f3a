"""Run one workload of the simulator's benchmark and print its metrics.

    python3 bench/run.py --workload counterexample --seed 0 --seconds 36 --trace 0

Run it from anywhere: the simulator is imported from ``src/`` next to this
directory, never from an installed copy.  A run makes its inputs from
``--seed``, then repeats passes of the workload while the next one is
expected to end within ``--seconds``, and checks the outputs of every
pass.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; one line per pass
goes to standard error.

``--trace 0`` reports the end-to-end metrics as medians over the passes:
``wall_s``, ``setup_s``, ``iters_per_s``, and ``peak_mem_mib``, the rise
of the process's peak resident size over the first pass, read from
``getrusage`` so that no pass is slowed by measuring it.  The first pass
is timed as well: a user of the command line pays its lazy set-up on
every invocation, and one pass of several moves a median little.

``--trace 1`` times half of ``--seconds`` untraced, then installs span
wrappers at the module boundaries for the other half and reports the
per-layer metrics (medians over the traced passes) and
``tracing.overhead_s``, the traced minus the untraced median of
``wall_s``.  The spans of the last traced pass are written to
``<work-dir>/<workload>/spans.npz``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

UNITS = {
    "wall_s": "s", "setup_s": "s", "iters_per_s": "iter/s", "peak_mem_mib": "MiB",
    "tracing.overhead_s": "s",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us"):
        return "us/iter" if name == "algorithms.loop_self_us" else "us/call"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def _import_program() -> None:
    """Put ``src/`` first on the path and make sure ``adast`` comes from it."""
    sys.path.insert(0, str(SRC))
    import adast

    if Path(adast.__file__).resolve().parent != (SRC / "adast").resolve():
        raise ImportError(f"adast was imported from {adast.__file__}, not from {SRC}")


@dataclass
class Pass:
    wall: float
    setup: float
    outcome: object
    maxrss_kib: int
    layers: dict | None = None
    spans: object = None


def one_pass(wl, tracer, layered: bool) -> Pass:
    from tracing import layer_metrics, setup_seconds
    from workloads import Outcome

    wl.reset()
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = wl.run_pass()
    except Exception:  # a pass that raises counts as all its operations failed
        traceback.print_exc()
        out = None
    wall = time.perf_counter() - t0
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans = tracer.take()
    outcome = Outcome(attempted=wl.ops, failed=wl.ops) if out is None else wl.check(out)
    del out
    p = Pass(wall, setup_seconds(tracer.names, spans), outcome, maxrss)
    if layered:
        p.layers, p.spans = layer_metrics(tracer.names, spans), spans
    print(f"{wl.name}: wall {wall:.4f} s, setup {p.setup:.5f} s, {outcome.iters} iters, "
          f"{outcome.failed}/{outcome.attempted} failed", file=sys.stderr)
    return p


def measure(wl, tracer, seconds: float, min_passes: int, layered: bool = False) -> list[Pass]:
    """Timed passes while the next one is expected to end within ``seconds``."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if passes:
            passes[-1].spans = None  # keep the spans of the last pass only
        passes.append(one_pass(wl, tracer, layered))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("counterexample", "synthetic-n50", "ring-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: a reduced workload that runs in seconds (for tests)")
    parser.add_argument("--work-dir", type=Path, default=WORK,
                        help="where passes write their outputs")
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"bench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    from tracing import LAYER_TARGETS, SETUP_TARGETS, Tracer
    from workloads import WORKLOADS

    work = args.work_dir / args.workload
    wl = WORKLOADS[args.workload](args.seed, args.size == "small", work)
    tracer = Tracer(SETUP_TARGETS)
    try:
        base_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace == 0:
            passes = measure(wl, tracer, args.seconds, min_passes=3)
        else:
            plain = measure(wl, tracer, args.seconds / 2, min_passes=2)
            tracer.remove()
            tracer = Tracer(LAYER_TARGETS)
            passes = measure(wl, tracer, args.seconds / 2, min_passes=2, layered=True)
    finally:
        tracer.remove()

    if args.trace == 0:
        metrics = {
            "wall_s": statistics.median(p.wall for p in passes),
            "setup_s": statistics.median(p.setup for p in passes),
            "iters_per_s": statistics.median(p.outcome.iters / (p.wall - p.setup)
                                             for p in passes),
            "peak_mem_mib": (passes[0].maxrss_kib - base_kib) / 1024,
        }
    else:
        metrics = {}
        for name, first in passes[0].layers.items():
            value = statistics.median(p.layers[name] for p in passes)
            metrics[name] = int(value) if isinstance(first, int) and value == int(value) \
                else value
        metrics["tracing.overhead_s"] = (statistics.median(p.wall for p in passes)
                                         - statistics.median(p.wall for p in plain))
        import numpy as np

        work.mkdir(parents=True, exist_ok=True)
        np.savez(work / "spans.npz", spans=passes[-1].spans, names=np.array(tracer.names))
        passes = plain + passes

    wrong = [msg for p in passes for msg in p.outcome.wrong]
    for msg in wrong[:20]:
        print(f"{args.workload}: WRONG {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(p.outcome.attempted for p in passes),
        "failed": sum(p.outcome.failed for p in passes),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
