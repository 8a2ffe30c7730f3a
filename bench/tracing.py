"""Spans around the calls into the simulator's modules, recorded from outside.

A ``Tracer`` replaces chosen functions of the ``adast`` modules with thin
wrappers while it is installed, and restores them when it is removed.
Each call through a wrapper records one span: which function, its own id,
the id of the span it ran inside on the same thread, its start and end,
the thread, and up to two numbers read from the call (iterations and
records of a run, bytes of a trace file).  Pool threads keep their own
span stack and buffer, so a run on a worker thread is a root span there.

Spans stay in memory, as doubles in one ``array`` per thread, until
``take()`` hands them over as one numpy record array; ``layer_metrics``
turns that array into the per-layer figures.  No file of the simulator
changes: the wrappers are installed by attribute assignment on its modules
and classes.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from array import array

import numpy as np

from adast import algorithms, cli, harness, metrics, problems, topology
from adast.problems import GradientStream, QuadraticMinimaxProblem

SPAN_DTYPE = np.dtype([
    ("fn", "f8"), ("id", "f8"), ("parent", "f8"), ("t0", "f8"), ("t1", "f8"),
    ("e1", "f8"), ("e2", "f8"), ("thread", "f8"),
])
_FIELDS = len(SPAN_DTYPE.names)


def _run_counts(args, kwargs, trace):
    return trace.final_state.k, len(trace.records)


def _file_bytes(args, kwargs, out):
    return os.stat(args[1] if len(args) > 1 else kwargs["path"]).st_size, 0


# (span name, [(owner, attribute), ...], extra).  Every owner that holds a
# reference to the function is patched, so calls through a name another
# module imported are seen too.
SETUP_TARGETS = [
    ("problems.construct", [(QuadraticMinimaxProblem, "__init__")], None),
    ("problems.from_dict", [(QuadraticMinimaxProblem, "from_dict")], None),
    ("topology.weights_for",
     [(topology, "weights_for"), (harness, "weights_for"), (cli, "weights_for")], None),
]

LAYER_TARGETS = SETUP_TARGETS + [
    ("topology.spectral_rho", [(topology, "spectral_rho")], None),
    ("problems.sample_grad_block",
     [(problems, "sample_grad_block"), (algorithms, "sample_grad_block")], None),
    ("problems.grads_block", [(QuadraticMinimaxProblem, "grads_block")], None),
    ("problems.noise", [(GradientStream, "normal_block")], None),
    ("algorithms.run", [(algorithms, "run"), (harness, "run")], _run_counts),
    ("algorithms.mix", [(algorithms, "mix")], None),
    ("metrics.zeta_series", [(metrics, "zeta_series"), (algorithms, "_zeta_series")], None),
    ("metrics.zeta_hat_series",
     [(metrics, "zeta_hat_series"), (algorithms, "_zeta_hat_series")], None),
    ("metrics.consensus_error",
     [(metrics, "consensus_error"), (algorithms, "consensus_error")], None),
    ("metrics.grad_phi_sq", [(metrics, "grad_phi_sq"), (algorithms, "grad_phi_sq")], None),
    ("metrics.grad_xf_sq", [(metrics, "grad_xf_sq"), (algorithms, "grad_xf_sq")], None),
    ("harness.run_experiment", [(harness, "run_experiment"), (cli, "run_experiment")], None),
    ("harness.write_trace", [(harness, "write_trace")], _file_bytes),
    ("cli.cmd_sweep", [(cli, "cmd_sweep")], None),
]

_SETUP = ("problems.construct", "problems.from_dict", "topology.weights_for")
_CONSTRUCT = ("problems.construct", "problems.from_dict")
_METRICS = ("metrics.zeta_series", "metrics.zeta_hat_series", "metrics.consensus_error",
            "metrics.grad_phi_sq", "metrics.grad_xf_sq")


class Tracer:
    """Installs span-recording wrappers on ``targets`` until ``remove()``."""

    def __init__(self, targets):
        self.names = [name for name, _, _ in targets]
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[tuple[int, array]] = []
        self._saved = []
        for fid, (_, owners, extra) in enumerate(targets):
            original = owners[0][0].__dict__[owners[0][1]]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(original.__func__, fid, extra))
            else:
                wrapper = self._wrap(original, fid, extra)
            for owner, attr in owners:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _thread_state(self) -> tuple[list, array]:
        local = self._local
        try:
            return local.stack, local.buf
        except AttributeError:
            local.stack, local.buf = [], array("d")
            # list.append is atomic under the GIL
            self._buffers.append((threading.get_ident(), local.buf))
            return local.stack, local.buf

    def _wrap(self, fn, fid: int, extra):
        clock, ids, state = time.perf_counter, self._ids, self._thread_state

        def wrapper(*args, **kwargs):
            stack, buf = state()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            e1, e2 = extra(args, kwargs, out) if extra is not None else (0, 0)
            buf.extend((fid, sid, parent, t0, t1, e1, e2, 0.0))
            return out

        return wrapper

    def take(self) -> np.ndarray:
        """The spans recorded since the last ``take()``, as SPAN_DTYPE records.

        Call it between passes, when no wrapped call is in flight."""
        parts = []
        for ident, buf in self._buffers:
            a = np.array(buf, dtype=np.float64).reshape(-1, _FIELDS)
            a[:, 7] = ident
            parts.append(a)
            del buf[:]
        flat = np.concatenate(parts) if parts else np.zeros((0, _FIELDS))
        return np.ascontiguousarray(flat).view(SPAN_DTYPE).reshape(-1)


def _is(names: list[str], spans: np.ndarray, which) -> np.ndarray:
    fids = [i for i, name in enumerate(names) if name in which]
    return np.isin(spans["fn"], fids)


def _outermost(spans: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The spans of ``mask`` that do not run inside another span of ``mask``."""
    return mask & ~np.isin(spans["parent"], spans["id"][mask])


def _self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    A child runs on its parent's thread, and the children of one span run
    one after another, so their durations do not overlap."""
    dur = spans["t1"] - spans["t0"]
    if len(spans) == 0:
        return dur
    ids = spans["id"].astype(np.int64)
    pos = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
    pos[ids] = np.arange(len(spans))
    child = spans["parent"] >= 0
    child_sum = np.zeros(len(spans))
    np.add.at(child_sum, pos[spans["parent"][child].astype(np.int64)], dur[child])
    return dur - child_sum


def setup_seconds(names: list[str], spans: np.ndarray) -> float:
    """Time spent building problem instances and weight matrices."""
    outer = _outermost(spans, _is(names, spans, _SETUP))
    return float((spans["t1"] - spans["t0"])[outer].sum())


def layer_metrics(names: list[str], spans: np.ndarray) -> dict[str, float | int]:
    """The per-layer figures of one pass, from its spans."""
    dur = spans["t1"] - spans["t0"]
    own = _self_times(spans)

    def sel(*which):
        return _is(names, spans, which)

    def mean_us(name):
        m = sel(name)
        return float(dur[m].mean() * 1e6) if m.any() else 0.0

    runs = sel("algorithms.run")
    iters = int(spans["e1"][runs].sum())
    weights = sel("topology.weights_for")
    writes = sel("harness.write_trace")
    return {
        "topology.weights_for_s": float(dur[weights].sum()),
        "topology.weights_for_calls": int(weights.sum()),
        "topology.spectral_rho_s": float(dur[sel("topology.spectral_rho")].sum()),
        "problems.construct_s": float(dur[_outermost(spans, sel(*_CONSTRUCT))].sum()),
        "problems.grads_block_us": mean_us("problems.grads_block"),
        "problems.noise_us": mean_us("problems.noise"),
        "problems.noise_calls": int(sel("problems.noise").sum()),
        "algorithms.mix_us": mean_us("algorithms.mix"),
        "algorithms.mix_calls": int(sel("algorithms.mix").sum()),
        "algorithms.loop_self_us": float(own[runs].sum() / iters * 1e6) if iters else 0.0,
        "algorithms.iters": iters,
        "algorithms.records": int(spans["e2"][runs].sum()),
        "metrics.reduce_s": float(dur[_outermost(spans, sel(*_METRICS))].sum()),
        "harness.write_trace_s": float(dur[writes].sum()),
        "harness.trace_bytes": int(spans["e1"][writes].sum()),
        "harness.self_s": float(own[sel("harness.run_experiment")].sum()),
        "cli.sweep_self_s": float(own[sel("cli.cmd_sweep")].sum()),
    }
