"""The command line's exit contract over drawn argument vectors: 0 on
success, 2 on a configuration error, 3 on a numeric abort, never a
traceback (exit 1), and an exit 2 writes no output."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adast.cli import main as cli_main

FLOATS = ["0.1", "0.5", "1", "0", "-0.1", "nan", "inf", "-inf", "", "abc", "1e308", "1e-320"]
EXPONENTS = ["0.6", "0.4", "0.75", "0.25", "0", "1", "-0.5", "nan", "", "x"]
COUNTS = ["0", "1", "3", "-1", "", "x", "2.5"]
NODES = ["1", "2", "3", "4", "8", "0", "-2", "", "abc"]
GRIDS = ["0.1,0.2", "0.05", "", " , ", "nan", "x", "0.1,-1", "0.3,inf"]

# flag -> values drawn for it: each flag's domain, then non-finite,
# negative, empty and out-of-range values.  "{problem}" names a valid
# 4-node problem file, "{config}" a valid config file, "{bad_config}" one
# with a malformed line and "{missing}" a path that does not exist.
RUN_FLAGS = {
    "--config": ["{config}", "{bad_config}", "{missing}", ""],
    "--experiment": ["case-study", "counterexample", "synthetic", "custom", "bogus"],
    "--algos": ["d-adast", "d-sgda,d-tiada", "d-adast-coord", "d-adast,d-adast", "", ",",
                "bogus"],
    "--topology": ["ring", "directed-ring", "exponential", "dense", "complete", "star", ""],
    "--n": NODES,
    "--gamma-x": FLOATS,
    "--gamma-y": FLOATS,
    "--alpha": EXPONENTS,
    "--beta": EXPONENTS,
    "--c0": FLOATS,
    "--stepsize-source": ["local", "mixed", "both"],
    "--noise": ["none", "gaussian", "gaussian-clipped", "bogus"],
    "--sigma": FLOATS,
    "--clip": FLOATS,
    "--seed": ["0", "7", "-1", "", "x", "18446744073709551616"],
    "--trace-stride": COUNTS,
    "--init-x": FLOATS,
    "--init-y": FLOATS,
    "--init-spread": FLOATS,
    "--problem-json": ["{problem}", "{missing}", ""],
}
SWEEP_FLAGS = {
    **RUN_FLAGS,
    "--gamma-x-grid": GRIDS,
    "--gamma-y-grid": GRIDS,
    "--alpha-grid": ["0.6,0.7", "0.3", "", "nan", "0.2,1.5", "0.75,0.45", "0.5000001"],
    "--beta-grid": ["0.4,0.3", "0.5", "", "-inf", "0.9"],
    "--threshold": FLOATS,
}
COUNTEREXAMPLE_FLAGS = {
    "--alpha": EXPONENTS,
    "--beta": EXPONENTS,
    "--x0": FLOATS,
    "--K-escape": ["0", "5", "20", "-1", "", "x"],
    "--gamma-x": FLOATS,
    "--gamma-y": FLOATS,
}
SPECTRAL_FLAGS = {
    "--topology": RUN_FLAGS["--topology"],
    "--n": NODES,
}
COMMANDS = {"run": RUN_FLAGS, "sweep": SWEEP_FLAGS, "counterexample": COUNTEREXAMPLE_FLAGS,
            "spectral": SPECTRAL_FLAGS}
K_VALUES = ["0", "1", "5", "20", "-1", "", "x"]
REQUIRED = {"counterexample": ["--alpha=0.6", "--beta=0.4", "--x0=1"],
            "spectral": ["--topology=ring", "--n=4"]}


def _problem_doc(n: int) -> dict:
    return {"p": 1, "d": 1, "n": n, "locals": [
        {"A": [[0.5]], "B": [[1.0 + i]], "C": [[-0.5]], "b": [0.1 * i], "c": [-0.2]}
        for i in range(n)]}


def _flags(command: str):
    return st.fixed_dictionaries(
        {}, optional={flag: st.sampled_from(values) for flag, values in COMMANDS[command].items()})


vectors = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda command: st.tuples(st.just(command), _flags(command), st.sampled_from(K_VALUES)))


def _exit_code(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli_main(argv)
        except SystemExit as exc:  # argparse refuses a value
            return exc.code


@settings(derandomize=True, max_examples=120, deadline=None)
@given(vector=vectors)
# the two tracebacks the property found: an unreadable config file, and
# clipped noise without its bound
@example(vector=("run", {"--config": "{missing}"}, "5"))
@example(vector=("sweep", {"--noise": "gaussian-clipped"}, "0"))
# exponents so close to 0.5 that the counterexample's constants under- or
# overflow (a ZeroDivisionError and an OverflowError before they were
# refused), and a sweep whose second cell's problem is refused
@example(vector=("counterexample", {"--alpha": "0.5000001", "--beta": "0.25"}, "5"))
@example(vector=("run", {"--experiment": "counterexample", "--alpha": "0.9",
                         "--beta": "0.4999999"}, "5"))
@example(vector=("sweep", {"--experiment": "counterexample", "--algos": "d-tiada",
                           "--alpha-grid": "0.75,0.45"}, "5"))
# a start and a problem that overflow from finite flags: node 1 of the
# first start, ybar_0 of the sweep's second cell and the closed forms at
# alpha = 0.5009 are not finite (each exited 3 before they were refused)
@example(vector=("run", {"--experiment": "case-study", "--init-x": "1e308",
                         "--init-spread": "1e308"}, "5"))
@example(vector=("sweep", {"--experiment": "counterexample", "--algos": "d-tiada",
                           "--alpha-grid": "0.75,0.501", "--init-x": "1e200"}, "5"))
@example(vector=("run", {"--experiment": "counterexample", "--alpha": "0.5009",
                         "--beta": "0.25"}, "50"))
def test_cli_exits_0_2_or_3_and_exit_2_writes_nothing(vector):
    command, flags, K = vector
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {name: tmp / name for name in ("problem", "config", "bad_config", "missing")}
        paths["problem"].write_text(json.dumps(_problem_doc(4)))
        paths["config"].write_text("K = 5\nnoise = gaussian\nalgos = d-adast\n")
        paths["bad_config"].write_text("K 5\n")
        out = tmp / "out"
        # the required flags first, so that drawn values override them
        argv = [command, *REQUIRED.get(command, [])]
        argv += [f"{flag}={value.format(**paths)}" for flag, value in flags.items()]
        if command == "counterexample":
            argv += [f"--K={K}", f"--out={out}"]
        elif command != "spectral":
            argv += [f"--K={K}", f"--out-dir={out}"]
        code = _exit_code(argv)
        assert code in (0, 2, 3), argv
        if code == 2:
            assert not out.exists(), argv
