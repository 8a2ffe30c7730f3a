import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write_set(root: Path) -> None:
    (root / "run").mkdir(parents=True)
    rows = ["k,grad_phi_sq,xbar_0", "0,1.5,0.25", "1,0.75,0.125", "2,0.375,0.0625"]
    (root / "run" / "trace_d-adast.csv").write_text("\n".join(rows) + "\n")
    manifest = {"timestamp": "t0", "seed": 3, "problem": {"meta": {"seed": 1}, "n": 3}}
    (root / "run" / "manifest.json").write_text(json.dumps(manifest))


def test_compare_reports_where_and_how_much_outputs_differ(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write_set(a)
    shutil.copytree(a, b)
    manifest = json.loads((b / "run" / "manifest.json").read_text())
    manifest["timestamp"] = "t1"  # volatile, never compared
    (b / "run" / "manifest.json").write_text(json.dumps(manifest))
    assert compare_outputs.compare_sets(a, b) == 0
    assert capsys.readouterr().out == "2 of 2 files identical\n"

    # one float moved up by one ULP (2**-52 relative at a power of two), and
    # one nested manifest value changed
    bumped = repr(float(np.nextafter(0.125, 1.0)))
    trace = b / "run" / "trace_d-adast.csv"
    trace.write_text(trace.read_text().replace("1,0.75,0.125", f"1,0.75,{bumped}"))
    manifest["problem"]["meta"]["seed"] = 2
    (b / "run" / "manifest.json").write_text(json.dumps(manifest))
    assert compare_outputs.compare_sets(a, b) == 1
    assert capsys.readouterr().out.splitlines() == [
        "run/manifest.json: manifest values differ at problem.meta.seed",
        "run/trace_d-adast.csv: bytes differ",
        "  1 of 3 rows differ (lines 3), in columns xbar_0",
        "  largest difference 2.22e-16 relative, 1 ULP",
        "0 of 2 files identical; largest CSV difference 2.22e-16 relative"
        " (run/trace_d-adast.csv), 1 ULP (run/trace_d-adast.csv)",
    ]

    # a second trace: a larger relative difference, in fewer ULP, and one
    # value inf on one side, which the sizes leave out and count apart
    rows = ["k,consensus_x", "0,1e-300", "1,5e-324", "2,3.0"]
    (a / "run" / "trace_d-sgda.csv").write_text("\n".join(rows) + "\n")
    rows[2:] = ["1,1e-323", "2,inf"]
    (b / "run" / "trace_d-sgda.csv").write_text("\n".join(rows) + "\n")
    assert compare_outputs.compare_sets(a, b) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "  2 of 3 rows differ (lines 3, 4), in columns consensus_x",
        "  largest difference 0.5 relative, 1 ULP; 1 values not finite on one side",
        "0 of 3 files identical; largest CSV difference 0.5 relative (run/trace_d-sgda.csv),"
        " 1 ULP (run/trace_d-adast.csv); 1 CSV values not finite on one side",
    ]
