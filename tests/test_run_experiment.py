import csv
import importlib.util
import json
import os

import netaccess as na

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_experiment.py")
PATH6 = "0 1\n1 2\n2 3\n3 4\n4 5\n"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _independent_cell(g, kind, k, alpha, R, seed):
    """One budget the long way: its own run, then a coupled rebuild."""
    if k == 0:
        _, est = na.build_ensemble(g, alpha, R, seed)
        w = na.welfare(est)[0]
        b = na.broadcast_all(est)
        return w, float(b.min()), float(b.max() - b.min())
    trace, aug = na.run_augmentation(g, kind, k, alpha, R, seed)
    last = trace.steps[-1]
    _, est = na.build_ensemble(aug, alpha, R, seed)
    b = na.broadcast_all(est)
    return last.welfare, last.min_broadcast, float(b.max() - b.min())


def test_one_run_sweep_matches_independent_runs(tmp_path):
    # budget 12 exceeds the 10 absent edges, so every kind also terminates
    # early or skips; budget 3 is dropped for the paired kinds
    src = tmp_path / "path6.edges"
    src.write_text(PATH6)
    out = tmp_path / "sweep"
    alpha, R, seed = 0.5, 400, 2
    budgets = [0, 1, 3, 4, 12]
    assert _load_script().main([
        "--input", str(src), "--alpha", str(alpha), "--R", str(R), "--seed", str(seed),
        "--budgets", ",".join(map(str, budgets)), "--workers", "1", "--out", str(out),
    ]) == 0

    g = na.load_edge_list(PATH6)
    w0, b0_min, gap0 = _independent_cell(g, None, 0, alpha, R, seed)
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected_keys = []
    for kind in na.HEURISTIC_KINDS:
        for k in budgets:
            if k % 2 == 0 or kind not in ("bc-both", "diam-both"):
                expected_keys.append((kind, k))
    assert [(r["kind"], int(r["k"])) for r in rows] == expected_keys
    for row in rows:
        w, bmin, gap = _independent_cell(g, row["kind"], int(row["k"]), alpha, R, seed)
        assert float(row["welfare"]) == w, row
        assert float(row["min_broadcast"]) == bmin, row
        assert float(row["broadcast_gap"]) == gap, row
        assert float(row["welfare_gain"]) == w - w0, row
        assert float(row["seconds"]) >= 0.0

    params = json.loads((out / "params.json").read_text())
    assert params["initial_welfare"] == w0
    assert params["initial_broadcast_gap"] == gap0
    assert params["initial_relative_gap"] == gap0 / b0_min
