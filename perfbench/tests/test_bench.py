"""Tests of the benchmark itself, at smoke size (R=64, k=4).

    python3 -m pytest perfbench/tests -q
"""
import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def test_benchmark_json_matches_run_py():
    with open(os.path.join(run.REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_checks_digests_and_reports_every_metric(workload):
    result = run.run_workload(run.REPO, workload, checks.DEFAULT_SEED, 0, False, "smoke")
    assert result["failures"] == []
    line = run.final_line(result)
    # one set-up-only child and one CLI invocation
    assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)
    assert result["metrics"]["wall_s"]["count"] == 1
    assert result["provenance"]["versions"]["numpy"]


def test_traced_smoke_run_reports_every_layer_metric():
    result = run.run_workload(run.REPO, "control-nodes", 1, 0, True, "smoke")
    assert result["failures"] == []
    line = run.final_line(result)
    assert set(line["metrics"]) == set(run.per_layer_units())
    m = line["metrics"]
    assert m["sampler.build_calls"]["value"] == 6
    assert m["advantage.control_builds"]["value"] == 6
    assert m["sampler.rows_giant"]["value"] + m["sampler.rows_fragmented"]["value"] == 6 * 64
    traced = [r for r in result["invocations"] if r["traced"]]
    assert len(traced) == 2


def test_corrupted_output_counts_as_a_failure(monkeypatch):
    real_check = checks.check_outputs

    def corrupting_check(argv, outdir, digests):
        path = os.path.join(outdir, "control.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        fields = lines[1].split(",")
        fields[1] = "1.500000"
        lines[1] = ",".join(fields)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return real_check(argv, outdir, digests)

    monkeypatch.setattr(checks, "check_outputs", corrupting_check)
    result = run.run_workload(run.REPO, "control-nodes", checks.DEFAULT_SEED, 0, False, "smoke")
    line = run.final_line(result)
    assert not line["correct"] and line["failed"] == 1 and line["metrics"] == {}
    problems = result["failures"][0]["problems"]
    assert any("outside [0, 1]" in p for p in problems)
    assert any("digest differs" in p for p in problems)


def _write_augment_outputs(d, welfare, final, bundle):
    with open(os.path.join(d, "trace.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["step", "u", "v", "welfare", "min_broadcast", "min_influence"])
        for i, x in enumerate(welfare):
            w.writerow([i, 0, i + 1, x, x, "0.500000"])
    with open(os.path.join(d, "run_summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"edges_added": len(welfare), "final_welfare": final}, fh)
    for k, value in bundle.items():
        with open(os.path.join(d, f"metrics_k{k}.json"), "w", encoding="utf-8") as fh:
            json.dump({"welfare": {"value": value}}, fh)
    open(os.path.join(d, "augmented.edges"), "w").close()


def test_augment_invariants(tmp_path):
    argv = ["augment"]
    good = tmp_path / "good"
    good.mkdir()
    _write_augment_outputs(good, ["0.100000", "0.200000"], 0.2, {0: 0.05, 2: 0.2})
    assert checks.check_outputs(argv, str(good), None) == []
    bad = tmp_path / "bad"
    bad.mkdir()
    _write_augment_outputs(bad, ["0.200000", "0.100000"], 0.3, {1: 0.1})
    problems = checks.check_outputs(argv, str(bad), None)
    assert any("welfare decreases" in p for p in problems)
    assert any("final_welfare" in p for p in problems)
    assert any("metrics_k1.json" in p for p in problems)


def test_access_probabilities_outside_the_unit_interval_fail(tmp_path):
    (tmp_path / "advantage.csv").write_text(
        "node,broadcast,influence\n1,0.5,0.5\n2,0.5,0.5\n3,0.5,0.5\n")
    good = "i,j,p\n1,2,0.250000\n1,3,1.000000\n2,3,0.000000\n"
    (tmp_path / "access.csv").write_text(good)
    argv = ["estimate", "--alpha", "0.4"]
    assert checks.check_outputs(argv, str(tmp_path), None) == []
    (tmp_path / "access.csv").write_text(good.replace("1.000000", "1.000001"))
    assert any("outside [0, 1]" in p for p in checks.check_outputs(argv, str(tmp_path), None))
    (tmp_path / "access.csv").write_text(good.replace("2,3,0.000000", "2,3,-0.000001"))
    assert any("outside [0, 1]" in p for p in checks.check_outputs(argv, str(tmp_path), None))


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": 0, "name": "root", "parent": None, "thread": 1, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "thread": 2, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "a", "parent": 0, "thread": 3, "start": 2.0, "end": 5.0},
        {"id": 3, "name": "b", "parent": 0, "thread": 1, "start": 7.0, "end": 8.0},
        {"id": 4, "name": "c", "parent": 1, "thread": 2, "start": 1.5, "end": 2.0},
    ]
    got = layers.self_times(spans)
    assert got == pytest.approx({0: 10.0 - 4.0 - 1.0, 1: 2.5, 2: 3.0, 3: 1.0, 4: 0.5})


def test_layer_counts_from_span_attributes():
    def span(i, name, parent, start, end, **attrs):
        return {"id": i, "name": name, "parent": parent, "thread": 1,
                "start": start, "end": end, **attrs}

    spans = [
        span(0, "cli.main", None, 0.0, 10.0),
        span(1, "sampler.build_ensemble", 0, 0.0, 5.0, labels_bytes=2e6, counters_bytes=1e6),
        span(2, "sampler.accumulate_block", 1, 0.0, 4.0, rows=8, rows_giant=3,
             rows_fragmented_by_labels=5, pair_updates=40),
        span(3, "sampler.live_rows", 2, 0.0, 1.0, live=100),
        span(4, "sampler.add_edge_incremental", 0, 6.0, 7.0, merge_rows=2, pair_updates=9),
        span(5, "sampler.live_rows", 4, 6.0, 6.5, live=7),
        span(6, "cli.on_step", 0, 7.0, 7.5),
        span(7, "cli.on_step", 0, 8.5, 9.0),
    ]
    m = layers.layer_metrics(spans)
    assert m["sampler.live_edges"] == 100
    assert (m["sampler.rows_fragmented"], m["sampler.rows_giant"]) == (5, 3)
    assert m["sampler.insert_merge_rows"] == 2 and m["sampler.insert_pair_updates"] == 9
    assert m["sampler.accumulate_s"] == pytest.approx(3.0)
    assert m["sampler.coins_s"] == pytest.approx(1.5)
    assert m["heuristics.step_ms.p50"] == pytest.approx(1000.0)
    assert m["sampler.labels_mb"] == 2.0
    assert layers.consistency_problems(spans) == []


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p - 1.0 for p in parent]
    assert stats.compare_metric(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert stats.compare_metric(parent[:9], faster[:9], "lower", 0.1)["verdict"] != "gain"
    same = list(parent)
    v = stats.compare_metric(parent, same, "lower", 0.1)
    assert v["verdict"] == "no-regression" and v["ties"] == 10
    slower = [p * 1.2 for p in parent]
    assert stats.compare_metric(parent, slower, "lower", 0.1)["verdict"] == "regression"
    noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
    assert stats.compare_metric(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # one lost pair in ten still wins nine tenths
    nine = faster[:9] + [parent[9] + 1.0]
    assert stats.compare_metric(parent, nine, "lower", 0.1)["wins"] == 9
    higher = stats.compare_metric(parent, faster, "higher", 0.05)
    assert higher["verdict"] == "regression" and higher["losses"] == 10


def test_compare_mode_runs_alternating_pairs(capsys):
    code = run.main(["compare", "--parent", run.REPO, "--change", run.REPO,
                     "--workload", "control-nodes", "--pairs", "2", "--seconds", "0",
                     "--scale", "smoke"])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last["verdicts"]) == set(run.END_TO_END_UNITS) | {"wall_s"}
    # two pairs are too few to claim a gain
    assert "gain" not in last["verdicts"].values()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "control-nodes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
