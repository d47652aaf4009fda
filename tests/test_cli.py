import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ref_write_access_csv

import netaccess as na
from netaccess import cli
from netaccess.cli import main

PATH6 = "0 1\n1 2\n2 3\n3 4\n4 5\n"


@pytest.fixture
def graph_file(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text(PATH6)
    return str(f)


def run(*argv):
    return main(list(argv))


# --- estimate -------------------------------------------------------------

def test_estimate_outputs(graph_file, tmp_path):
    out = str(tmp_path / "out")
    assert run("estimate", "--input", graph_file, "--alpha", "0.5", "--R", "400",
               "--output-dir", out) == 0
    lines = (tmp_path / "out" / "access.csv").read_text().splitlines()
    assert lines[0] == "i,j,p"
    assert len(lines) == 1 + 15  # C(6,2)
    adv = (tmp_path / "out" / "advantage.csv").read_text().splitlines()
    assert adv[0] == "node,broadcast,influence"
    assert len(adv) == 7


def test_manifest_contents(graph_file, tmp_path):
    out = str(tmp_path / "out")
    run("estimate", "--input", graph_file, "--alpha", "0.5", "--R", "200",
        "--output-dir", out, "--seed", "3")
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert man["command"] == "estimate"
    assert man["version"]
    digest = hashlib.sha256(Path(graph_file).read_bytes()).hexdigest()
    assert man["input_sha256"] == digest
    cfg = man["config"]
    assert cfg["alpha"] == 0.5 and cfg["R"] == 200 and cfg["seed"] == 3
    assert cfg["input_sha256"] == digest
    assert isinstance(man["peak_rss_mb"], float) and man["peak_rss_mb"] > 0


def test_estimate_deterministic_bytes(graph_file, tmp_path):
    blobs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        run("estimate", "--input", graph_file, "--alpha", "0.4", "--R", "300",
            "--output-dir", out, "--workers", "1" if sub == "a" else "4")
        blobs.append((tmp_path / sub / "access.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_multi_alpha_subdirectories(graph_file, tmp_path):
    out = str(tmp_path / "out")
    assert run("estimate", "--input", graph_file, "--alpha", "0.3,0.7",
               "--R", "100", "--output-dir", out) == 0
    assert os.path.isdir(os.path.join(out, "alpha_0.3"))
    assert os.path.isdir(os.path.join(out, "alpha_0.7"))
    m3 = json.loads(Path(out, "alpha_0.3", "manifest.json").read_text())
    assert m3["config"]["alpha"] == 0.3


# two components, so --no-lcc keeps a graph whose samples are never connected
TWO_PARTS = "0 1\n0 2\n1 2\n1 3\n2 4\n3 4\n3 5\n4 6\n5 6\n5 7\n6 7\n10 11\n11 12\n10 12\n"


@pytest.mark.parametrize("alphas", ["0.25,0.5,0.8", "0.8,0.4,0.6"])
@pytest.mark.parametrize("workers", ["1", "3"])
def test_sweep_outputs_equal_single_alpha_runs(tmp_path, monkeypatch, alphas, workers):
    """Every alpha of a sweep writes the bytes of a run of that alpha alone;
    each alpha at or above the previous one is labelled on its ensemble."""
    f = tmp_path / "g.edges"
    f.write_text(TWO_PARTS)
    common = ("--input", str(f), "--no-lcc", "--R", "600", "--seed", "5", "--workers", workers)
    belows = []
    build = cli.build_ensemble

    def recording_build(*args, below=None, **kwargs):
        belows.append(None if below is None else below.alpha)
        return build(*args, below=below, **kwargs)

    monkeypatch.setattr(cli, "build_ensemble", recording_build)
    sweep = tmp_path / "sweep"
    assert run("estimate", *common, "--alpha", alphas, "--output-dir", str(sweep)) == 0
    values = [float(a) for a in alphas.split(",")]
    assert belows == [None] + [lo if lo <= hi else None for lo, hi in zip(values, values[1:])]
    for alpha in alphas.split(","):
        single = tmp_path / f"single_{alpha}"
        assert run("estimate", *common, "--alpha", alpha, "--output-dir", str(single)) == 0
        for name in ("access.csv", "advantage.csv"):
            assert (sweep / f"alpha_{alpha}" / name).read_bytes() == (single / name).read_bytes()


@pytest.mark.parametrize("command, extra", [("estimate", ()), ("augment", ("--k", "2"))])
def test_sweep_is_validated_before_its_first_run(graph_file, tmp_path, capsys, command, extra):
    out = tmp_path / "o"
    assert run(command, "--input", graph_file, "--alpha", "0.4,1.5", "--R", "50", *extra,
               "--output-dir", str(out)) == 2
    assert capsys.readouterr().err.startswith("config error: alpha: must lie in (0,1), got 1.5")
    assert not out.exists()


@pytest.mark.parametrize("alphas", ["0.4,0.4", "0.4,0.4000001", "0.3,0.4,0.3"])
def test_sweep_alphas_sharing_a_directory_exit_2(graph_file, tmp_path, capsys, alphas):
    out = tmp_path / "o"
    assert run("estimate", "--input", graph_file, "--alpha", alphas, "--R", "50",
               "--output-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: alpha: ") and "share the output directory" in err
    assert not out.exists()


@pytest.mark.parametrize("via_config", [False, True])
def test_sweep_with_estimate_out_exits_2(graph_file, tmp_path, capsys, via_config):
    """Every alpha would write its dump to the one path; only the last would survive."""
    out = tmp_path / "o"
    dump = tmp_path / "est.bin"
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"estimate_out": str(dump)}))
        extra = ("--config", str(cfg))
    else:
        extra = ("--estimate-out", str(dump))
    assert run("estimate", "--input", graph_file, "--alpha", "0.3,0.7", "--R", "50",
               "--output-dir", str(out), *extra) == 2
    assert capsys.readouterr().err.startswith("config error: estimate_out: a sweep of 2 alphas")
    assert not out.exists() and not dump.exists()


def test_no_lcc_keeps_all_components(graph_file, tmp_path):
    f = tmp_path / "two.edges"
    f.write_text("0 1\n1 2\n8 9\n")
    out_lcc = str(tmp_path / "lcc")
    out_all = str(tmp_path / "all")
    run("estimate", "--input", str(f), "--R", "50", "--output-dir", out_lcc)
    run("estimate", "--input", str(f), "--R", "50", "--output-dir", out_all, "--no-lcc")
    cfg = tmp_path / "no_lcc.json"
    cfg.write_text(json.dumps({"lcc": False}))
    out_cfg = str(tmp_path / "cfg")
    run("estimate", "--input", str(f), "--R", "50", "--output-dir", out_cfg, "--config", str(cfg))
    n_lcc = len(Path(out_lcc, "access.csv").read_text().splitlines()) - 1
    n_all = len(Path(out_all, "access.csv").read_text().splitlines()) - 1
    n_cfg = len(Path(out_cfg, "access.csv").read_text().splitlines()) - 1
    assert n_lcc == 3   # C(3,2)
    assert n_all == 10  # C(5,2)
    assert n_cfg == 10


# --- config handling ------------------------------------------------------

def test_config_file_with_flag_override(graph_file, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "R": 250, "seed": 4}))
    out = str(tmp_path / "out")
    assert run("estimate", "--input", graph_file, "--config", str(cfg),
               "--R", "600", "--output-dir", out) == 0
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert man["config"]["R"] == 600      # flag wins
    assert man["config"]["seed"] == 4     # file value
    assert man["config"]["alpha"] == 0.5  # file value


def test_unknown_config_key_exits_2(graph_file, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alhpa": 0.5}))
    assert run("estimate", "--input", graph_file, "--config", str(cfg),
               "--output-dir", str(tmp_path / "o")) == 2


@pytest.mark.parametrize(
    "text, field",
    [
        (b'{"R": "100"}', "R"),
        (b'{"lcc": "no"}', "lcc"),
        (b'{"workers": 1.5}', "workers"),
        (b'{"seed": true}', "seed"),
        (b'{"alpha": [0.3]}', "alpha"),
        (b'{"R": 100', "config"),
        (b'{"R": 1\xff}', "config"),
        (b'[0.5]', "config"),
    ],
)
def test_malformed_config_file_exits_2_naming_the_field(graph_file, tmp_path, capsys, text, field):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(text)
    assert run("estimate", "--input", graph_file, "--config", str(cfg),
               "--output-dir", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    if field == "config":
        assert str(cfg) in err


def test_bad_alpha_exits_2(graph_file, tmp_path, capsys):
    assert run("estimate", "--input", graph_file, "--alpha", "1.5",
               "--output-dir", str(tmp_path / "o")) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_64_bits_exits_2(graph_file, tmp_path, capsys, seed):
    out = tmp_path / "o"
    assert run("estimate", "--input", graph_file, f"--seed={seed}", "--R", "20",
               "--output-dir", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"config error: seed: must lie in [0, 2**64), got {seed}")
    assert not out.exists()


def test_seed_outside_64_bits_in_config_file_exits_2(graph_file, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": -3}))
    assert run("augment", "--input", graph_file, "--config", str(cfg), "--k", "2",
               "--output-dir", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("config error: seed: ")


def test_odd_budget_for_paired_kind_exits_2(graph_file, tmp_path, capsys):
    assert run("augment", "--input", graph_file, "--heuristic", "bc-both",
               "--k", "3", "--output-dir", str(tmp_path / "o")) == 2
    assert "k" in capsys.readouterr().err


def test_unknown_heuristic_exits_2(graph_file, tmp_path):
    assert run("augment", "--input", graph_file, "--heuristic", "magic",
               "--k", "2", "--output-dir", str(tmp_path / "o")) == 2


def test_missing_input_exits_1(tmp_path):
    assert run("estimate", "--input", str(tmp_path / "nope.edges"),
               "--output-dir", str(tmp_path / "o")) == 1


def test_unparseable_input_exits_1(tmp_path):
    f = tmp_path / "bad.edges"
    f.write_text("0 1\nnot numbers\n")
    assert run("estimate", "--input", str(f),
               "--output-dir", str(tmp_path / "o")) == 1


# --- augment --------------------------------------------------------------

def test_augment_outputs(graph_file, tmp_path):
    out = str(tmp_path / "aug")
    assert run("augment", "--input", graph_file, "--alpha", "0.5", "--R", "300",
               "--k", "4", "--heuristic", "bc-chord", "--eval-every", "2",
               "--output-dir", out) == 0
    files = set(os.listdir(out))
    assert {"trace.csv", "augmented.edges", "manifest.json", "run_summary.json",
            "metrics_k0.json", "metrics_k4.json"} <= files
    trace = Path(out, "trace.csv").read_text().splitlines()
    assert trace[0] == "step,u,v,welfare,min_broadcast,min_influence"
    assert len(trace) == 5
    m0 = json.loads(Path(out, "metrics_k0.json").read_text())
    m4 = json.loads(Path(out, "metrics_k4.json").read_text())
    assert m0["k"] == 0 and m4["k"] == 4
    assert m4["welfare"]["value"] >= m0["welfare"]["value"]
    summary = json.loads(Path(out, "run_summary.json").read_text())
    assert summary["edges_added"] == 4
    aug_lines = Path(out, "augmented.edges").read_text().splitlines()
    assert len(aug_lines) == 5 + 4


def test_augment_trace_identical_across_worker_counts(graph_file, tmp_path):
    blobs = []
    for tag, workers in (("w1", "1"), ("w4", "4")):
        out = str(tmp_path / tag)
        assert run("augment", "--input", graph_file, "--alpha", "0.5",
                   "--R", "400", "--k", "4", "--heuristic", "bc-chord",
                   "--workers", workers, "--output-dir", out) == 0
        blobs.append(Path(out, "trace.csv").read_bytes())
    assert blobs[0] == blobs[1]


# K7 minus four edges: bc-one adds three edges, then finds node 0 adjacent
# to all candidates on every later step (alpha 0.5, R 200, seed 0)
SKIP_LATE = ("1 2\n2 5\n0 1\n3 5\n1 3\n2 6\n3 6\n1 4\n0 4\n0 6\n2 4\n1 6\n3 4\n0 5\n"
             "4 5\n1 5\n4 6\n")


@pytest.mark.parametrize(
    "text, heuristic, k, eval_every, written",
    [
        (PATH6, "bc-chord", 5, 2, [0, 2, 4, 5]),  # k not a multiple of eval_every
        (SKIP_LATE, "bc-one", 5, 1, [0, 1, 2, 3]),  # steps that add nothing
        ("0 1\n1 2\n", "bc-chord", 10, 3, [0, 1]),  # ends early: complete
    ],
    ids=["k-not-a-multiple", "skipped-steps", "early-end"],
)
def test_augment_writes_each_bundle_once(tmp_path, monkeypatch, text, heuristic, k, eval_every,
                                         written):
    import netaccess.cli as cli

    f = tmp_path / "g.edges"
    f.write_text(text)
    bundled = []

    def counting_bundle(*args, **kwargs):
        bundled.append(kwargs["k"])
        return metrics_bundle(*args, **kwargs)

    metrics_bundle = cli.metrics_bundle
    monkeypatch.setattr(cli, "metrics_bundle", counting_bundle)
    out = tmp_path / "aug"
    assert run("augment", "--input", str(f), "--alpha", "0.5", "--R", "200",
               "--heuristic", heuristic, "--k", str(k), "--eval-every", str(eval_every),
               "--output-dir", str(out)) == 0
    assert bundled == written
    assert sorted(p.name for p in out.glob("metrics_k*.json")) == sorted(
        f"metrics_k{j}.json" for j in written)
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["edges_added"] == written[-1]
    if heuristic == "bc-one":
        assert summary["skipped_events"] == ["skipped: node 0 adjacent to all candidates"] * 2


# a 40-node wheel with two pendant paths: at alpha 0.8 an inserted edge
# changes the counters of a few nodes, so bundles update their distances
WHEEL_PATHS = "".join(
    f"{u} {v}\n"
    for u, v in [(0, i) for i in range(1, 40)] + [(i, i + 1) for i in range(1, 39)]
    + [(5, 40), (40, 41), (41, 42), (12, 43), (43, 44), (44, 45), (45, 46)]
)


@pytest.mark.parametrize("metric", ["L1", "L2"])
@pytest.mark.parametrize("workers", ["1", "3"])
def test_augment_signature_distances_equal_fresh_builds(tmp_path, monkeypatch, workers, metric):
    """Every bundle's signature distances, updated from the last bundle's,
    equal those of a fresh build of that step's graph."""
    from netaccess import evaluation

    covers = []

    def recording_cover(old, new):
        s = cover(old, new)
        covers.append(len(s) / len(old))
        return s

    cover = evaluation._cover
    monkeypatch.setattr(evaluation, "_cover", recording_cover)
    f = tmp_path / "g.edges"
    f.write_text(WHEEL_PATHS)
    out = tmp_path / "aug"
    assert run("augment", "--input", str(f), "--alpha", "0.8", "--R", "200",
               "--heuristic", "bc-chord", "--k", "5", "--eval-every", "1",
               "--signature-metric", metric, "--workers", workers,
               "--output-dir", str(out)) == 0
    # every bundle after the first went through a cover, not all pairs
    assert len(covers) == 5 and max(covers) <= evaluation._UPDATE_SHARE
    g = na.load_edge_list(WHEEL_PATHS.encode())
    added = [tuple(np.searchsorted(g.orig_ids, [int(u), int(v)]).tolist()) for _, u, v, *_ in
             (line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:])]
    for k in range(6):
        bundle = json.loads((out / f"metrics_k{k}.json").read_text())
        _, est = na.build_ensemble(g.with_edges(added[:k]), 0.8, 200, 0)
        summary, pair, value = na.signature_distances(est, metric=metric)
        assert bundle["signature_distance"] == {
            "metric": metric,
            "sampled_pairs": None,
            "summary": asdict(summary),
            "max_pair": [int(g.orig_ids[pair[0]]), int(g.orig_ids[pair[1]])],
            "max_value": value,
        }


def test_failed_run_leaves_no_output_dir(tmp_path):
    tri = tmp_path / "tri.edges"
    tri.write_text("0 1\n1 2\n0 2\n")
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"NOPE" + b"\x00" * 64)
    runs = [
        ("augment", "--input", str(tri), "--k", "2"),  # already complete
        ("evaluate", "--estimate-in", str(junk)),
        ("evaluate", "--input", str(tri), "--estimate-in", str(junk)),
        ("control", "--input", str(tri), "--nodes", "5"),
        ("oracle", "--input", str(tmp_path / "missing.edges")),
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"o{i}"
        assert run(*argv, "--output-dir", str(out)) in (1, 2)
        assert not out.exists(), argv


def test_every_command_prints_its_summary_line(graph_file, tmp_path, capsys):
    def line(*argv):
        out = str(tmp_path / argv[0])
        assert run(*argv, "--input", graph_file, "--alpha", "0.5", "--R", "120",
                   "--output-dir", out) == 0
        return capsys.readouterr().out, out

    def read(out, name):
        return json.loads(Path(out, name).read_text())

    text, out = line("estimate")
    assert text == f"estimate: n=6 m=5 alpha=0.5 R=120 -> {out}\n"
    text, out = line("augment", "--k", "2")
    welfare = read(out, "run_summary.json")["final_welfare"]
    assert text == f"augment: bc-chord k=2 added=2 final_welfare={welfare} -> {out}\n"
    text, out = line("evaluate")
    welfare = read(out, "metrics_k0.json")["welfare"]["value"]
    assert text == f"evaluate: welfare={welfare} -> {out}\n"
    text, out = line("oracle")
    assert text == f"oracle: n=6 m=5 exact matrix -> {out}\n"
    text, out = line("stability", "--reps", "2")
    st = read(out, "stability.json")
    assert text == (f"stability: max_dev={st['max_dev']:.6f} mean_dev={st['mean_dev']:.6f}"
                    f" -> {out}\n")
    text, out = line("control", "--nodes", "2,4")
    assert text == f"control: 2 node(s) -> {out}\n"


# --- evaluate / oracle / stability / control ------------------------------

def test_evaluate_from_graph(graph_file, tmp_path):
    out = str(tmp_path / "ev")
    assert run("evaluate", "--input", graph_file, "--alpha", "0.5", "--R", "200",
               "--output-dir", out) == 0
    bundle = json.loads(Path(out, "metrics_k0.json").read_text())
    assert bundle["k"] == 0 and "welfare" in bundle


def test_evaluate_round_trip_through_binary(graph_file, tmp_path):
    est_dir = str(tmp_path / "est")
    bin_path = os.path.join(est_dir, "est.bin")
    run("estimate", "--input", graph_file, "--alpha", "0.5", "--R", "300",
        "--output-dir", est_dir, "--estimate-out", bin_path)
    ev_dir = str(tmp_path / "ev")
    assert run("evaluate", "--estimate-in", bin_path, "--output-dir", ev_dir) == 0
    bundle = json.loads(Path(ev_dir, "metrics_k0.json").read_text())
    assert bundle["config"]["alpha"] == 0.5
    assert bundle["config"]["R"] == 300


@pytest.fixture
def dump(graph_file, tmp_path):
    """An estimate dump at alpha 0.3, R 250, seed 2."""
    path = str(tmp_path / "est.bin")
    assert run("estimate", "--input", graph_file, "--alpha", "0.3", "--R", "250", "--seed", "2",
               "--output-dir", str(tmp_path / "est"), "--estimate-out", path) == 0
    return path


@pytest.mark.parametrize(
    "flags, file_values",
    [
        (["--alpha", "0.2,0.9"], None),
        (["--alpha", "0.3"], None),
        (["--R", "7"], None),
        ([], {"alpha": 0.2}),
        ([], {"R": 250}),
        ([], {"alpha": "0.2,0.9", "seed": 1}),
    ],
    ids=["alpha-list-flag", "alpha-flag", "R-flag", "alpha-file", "R-file", "alpha-list-file"],
)
def test_evaluate_estimate_in_with_alpha_or_R_exits_2(dump, tmp_path, capsys, flags, file_values):
    if file_values is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(file_values))
        flags = flags + ["--config", str(cfg)]
    out = tmp_path / "ev"
    assert run("evaluate", "--estimate-in", dump, *flags, "--output-dir", str(out)) == 2
    assert capsys.readouterr().err.startswith("config error: estimate_in: ")
    assert not out.exists()


def test_evaluate_estimate_in_echoes_the_dumps_alpha_and_R(dump, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 9, "sample_pairs": 4}))
    out = tmp_path / "ev"
    assert run("evaluate", "--estimate-in", dump, "--config", str(cfg),
               "--output-dir", str(out)) == 0
    man = json.loads((out / "manifest.json").read_text())
    bundle = json.loads((out / "metrics_k0.json").read_text())
    for echo in (man["config"], bundle["config"]):
        assert (echo["alpha"], echo["R"], echo["seed"]) == (0.3, 250, 9)
        assert echo["estimate_in"] == dump and echo["sample_pairs"] == 4
    assert man["input_sha256"] == hashlib.sha256(Path(dump).read_bytes()).hexdigest()


def test_evaluate_rejects_both_sources(graph_file, tmp_path):
    assert run("evaluate", "--input", graph_file, "--estimate-in", graph_file,
               "--output-dir", str(tmp_path / "o")) == 2


def test_oracle_exact_triangle(tmp_path):
    f = tmp_path / "tri.edges"
    f.write_text("0 1\n1 2\n0 2\n")
    out = str(tmp_path / "or")
    assert run("oracle", "--input", str(f), "--alpha", "0.5",
               "--output-dir", out) == 0
    rows = Path(out, "access.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["0.625000"] * 3


@st.composite
def small_edge_lists(draw):
    """Edge-list text with at most 8 edges over arbitrary ids: up to 6 edges
    among up to 7 nodes, plus up to 2 isolated edges on fresh ids."""
    ids = draw(st.lists(st.integers(0, 99), min_size=2, max_size=7, unique=True))
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True))
    edges += [(100 + 2 * k, 101 + 2 * k) for k in range(draw(st.integers(0, 2)))]
    return "".join(f"{v} {u}\n" if draw(st.booleans()) else f"{u} {v}\n" for u, v in edges)


@settings(deadline=None, max_examples=25)
@given(small_edge_lists(), st.sampled_from(["0.25", "0.3", "0.5", "0.77"]),
       st.integers(0, 2**20))
def test_access_csv_bytes_equal_reference_writer(text, alpha, seed):
    """oracle and estimate write exactly the reference writer's bytes for the
    matrix they compute, and estimate's bytes do not depend on workers."""
    g = na.load_edge_list(text.encode())
    with tempfile.TemporaryDirectory() as tmp:
        edges = os.path.join(tmp, "g.edges")
        with open(edges, "w") as fh:
            fh.write(text)

        def access(cmd, sub, *extra):
            out = os.path.join(tmp, sub)
            assert run(cmd, "--input", edges, "--alpha", alpha, "--no-lcc",
                       "--output-dir", out, *extra) == 0
            with open(os.path.join(out, "access.csv"), "rb") as fh:
                return fh.read()

        def reference(p):
            path = os.path.join(tmp, "reference.csv")
            ref_write_access_csv(p, g.orig_ids, path)
            with open(path, "rb") as fh:
                return fh.read()

        assert access("oracle", "oracle") == reference(na.exact_access_oracle(g, float(alpha)))
        want = reference(na.build_ensemble(g, float(alpha), 64, seed)[1].counters / 64)
        for workers in ("1", "2"):
            assert access("estimate", f"w{workers}", "--R", "64", "--seed", str(seed),
                          "--workers", workers) == want


def test_evaluate_rejects_repeated_ids_exits_1(tmp_path, capsys):
    est = na.AccessEstimate(n=3, R=10, counters=np.full((3, 3), 10, dtype=np.int32))
    path = str(tmp_path / "dup.bin")
    na.save_estimate(est, np.array([7, 7, 9]), 0.5, 0, path)
    out = tmp_path / "ev"
    assert run("evaluate", "--estimate-in", path, "--output-dir", str(out)) == 1
    assert "repeats original id 7" in capsys.readouterr().err
    assert not (out / "metrics_k0.json").exists()


def test_evaluate_rejects_descending_ids_exits_1(tmp_path, capsys):
    c = np.array([[8, 2, 2], [2, 8, 5], [2, 5, 8]], dtype=np.int32)
    path = str(tmp_path / "down.bin")
    na.save_estimate(na.AccessEstimate(n=3, R=8, counters=c), np.array([9, 4, 7]), 0.5, 0, path)
    out = tmp_path / "ev"
    assert run("evaluate", "--estimate-in", path, "--output-dir", str(out)) == 1
    assert "original id 4 after 9: ids must ascend" in capsys.readouterr().err
    assert not (out / "metrics_k0.json").exists()


def test_oracle_cap_exits_1(tmp_path):
    f = tmp_path / "big.edges"
    f.write_text("".join(f"{i} {i + 1}\n" for i in range(25)))
    assert run("oracle", "--input", str(f), "--output-dir", str(tmp_path / "o")) == 1


def test_stability_seeds_past_64_bits_exit_2_before_any_build(graph_file, tmp_path, capsys,
                                                              monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("stability built an ensemble")

    monkeypatch.setattr("netaccess.sampler.build_ensemble", no_build)
    out = tmp_path / "o"
    assert run("stability", "--input", graph_file, "--seed", str(2**64 - 1), "--reps", "2",
               "--R", "10", "--output-dir", str(out)) == 2
    assert capsys.readouterr().err == (
        f"config error: seed: stability runs seeds {2**64 - 1}..{2**64}, "
        "which must lie below 2**64\n"
    )
    assert not out.exists()
    monkeypatch.undo()
    # a range that ends at 2**64 - 1 is fine, and other commands use one seed
    assert run("stability", "--input", graph_file, "--seed", str(2**64 - 2), "--reps", "2",
               "--R", "10", "--output-dir", str(out)) == 0
    assert run("estimate", "--input", graph_file, "--seed", str(2**64 - 1), "--R", "10",
               "--output-dir", str(tmp_path / "e")) == 0


def test_stability_json(graph_file, tmp_path):
    out = str(tmp_path / "st")
    assert run("stability", "--input", graph_file, "--alpha", "0.5", "--R", "150",
               "--reps", "3", "--output-dir", out) == 0
    st = json.loads(Path(out, "stability.json").read_text())
    assert set(st) == {"alpha", "R", "reps", "base_seed", "max_dev", "mean_dev"}
    assert 0.0 <= st["mean_dev"] <= st["max_dev"] <= 1.0


def test_control_selected_nodes(tmp_path):
    f = tmp_path / "tri.edges"
    f.write_text("0 1\n1 2\n")
    out = str(tmp_path / "ct")
    assert run("control", "--input", str(f), "--alpha", "0.5", "--R", "200",
               "--nodes", "1", "--output-dir", out) == 0
    rows = Path(out, "control.csv").read_text().splitlines()
    assert rows[0] == "node,cent_star,max_pair_control,raw_sum"
    node, cent, maxp, raw = rows[1].split(",")
    assert node == "1" and cent == "1.000000" and maxp == "1.000000"


def test_control_exact_flag(tmp_path):
    f = tmp_path / "tri.edges"
    f.write_text("0 1\n1 2\n0 2\n")
    out = str(tmp_path / "ct")
    assert run("control", "--input", str(f), "--alpha", "0.5", "--exact",
               "--nodes", "0", "--output-dir", out) == 0
    rows = Path(out, "control.csv").read_text().splitlines()
    assert rows[1].split(",")[1] == "0.200000"
    # the same run with exact from a config file writes the same bytes
    cfg = tmp_path / "exact.json"
    cfg.write_text(json.dumps({"exact": True}))
    out_cfg = str(tmp_path / "ct_cfg")
    assert run("control", "--input", str(f), "--alpha", "0.5", "--config", str(cfg),
               "--nodes", "0", "--output-dir", out_cfg) == 0
    assert (Path(out_cfg, "control.csv").read_text()
            == Path(out, "control.csv").read_text())


def test_control_csv_identical_across_worker_counts(tmp_path):
    # hub 2, leaf 5 and a node of a second component, over three blocks
    f = tmp_path / "g.edges"
    f.write_text("0 2\n1 2\n2 3\n2 4\n3 4\n4 5\n7 8\n8 9\n")
    outputs = []
    for workers in ("1", "2", "3"):
        out = tmp_path / f"w{workers}"
        assert run("control", "--input", str(f), "--alpha", "0.6", "--R", "1100", "--no-lcc",
                   "--nodes", "2,5,8", "--workers", workers, "--output-dir", str(out)) == 0
        outputs.append((out / "control.csv").read_bytes())
    assert outputs[0].count(b"\n") == 4
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_control_unknown_node_exits_2(tmp_path):
    f = tmp_path / "e.edges"
    f.write_text("0 1\n")
    assert run("control", "--input", str(f), "--nodes", "7",
               "--output-dir", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("node", ["-1", "99999999999999999999"])
def test_control_node_outside_the_id_range_exits_2(tmp_path, capsys, node):
    """Ids below the smallest or above the largest id, even beyond 64 bits,
    are not present."""
    f = tmp_path / "p.edges"
    f.write_text("0 1\n1 2\n2 3\n")
    out = tmp_path / "o"
    assert run("control", "--input", str(f), "--nodes", node, "--R", "100",
               "--output-dir", str(out)) == 2
    assert f"nodes: node {node} not present in the graph" in capsys.readouterr().err
    assert not out.exists()


def test_control_repeated_node_exits_2(tmp_path, capsys):
    f = tmp_path / "p.edges"
    f.write_text("0 1\n1 2\n2 3\n")
    out = tmp_path / "o"
    assert run("control", "--input", str(f), "--nodes", "1,2,1", "--R", "100",
               "--output-dir", str(out)) == 2
    assert "nodes: node 1 is listed more than once" in capsys.readouterr().err
    assert not (out / "control.csv").exists()


@pytest.mark.parametrize("via_config", [False, True])
def test_control_empty_nodes_exits_2(tmp_path, capsys, via_config):
    """An empty node list is malformed, not a request for every node."""
    f = tmp_path / "p.edges"
    f.write_text("0 1\n1 2\n2 3\n")
    out = tmp_path / "o"
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nodes": ""}))
        extra = ("--config", str(cfg))
    else:
        extra = ("--nodes", "")
    assert run("control", "--input", str(f), "--R", "100", "--output-dir", str(out), *extra) == 2
    assert "nodes: expected comma-separated integers, got ''" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("estimate", ()),
    ("stability", ("--reps", "2")),
    ("augment", ("--k", "2")),
    ("evaluate", ()),
])
def test_fewer_than_two_nodes_exit_1_before_any_output(tmp_path, capsys, command, extra):
    # the largest component of a lone self-loop is one node
    f = tmp_path / "one.edges"
    f.write_text("0 0\n")
    out = tmp_path / "o"
    assert run(command, "--input", str(f), "--R", "10", "--output-dir", str(out), *extra) == 1
    assert capsys.readouterr().err == f"error: {command} needs at least 2 nodes, got n=1\n"
    assert not out.exists()


def test_evaluate_of_a_one_node_dump_exits_1_before_any_output(tmp_path, capsys):
    dump = tmp_path / "one.bin"
    est = na.AccessEstimate(n=1, R=10, counters=np.full((1, 1), 10, dtype=np.int32))
    na.save_estimate(est, np.array([7]), 0.5, 0, str(dump))
    out = tmp_path / "o"
    assert run("evaluate", "--estimate-in", str(dump), "--output-dir", str(out)) == 1
    assert capsys.readouterr().err == "error: evaluate needs at least 2 nodes, got n=1\n"
    assert not out.exists()


@pytest.mark.parametrize("text, n", [("0 0\n", 1), ("0 1\n", 2)], ids=["n1", "n2"])
def test_control_on_fewer_than_three_nodes_exits_1_before_warning(tmp_path, capsys, caplog,
                                                                    text, n):
    f = tmp_path / "small.edges"
    f.write_text(text)
    out = tmp_path / "o"
    assert run("control", "--input", str(f), "--R", "10", "--output-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: control needs at least 3 nodes, got n={n}\n"
    assert "estimates" not in caplog.text  # the all-nodes warning is not given
    assert not out.exists()


# --- console entry point --------------------------------------------------

def test_console_script_runs(graph_file, tmp_path):
    out = str(tmp_path / "sub")
    proc = subprocess.run(
        [sys.executable, "-m", "netaccess.cli", "estimate", "--input", graph_file,
         "--R", "100", "--output-dir", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "access.csv"))
