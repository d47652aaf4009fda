"""End-to-end checks of the estimator, heuristics, and CLI at their stated
tolerances. Each test appends a one-line verdict to the terminal summary."""
import os
import time

import numpy as np
import pytest
from conftest import record_acceptance
from reference import random_connected_graph

import netaccess as na
from netaccess.cli import main as cli_main

WORKERS = os.cpu_count() or 1


def _load(text: bytes):
    return na.load_edge_list(text)


def test_monte_carlo_agrees_with_oracle():
    # >= 20 random connected graphs (n<=8, m<=16) x alpha in {0.2, 0.5, 0.8};
    # every estimate within max(0.03, 5*sqrt(p(1-p)/R)) of enumeration
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    R = 10_000
    n_graphs = 20
    worst = -np.inf
    for gi in range(n_graphs):
        n, edges = random_connected_graph(rng, n_max=8, m_max=16)
        g = _load("".join(f"{u} {v}\n" for u, v in edges).encode())
        for ai, alpha in enumerate((0.2, 0.5, 0.8)):
            exact = na.exact_access_oracle(g, alpha)
            _, est = na.build_ensemble(g, alpha, R, seed=1000 * gi + ai)
            tol = np.maximum(0.03, 5.0 * np.sqrt(exact * (1.0 - exact) / R))
            err = np.abs(est.counters / est.R - exact)
            worst = max(worst, float((err - tol).max()))
            assert np.all(err <= tol), (gi, alpha, float(err.max()))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    record_acceptance(
        f"PASS oracle agreement: {n_graphs} graphs x 3 alphas, R={R}, "
        f"worst margin to tolerance {worst:+.5f}, {elapsed:.1f}s"
    )


def test_estimator_stability_on_benchmark(bench_graph):
    # alpha=0.4, R=10000, 10 seeds: max deviation <= 0.03, mean <= 0.004
    max_dev, mean_dev = na.stability_check(
        bench_graph, 0.4, 10_000, reps=10, base_seed=0, workers=WORKERS
    )
    assert max_dev <= 0.03, max_dev
    assert mean_dev <= 0.004, mean_dev
    record_acceptance(
        f"PASS estimator stability: max_dev={max_dev:.4f} (<=0.03), "
        f"mean_dev={mean_dev:.5f} (<=0.004)"
    )


MONOTONE_GRAPHS = {
    "path6": b"0 1\n1 2\n2 3\n3 4\n4 5\n",
    "kite": b"0 1\n0 2\n1 2\n1 3\n2 3\n3 4\n",
    "barbell": b"0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n",
}


def test_welfare_monotone_under_every_heuristic():
    # coupling makes each welfare trajectory non-decreasing, zero tolerance
    checked = 0
    for name, text in MONOTONE_GRAPHS.items():
        g = _load(text)
        for kind in na.HEURISTIC_KINDS:
            trace, _ = na.run_augmentation(g, kind, 6, 0.45, 1500, 3)
            ws = [s.welfare for s in trace.steps]
            assert all(b >= a for a, b in zip(ws, ws[1:])), (name, kind, ws)
            checked += 1
    record_acceptance(
        f"PASS welfare monotonicity: {checked} runs "
        f"({len(MONOTONE_GRAPHS)} graphs x {len(na.HEURISTIC_KINDS)} heuristics), exact"
    )


def test_incremental_updates_equal_rebuilds():
    # 50 random (graph, insertion sequence, seed) triples, integer equality
    rng = np.random.default_rng(7)
    for trial in range(50):
        n, edges = random_connected_graph(rng, n_max=8, m_max=14)
        g = _load("".join(f"{u} {v}\n" for u, v in edges).encode())
        absent = [
            (i, j)
            for i in range(g.n)
            for j in range(i + 1, g.n)
            if not g.has_edge(i, j)
        ]
        if not absent:
            continue
        rng.shuffle(absent)
        adds = absent[: int(rng.integers(1, min(3, len(absent)) + 1))]
        seed = int(rng.integers(0, 10_000))
        alpha = float(rng.uniform(0.1, 0.9))
        ens, est = na.build_ensemble(g, alpha, 400, seed)
        for e in adds:
            na.add_edge_incremental(ens, est, e)
        _, rebuilt = na.build_ensemble(g.with_edges(adds), alpha, 400, seed)
        assert np.array_equal(est.counters, rebuilt.counters), trial
    record_acceptance("PASS incremental equals rebuild: 50 random triples, exact")


@pytest.fixture(scope="module")
def effectiveness_runs(bench_graph):
    # shared by the effectiveness and gap-reduction checks:
    # alpha=0.4, k=200, seeds 0..2, bc-chord vs rand
    out = []
    for seed in (0, 1, 2):
        _, est0 = na.build_ensemble(bench_graph, 0.4, 10_000, seed, workers=WORKERS)
        w0, _ = na.welfare(est0)
        b0 = na.broadcast_all(est0)
        per = {"w0": w0, "b0": b0}
        for kind in ("bc-chord", "rand"):
            trace, aug = na.run_augmentation(
                bench_graph, kind, 200, 0.4, 10_000, seed, workers=WORKERS
            )
            per[kind] = trace
            if kind == "bc-chord":
                _, estk = na.build_ensemble(aug, 0.4, 10_000, seed, workers=WORKERS)
                per["bk"] = na.broadcast_all(estk)
        out.append(per)
    return out


def test_targeted_heuristic_beats_random(effectiveness_runs):
    # seed-averaged welfare gain of bc-chord >= 3x that of rand
    gain_bc = float(
        np.mean([r["bc-chord"].steps[-1].welfare - r["w0"] for r in effectiveness_runs])
    )
    gain_rand = float(
        np.mean([r["rand"].steps[-1].welfare - r["w0"] for r in effectiveness_runs])
    )
    assert gain_rand >= 0.0  # coupling: welfare can never fall
    ratio = gain_bc / gain_rand if gain_rand > 0 else float("inf")
    assert ratio >= 3.0, (gain_bc, gain_rand)
    record_acceptance(
        f"PASS heuristic effectiveness: mean welfare gain bc-chord {gain_bc:+.4f} "
        f"vs rand {gain_rand:+.4f}, ratio {ratio:.1f} (>=3 required)"
    )


def test_broadcast_gap_shrinks(effectiveness_runs):
    # relative broadcast gap falls by at least half under bc-chord
    drops = []
    for r in effectiveness_runs:
        rel0 = (r["b0"].max() - r["b0"].min()) / r["b0"].min()
        relk = (r["bk"].max() - r["bk"].min()) / r["bk"].min()
        drops.append(1.0 - relk / rel0)
    mean_drop = float(np.mean(drops))
    assert mean_drop >= 0.5, drops
    record_acceptance(
        f"PASS gap reduction: relative broadcast gap fell {100 * mean_drop:.1f}% "
        f"under bc-chord (>=50% required)"
    )


def test_control_fixtures():
    triad = _load(b"0 1\n1 2\n")
    mc = na.access_centrality(triad, 0.5, [1], R=10_000, seed=0)[0]
    assert abs(mc.max_pair_control - 1.0) <= 0.02
    exact = na.access_centrality(triad, 0.5, [1], exact=True)[0]
    assert exact.max_pair_control == 1.0
    for leaf in (0, 2):
        assert na.access_centrality(triad, 0.5, [leaf], R=10_000, seed=1)[0].cent_star == 0.0
        assert na.access_centrality(triad, 0.5, [leaf], exact=True)[0].cent_star == 0.0
    tri = _load(b"0 1\n1 2\n0 2\n")
    trep = na.access_centrality(tri, 0.5, [0], exact=True)[0]
    assert abs(trep.max_pair_control - 0.2) < 1e-12
    record_acceptance(
        "PASS control fixtures: triad middle 1.0 (MC within 0.02, oracle exact), "
        "leaves 0.0 exact, triangle 0.2 exact"
    )


def test_closed_form_fixtures():
    # p = alpha (edge); alpha^2 (2-path); 1-(1-a^2)^t (t parallel 2-paths);
    # a^2*(1-(1-a^2)^2) (edge, edge, then two parallel 2-paths in series)
    edge = _load(b"0 1\n")
    path2 = _load(b"0 1\n1 2\n")
    par3 = _load(b"0 2\n2 1\n0 3\n3 1\n0 4\n4 1\n")
    serpar = _load(b"0 1\n1 2\n2 3\n3 5\n2 4\n4 5\n")
    checks = 0
    for a in (0.25, 0.5, 0.618):
        assert abs(na.exact_access_oracle(edge, a)[0, 1] - a) < 1e-12
        assert abs(na.exact_access_oracle(path2, a)[0, 2] - a**2) < 1e-12
        expect_par = 1.0 - (1.0 - a**2) ** 3
        assert abs(na.exact_access_oracle(par3, a)[0, 1] - expect_par) < 1e-12
        expect_sp = a**2 * (1.0 - (1.0 - a**2) ** 2)
        assert abs(na.exact_access_oracle(serpar, a)[0, 5] - expect_sp) < 1e-12
        checks += 4
    record_acceptance(
        f"PASS closed forms: {checks} fixture/alpha combinations within 1e-12"
    )


def test_trace_bytes_identical_across_worker_counts(tmp_path, bench_graph):
    # identical augment config at workers 1, 4, and max: same trace bytes
    src = str(tmp_path / "bench.edges")
    na.write_edge_list(bench_graph, src)
    counts = [1, 4, max(1, WORKERS)]
    blobs = []
    for i, w in enumerate(counts):
        out = str(tmp_path / f"run{i}")
        code = cli_main(
            [
                "augment", "--input", src, "--alpha", "0.4", "--R", "5000",
                "--k", "10", "--heuristic", "bc-chord", "--seed", "0",
                "--workers", str(w), "--output-dir", out,
            ]
        )
        assert code == 0
        with open(os.path.join(out, "trace.csv"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1] == blobs[2]
    record_acceptance(
        f"PASS determinism: augment trace bytes identical at workers {counts}"
    )
