import json
import os
import subprocess
import sys

import numpy as np
import pytest

import netaccess as na
from netaccess import AccessEstimate


def _est(counters, R):
    c = np.array(counters, dtype=np.int32)
    return AccessEstimate(n=c.shape[0], R=R, counters=c)


# path 0-1-2 at alpha=1/2, exact counters at R=4
PATH_EST = _est([[4, 2, 1], [2, 4, 2], [1, 2, 4]], 4)
# triangle at alpha=1/2, exact counters at R=8 (p = 5/8 everywhere)
TRI_EST = _est([[8, 5, 5], [5, 8, 5], [5, 5, 8]], 8)


# --- gap report -----------------------------------------------------------


def test_gap_report_values():
    rep = na.gap_report(np.array([0.2, 0.5, 0.9]), "broadcast")
    assert rep.name == "broadcast"
    assert abs(rep.absolute - 0.7) < 1e-12
    assert abs(rep.relative - 3.5) < 1e-12
    assert rep.argmin == 0 and rep.argmax == 2


def test_gap_report_zero_minimum_has_no_relative():
    rep = na.gap_report(np.array([0.0, 0.4]), "x")
    assert rep.absolute == 0.4
    assert rep.relative is None


def test_gap_report_needs_two_values():
    with pytest.raises(ValueError):
        na.gap_report(np.array([0.5]), "x")


# --- distribution summary -------------------------------------------------


def test_distribution_summary_small_fixture():
    s = na.distribution_summary(np.array([1.0, 2.0, 3.0, 4.0]))
    assert s.count == 4
    assert s.minimum == 1.0 and s.maximum == 4.0
    assert s.mean == 2.5
    assert abs(s.p25 - 1.75) < 1e-12
    assert abs(s.p50 - 2.5) < 1e-12
    assert abs(s.p75 - 3.25) < 1e-12


def test_distribution_summary_percentiles_ordered():
    rng = np.random.default_rng(0)
    s = na.distribution_summary(rng.random(200))
    seq = [s.minimum, s.p1, s.p5, s.p25, s.p50, s.p75, s.p95, s.p99, s.maximum]
    assert seq == sorted(seq)


# --- signature distances --------------------------------------------------


def test_signature_distance_triangle_l1():
    summary, pair, value = na.signature_distances(TRI_EST, metric="L1")
    assert abs(value - 0.75) < 1e-12
    assert summary.minimum == summary.maximum == summary.mean
    assert pair == (0, 1)  # all tie; smallest pair reported


def test_signature_distance_triangle_l2():
    _, _, value = na.signature_distances(TRI_EST, metric="L2")
    assert abs(value - np.sqrt(2 * 0.375**2)) < 1e-12


def test_signature_distance_path_l1():
    summary, pair, value = na.signature_distances(PATH_EST, metric="L1")
    assert pair == (0, 2)
    assert abs(value - 1.5) < 1e-12
    assert abs(summary.mean - 4 / 3) < 1e-12


def test_l1_dominates_l2():
    g = na.load_edge_list(b"0 1\n1 2\n2 3\n0 3\n1 3\n")
    _, est = na.build_ensemble(g, 0.4, 500, 1)
    s1, _, v1 = na.signature_distances(est, metric="L1")
    s2, _, v2 = na.signature_distances(est, metric="L2")
    assert v1 >= v2 - 1e-12
    assert s1.mean >= s2.mean - 1e-12


def test_signature_distance_rejects_unknown_metric():
    with pytest.raises(ValueError):
        na.signature_distances(PATH_EST, metric="L3")


def test_sampled_signature_distances_deterministic():
    g = na.load_edge_list(b"0 1\n1 2\n2 3\n3 4\n")
    _, est = na.build_ensemble(g, 0.5, 400, 0)
    a = na.signature_distances(est, metric="L1", sample_pairs=5, seed=3)
    b = na.signature_distances(est, metric="L1", sample_pairs=5, seed=3)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
    assert a[0].count == 5


def test_sampled_distances_lie_within_exact_range():
    g = na.load_edge_list(b"0 1\n1 2\n2 3\n3 4\n")
    _, est = na.build_ensemble(g, 0.5, 400, 0)
    exact, _, exact_max = na.signature_distances(est, metric="L1")
    sampled, _, _ = na.signature_distances(est, metric="L1", sample_pairs=8, seed=1)
    assert sampled.minimum >= exact.minimum - 1e-12
    assert sampled.maximum <= exact_max + 1e-12


# --- metrics bundle -------------------------------------------------------


def test_metrics_bundle_structure_and_identities():
    g = na.load_edge_list(b"0 1\n1 2\n")
    _, est = na.build_ensemble(g, 0.5, 400, 0)
    bundle = na.metrics_bundle(est, g.orig_ids, {"alpha": 0.5}, k=2)
    assert set(bundle) == {
        "access_distribution",
        "config",
        "gaps",
        "k",
        "min_broadcast",
        "min_influence",
        "signature_distance",
        "welfare",
    }
    assert bundle["k"] == 2
    assert bundle["config"] == {"alpha": 0.5}
    off = (est.counters / est.R)[~np.eye(3, dtype=bool)]
    assert bundle["welfare"]["value"] == off.min()
    assert bundle["min_broadcast"] == na.broadcast_all(est).min()
    assert bundle["min_influence"] == na.influence_all(est).min()
    assert bundle["access_distribution"]["count"] == 3
    json.dumps(bundle)  # must be serializable as-is


def test_metrics_bundle_maps_nodes_to_original_ids():
    g = na.load_edge_list(b"10 20\n20 30\n")
    _, est = na.build_ensemble(g, 0.5, 400, 0)
    bundle = na.metrics_bundle(est, g.orig_ids, {}, k=0)
    assert set(bundle["welfare"]["pair"]) <= {10, 20, 30}
    assert bundle["gaps"]["broadcast"]["argmin_node"] in (10, 20, 30)


def test_cli_import_leaves_scipy_spatial_unloaded():
    """Only signature_distances imports scipy.spatial, so commands that never
    compare signatures do not load it."""
    src = os.path.dirname(os.path.dirname(na.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, netaccess.cli; sys.exit('scipy.spatial' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# --- signature distances in counter units ----------------------------------


def _chorded_ring_estimate(R, n=30, alpha=0.5):
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 7) % n) for i in range(0, n, 3)]
    g = na.load_edge_list("".join(f"{u} {v}\n" for u, v in edges).encode())
    return na.build_ensemble(g, alpha, R, 2)[1]


@pytest.mark.parametrize("R", [256, 1024])
@pytest.mark.parametrize("metric, scipy_metric", [("L1", "cityblock"), ("L2", "euclidean")])
def test_signature_distances_at_power_of_two_R_equal_pdist_of_p(R, metric, scipy_metric):
    """At R = 2**k every value equals pdist over the rows of counters / R bit for
    bit, so the summary, the max pair and the max value do too."""
    from scipy.spatial.distance import pdist

    est = _chorded_ring_estimate(R)
    d = pdist(est.counters / float(R), scipy_metric)
    best = int(np.argmax(d))
    pairs = [(i, j) for i in range(est.n) for j in range(i + 1, est.n)]
    summary, pair, value = na.signature_distances(est, metric=metric)
    assert summary == na.distribution_summary(d)
    assert pair == pairs[best]
    assert value == d[best]


@pytest.mark.parametrize("R", [1000, 1024])
@pytest.mark.parametrize("metric", ["L1", "L2"])
def test_sampled_pairs_equal_exact_values(monkeypatch, R, metric):
    """Every sampled pair's value is the exact mode's value at that pair, bit
    for bit, across chunks of pairs (a few pairs per chunk here)."""
    from netaccess import evaluation

    est = _chorded_ring_estimate(R)
    n = est.n
    exact = evaluation._scaled(evaluation._counter_distances(est.counters, metric, None), R, metric)
    monkeypatch.setattr(evaluation, "_BAND_WORK", 4 * n)
    iu, ju = evaluation._sample_pairs(n, 50, 7)
    picked = exact[iu * (2 * n - iu - 1) // 2 + ju - iu - 1]
    summary, pair, value = na.signature_distances(est, metric=metric, sample_pairs=50, seed=7)
    best = int(np.argmax(picked))
    assert summary == na.distribution_summary(picked)
    assert pair == (int(iu[best]), int(ju[best]))
    assert value == picked[best]


def test_cover_holds_every_changed_counter():
    from netaccess.evaluation import _cover

    rng = np.random.default_rng(4)
    old = rng.integers(0, 9, (12, 12)).astype(np.int32)
    old = np.minimum(old, old.T)
    assert len(_cover(old, old)) == 0
    new = old.copy()
    for i, j in [(2, 7), (2, 9), (2, 11), (5, 7)]:
        new[i, j] += 1
        new[j, i] += 1
    s = _cover(old, new)
    # node 2 has three changes and 7 two, and together they cover all four
    assert s.tolist() == [2, 7]
    outside = np.setdiff1d(np.arange(12), s)
    assert np.array_equal(old[np.ix_(outside, outside)], new[np.ix_(outside, outside)])
