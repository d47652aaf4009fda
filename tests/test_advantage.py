import numpy as np
import pytest

import netaccess as na
from netaccess import AccessEstimate, sampler
from netaccess.advantage import _removal_groups
from reference import ref_control_report


def _est_from_counters(counters, R):
    c = np.array(counters, dtype=np.int32)
    return AccessEstimate(n=c.shape[0], R=R, counters=c)


# path 0-1-2 at alpha=1/2, R=4: p01=p12=1/2, p02=1/4
PATH_EST = _est_from_counters([[4, 2, 1], [2, 4, 2], [1, 2, 4]], 4)


def test_broadcast_path_fixture():
    b = na.broadcast_all(PATH_EST)
    assert b.tolist() == [0.25, 0.5, 0.25]


def test_influence_path_fixture():
    # mean of the full signature row, self term included
    infl = na.influence_all(PATH_EST)
    assert np.allclose(infl, [7 / 12, 2 / 3, 7 / 12])


def test_welfare_path_fixture():
    value, pair = na.welfare(PATH_EST)
    assert value == 0.25
    assert pair == (0, 2)


def test_welfare_equals_min_broadcast():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        c = rng.integers(0, 101, size=(n, n))
        c = np.minimum(c, c.T).astype(np.int32)
        np.fill_diagonal(c, 100)
        est = _est_from_counters(c, 100)
        value, pair = na.welfare(est)
        assert value == na.broadcast_all(est).min()
        assert (est.counters / est.R)[pair] == value


def test_welfare_pair_lexicographic_on_ties():
    # all off-diagonal entries equal: the smallest pair must win
    est = _est_from_counters([[9, 3, 3], [3, 9, 3], [3, 3, 9]], 9)
    _, pair = na.welfare(est)
    assert pair == (0, 1)


@pytest.mark.parametrize(
    "counters, R, broadcast, welfare",
    [
        # every counter R: the diagonal is a minimum too
        ([[7, 7, 7], [7, 7, 7], [7, 7, 7]], 7, [1.0, 1.0, 1.0], (1.0, (0, 1))),
        ([[4, 4], [4, 4]], 4, [1.0, 1.0], (1.0, (0, 1))),
        # one row all R, beside rows with a lower counter
        ([[5, 5, 4], [5, 5, 5], [4, 5, 5]], 5, [0.8, 1.0, 0.8], (0.8, (0, 2))),
        ([[10, 6, 3, 9], [6, 10, 3, 10], [3, 3, 10, 5], [9, 10, 5, 10]], 10,
         [0.3, 0.3, 0.3, 0.5], (0.3, (0, 2))),
    ],
)
def test_broadcast_and_welfare_read_the_diagonal_unmasked(counters, R, broadcast, welfare):
    """No counter exceeds the diagonal's R, so reading the counters as they
    are gives the values of masking the diagonal out, and leaves them as
    they were."""
    est = _est_from_counters(counters, R)
    before = est.counters.copy()
    assert na.broadcast_all(est).tolist() == broadcast
    assert na.welfare(est) == welfare
    assert np.array_equal(est.counters, before)


def test_broadcast_requires_two_nodes():
    est = _est_from_counters([[5]], 5)
    with pytest.raises(ValueError):
        na.broadcast_all(est)


def test_kite_advantage_from_exact_matrix():
    g = na.load_edge_list(b"0 1\n0 2\n1 2\n1 3\n2 3\n3 4\n")
    p = na.exact_access_oracle(g, 0.5)
    # all values are multiples of 1/64, so counters at R=64 are exact
    est = _est_from_counters(np.rint(p * 64).astype(int), 64)
    b = na.broadcast_all(est)
    assert np.allclose(b, [16 / 64, 21 / 64, 21 / 64, 32 / 64, 16 / 64])
    value, pair = na.welfare(est)
    assert value == 0.25 and pair == (0, 4)
    infl = na.influence_all(est)
    assert abs(infl[0] - (64 + 42 + 42 + 32 + 16) / (64 * 5)) < 1e-12


def test_broadcast_le_influence():
    g = na.load_edge_list(b"0 1\n1 2\n2 3\n0 3\n0 2\n")
    _, est = na.build_ensemble(g, 0.4, 600, 1)
    b = na.broadcast_all(est)
    infl = na.influence_all(est)
    assert np.all(b <= infl + 1e-12)
    assert np.all(infl <= 1.0 + 1e-12)


# --- access centrality ----------------------------------------------------


def test_triad_middle_controls_everything_exact():
    g = na.load_edge_list(b"0 1\n1 2\n")
    rep = na.access_centrality(g, 0.5, [1], exact=True)[0]
    assert rep.cent_star == 1.0
    assert rep.max_pair_control == 1.0
    assert rep.raw_sum == 1.0


def test_triad_leaf_controls_nothing_exact():
    g = na.load_edge_list(b"0 1\n1 2\n")
    rep = na.access_centrality(g, 0.5, [0], exact=True)[0]
    assert rep.cent_star == 0.0
    assert rep.raw_sum == 0.0


def test_leaf_control_is_zero_under_monte_carlo():
    # coupled coins: removing a leaf cannot change other pairs' samples
    g = na.load_edge_list(b"0 1\n1 2\n2 3\n")
    for c in (0, 3):
        rep = na.access_centrality(g, 0.5, [c], R=500, seed=3)[0]
        assert rep.cent_star == 0.0
        assert rep.raw_sum == 0.0


def test_triangle_node_control_exact():
    g = na.load_edge_list(b"0 1\n1 2\n0 2\n")
    rep = na.access_centrality(g, 0.5, [0], exact=True)[0]
    # (0.625 - 0.5) / 0.625
    assert abs(rep.cent_star - 0.2) < 1e-12
    assert abs(rep.max_pair_control - 0.2) < 1e-12


def test_star_center_controls_all_pairs():
    g = na.load_edge_list(b"0 1\n0 2\n0 3\n")
    rep = na.access_centrality(g, 0.5, [0], exact=True)[0]
    assert rep.cent_star == 1.0
    assert rep.raw_sum == 3.0  # C(3,2) fully severed pairs


def test_path_cut_node_control_monte_carlo_exact_fraction():
    # removing node 1 from 0-1-2-3 severs exactly the pairs through it;
    # severed pairs contribute 1 and the rest 0, so cent* is exact even MC
    g = na.load_edge_list(b"0 1\n1 2\n2 3\n")
    rep = na.access_centrality(g, 0.5, [1], R=800, seed=0)[0]
    assert abs(rep.cent_star - 2 / 3) < 1e-12
    assert rep.max_pair_control == 1.0


def test_control_bounds_and_determinism():
    g = na.load_edge_list(b"0 1\n1 2\n0 2\n2 3\n")
    a = na.access_centrality(g, 0.4, [2], R=600, seed=5)[0]
    b = na.access_centrality(g, 0.4, [2], R=600, seed=5)[0]
    assert (a.cent_star, a.max_pair_control, a.raw_sum) == (
        b.cent_star,
        b.max_pair_control,
        b.raw_sum,
    )
    assert 0.0 <= a.cent_star <= 1.0
    assert 0.0 <= a.max_pair_control <= 1.0
    assert a.raw_sum >= 0.0


def test_control_validates_node():
    with pytest.raises(ValueError, match="3 nodes"):
        na.access_centrality(na.load_edge_list(b"0 1\n"), 0.5, [0], R=10)
    g = na.load_edge_list(b"0 1\n1 2\n")
    with pytest.raises(ValueError, match="out of range"):
        na.access_centrality(g, 0.5, [1, 5], R=10)


def test_control_node_list_matches_single_node_calls():
    # the base estimate is shared; each report still equals a one-node run
    g = na.load_edge_list(b"0 1\n1 2\n0 2\n2 3\n3 4\n")
    nodes = [4, 2, 0, 2]
    reps = na.access_centrality(g, 0.4, nodes, R=600, seed=5)
    assert [r.node for r in reps] == nodes
    assert reps == [na.access_centrality(g, 0.4, [c], R=600, seed=5)[0] for c in nodes]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("alpha", [0.3, 0.8])
def test_control_groups_match_per_node_full_builds(alpha, workers):
    # a 40-ring, a hub on half of it and two pendant leaves: m = 62, so a
    # removal group's degrees total at most 3 and the list spans five groups
    edges = [(i, (i + 1) % 40) for i in range(40)] + [(40, i) for i in range(20)]
    edges += [(25, 41), (30, 42)]
    g = na.load_edge_list("".join(f"{u} {v}\n" for u, v in edges).encode())
    nodes = [41, 27, 40, 33, 42, 5, 25]  # degrees 1, 2, 20 (the maximum), 2, 1, 3, 3
    assert _removal_groups(g, nodes) == [[41, 27], [40], [33, 42], [5], [25]]
    R, seed = 600, 7
    reps = na.access_centrality(g, alpha, nodes, R=R, seed=seed, workers=workers)
    p = na.build_ensemble(g, alpha, R, seed)[1].counters / R
    for c, rep in zip(nodes, reps):
        p_removed = na.build_ensemble(g.without_node_edges(c), alpha, R, seed)[1].counters / R
        assert rep.node == c
        assert (rep.cent_star, rep.max_pair_control, rep.raw_sum) == ref_control_report(
            c, p, p_removed
        )


@pytest.mark.parametrize("mode", ["workers=1", "workers=3", "exact"])
def test_control_is_the_same_in_one_row_bands_and_one_band(monkeypatch, mode):
    """Each report clears c's column in every band and c's row in the band
    holding it, and in no band that starts after c. With a bound of 1 each
    band is one row (the last two rows share one), where an index c - lo
    would wrap to the band's only row; a bound of 7 cuts rows 5-6 and 7-9
    into bands, where a slice from c - lo would wrap for c = 5. Either way
    the reports equal one band's and the reference's, sampled and exact."""
    edges = [(i, (i + 1) % 9) for i in range(9)] + [(0, 4), (2, 6), (3, 8), (5, 9)]
    g = na.load_edge_list("".join(f"{u} {v}\n" for u, v in edges).encode())
    nodes = [0, g.n // 2, g.n - 1]
    alpha, R, seed = 0.5, 300, 2
    if mode == "exact":
        kwargs = {"exact": True}

        def access(graph):
            return na.exact_access_oracle(graph, alpha)
    else:
        kwargs = {"R": R, "seed": seed, "workers": int(mode[-1])}

        def access(graph):
            return na.build_ensemble(graph, alpha, R, seed)[1].counters / R
    monkeypatch.setattr(sampler, "_BAND_WORK", 2**62)
    whole = na.access_centrality(g, alpha, nodes, **kwargs)
    for bound in (1, 7):
        monkeypatch.setattr(sampler, "_BAND_WORK", bound)
        assert na.access_centrality(g, alpha, nodes, **kwargs) == whole
    p = access(g)
    for c, rep in zip(nodes, whole):
        assert (rep.cent_star, rep.max_pair_control, rep.raw_sum) == ref_control_report(
            c, p, access(g.without_node_edges(c))
        )


# --- csv export -----------------------------------------------------------


def test_advantage_csv_without_control(tmp_path):
    g = na.load_edge_list(b"4 8\n8 12\n")
    _, est = na.build_ensemble(g, 0.5, 100, 0)
    out = tmp_path / "adv.csv"
    na.write_advantage_csv(na.advantage_report(est), g.orig_ids, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "node,broadcast,influence"
    assert len(lines) == 4
    assert lines[1].startswith("4,")

