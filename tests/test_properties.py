import os
import tempfile
from dataclasses import replace
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (
    GOLDEN,
    MASK64,
    ref_coin_live,
    ref_label_rows,
    ref_live_rows,
    ref_mix64,
    ref_center_walk,
    ref_control_report,
    ref_pair_counts,
    ref_pieces,
    ref_sample_pairs,
    ref_unmix64,
    ref_write_access_csv,
    UnionFind,
)
from scipy.sparse.csgraph import shortest_path

import netaccess as na
from netaccess import AccessEstimate
from netaccess.graphs import add_edge_distances, argmax_pair, distance_matrix
from netaccess import _bands, sampler
from netaccess.evaluation import _sample_pairs
from netaccess.heuristics import resolve_collision
from netaccess.sampler import _edge_hashes, _label_rows, _live_rows, triu_bands

settings.register_profile("suite", deadline=None, max_examples=30)
settings.load_profile("suite")


@st.composite
def edge_graphs(draw, n_max=6, connected=False):
    """A Graph built from random edges; node count comes from the ids used."""
    n = draw(st.integers(2, n_max))
    if connected:
        edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges |= draw(st.sets(st.sampled_from(pairs), max_size=4))
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=10))
    lines = "".join(f"{u} {v}\n" for u, v in sorted(edges)).encode()
    return na.load_edge_list(lines)


@st.composite
def estimates(draw, n_max=6):
    """A synthetic symmetric counter matrix, not tied to any sampling run."""
    n = draw(st.integers(2, n_max))
    R = draw(st.integers(1, 50))
    flat = draw(
        st.lists(st.integers(0, R), min_size=n * n, max_size=n * n)
    )
    c = np.array(flat, dtype=np.int32).reshape(n, n)
    c = np.minimum(c, c.T)
    np.fill_diagonal(c, R)
    return AccessEstimate(n=n, R=R, counters=c)


alphas = st.floats(0.05, 0.95, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**20)


@given(edge_graphs(), alphas, seeds)
def test_build_matches_reference_union_find(g, alpha, seed):
    R = 64
    _, est = na.build_ensemble(g, alpha, R, seed)
    live = _live_rows(_edge_hashes(seed, g.eu, g.ev), 0, R, alpha)
    expect = ref_pair_counts(g.n, list(zip(g.eu.tolist(), g.ev.tolist())), live)
    assert np.array_equal(est.counters, expect)


@given(edge_graphs(), alphas, seeds)
def test_counters_are_valid(g, alpha, seed):
    _, est = na.build_ensemble(g, alpha, 32, seed)
    c = est.counters
    assert np.array_equal(c, c.T)
    assert np.all(np.diag(c) == 32)
    assert c.min() >= 0 and c.max() <= 32


def _assert_welfare_pair_ties(est):
    """The minimum pair (u, v) has u < v, and each endpoint's broadcast, its
    row minimum, is the pair's access: the two tie, so bc-one's choice of
    the lower id picks a worst-off endpoint."""
    value, (u, v) = na.welfare(est)
    b = na.broadcast_all(est)
    assert u < v
    assert b[u] == b[v] == value


@given(edge_graphs(), alphas, seeds)
def test_welfare_is_min_broadcast_is_min_pair(g, alpha, seed):
    _, est = na.build_ensemble(g, alpha, 32, seed)
    value, pair = na.welfare(est)
    assert value == na.broadcast_all(est).min()
    off = (est.counters / est.R)[~np.eye(g.n, dtype=bool)]
    assert value == off.min()
    assert (est.counters / est.R)[pair] == value
    _assert_welfare_pair_ties(est)


@given(estimates())
def test_welfare_pair_endpoints_tie_on_symmetric_counters(est):
    _assert_welfare_pair_ties(est)


@pytest.mark.parametrize("alpha", [0.1, 0.4, 0.8])
def test_welfare_pair_endpoints_tie_on_benchmark_builds(bench_graph, alpha):
    _assert_welfare_pair_ties(na.build_ensemble(bench_graph, alpha, 256, 0)[1])


@given(edge_graphs(n_max=8), st.sampled_from(["bc-one", "bc-both", "infl", "diam-both"]),
       st.booleans(), st.data())
def test_center_collision_equals_per_candidate_walk(g, kind, saturate, data):
    """The one-call adjacency test takes the walk's first legal node; with u
    joined to every other node there is none, and both give None."""
    u = data.draw(st.integers(0, g.n - 1))
    if saturate:
        g = g.with_edges([(u, w) for w in range(g.n) if w != u and not g.has_edge(u, w)])
    order = np.array(data.draw(st.permutations(range(g.n))))
    edges = list(zip(g.eu.tolist(), g.ev.tolist()))
    expect = ref_center_walk(edges, u, order.tolist())
    assert resolve_collision(kind, (u, int(order[0])), g, order, None) == expect
    if saturate:
        assert expect is None


@example(2, 5, 0)
@example(2**33, 1000, 2**63)
@example(1133, 1000, 3)
@given(st.integers(2, 2**33), st.integers(1, 300), st.integers(0, 2**64 - 1))
def test_sample_pairs_equal_scalar_draws(n, count, seed):
    """One vectorised draw gives the pairs of 2 * count scalar draws."""
    iu, ju = _sample_pairs(n, count, seed)
    ref_iu, ref_ju = ref_sample_pairs(n, count, seed)
    assert iu.tolist() == ref_iu.tolist() and ju.tolist() == ref_ju.tolist()
    assert iu.dtype == ju.dtype == np.int64


@given(estimates())
def test_broadcast_below_influence(est):
    b = na.broadcast_all(est)
    infl = na.influence_all(est)
    assert np.all(b <= infl + 1e-12)
    assert np.all(infl <= 1.0 + 1e-12)
    assert np.all(b >= 0.0)


@given(edge_graphs(), alphas, seeds, st.data())
def test_incremental_equals_rebuild(g, alpha, seed, data):
    """Inserting absent edges one at a time grows the ensemble's graph to
    g.with_edges of them, and equals a fresh build on that graph: the same
    counters and the same label partition."""
    absent = [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if not g.has_edge(i, j)
    ]
    assume(absent)
    adds = data.draw(st.lists(st.sampled_from(absent), min_size=1, unique=True))
    adds = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in adds]
    ens, est = na.build_ensemble(g, alpha, 64, seed)
    for e in adds:
        before = est.counters.copy()
        na.add_edge_incremental(ens, est, e)
        # coupling makes growth exact, never negative
        assert np.all(est.counters >= before)
    grown = g.with_edges(adds)
    assert np.array_equal(ens.graph.eu, grown.eu) and np.array_equal(ens.graph.ev, grown.ev)
    rebuilt_ens, rebuilt = na.build_ensemble(ens.graph, alpha, 64, seed)
    assert np.array_equal(est.counters, rebuilt.counters)
    assert _same_partition(ens.labels, rebuilt_ens.labels)


@given(edge_graphs(), alphas, alphas, seeds)
def test_nested_alpha_counters_and_welfare_grow(g, a1, a2, seed):
    # the coin draw does not depend on alpha, so live(a1) is a subset of
    # live(a2) in every sample when a1 < a2
    assume(a1 != a2)
    a1, a2 = sorted((a1, a2))
    _, lo = na.build_ensemble(g, a1, 64, seed)
    _, hi = na.build_ensemble(g, a2, 64, seed)
    assert np.all(lo.counters <= hi.counters)
    assert na.welfare(lo)[0] <= na.welfare(hi)[0]


@given(edge_graphs(connected=True, n_max=5), st.sampled_from([0.25, 0.5, 0.75]))
def test_oracle_permutation_invariant(g, alpha):
    assume(g.m <= 8)
    p = na.exact_access_oracle(g, alpha)
    perm = np.roll(np.arange(g.n), 1)
    lines = "".join(
        f"{perm[u]} {perm[v]}\n" for u, v in zip(g.eu.tolist(), g.ev.tolist())
    ).encode()
    gp = na.load_edge_list(lines)
    pp = na.exact_access_oracle(gp, alpha)
    # relabeling nodes must relabel the matrix the same way
    assert np.allclose(pp[np.ix_(perm, perm)], p, atol=1e-12)


@given(edge_graphs(connected=True, n_max=5), st.sampled_from([0.3, 0.5, 0.8]))
def test_access_at_least_best_single_path(g, alpha):
    assume(g.m <= 8)
    p = na.exact_access_oracle(g, alpha)
    d = shortest_path(g.adjacency(), directed=False, unweighted=True)
    for i in range(g.n):
        for j in range(g.n):
            if i != j:
                assert p[i, j] >= alpha ** d[i, j] - 1e-9


@given(estimates())
def test_l1_at_least_l2(est):
    _, _, v1 = na.signature_distances(est, metric="L1")
    _, _, v2 = na.signature_distances(est, metric="L2")
    assert v1 >= v2 - 1e-12


@given(
    edge_graphs(n_max=9, connected=True),
    alphas,
    seeds,
    st.sampled_from([64, 100]),
    st.sampled_from(["L1", "L2"]),
    st.sampled_from(["cover", "fallback"]),
    st.data(),
)
def test_incremental_signature_distances_equal_full_recompute(
    g, alpha, seed, R, metric, regime, data
):
    """Along a run of insertions, distances kept in a cache equal a full
    recompute from the counters bit for bit, whether each update goes
    through the cover of the changed counters or falls back to all pairs."""
    from scipy.spatial.distance import pdist

    from netaccess import evaluation

    absent = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if not g.has_edge(i, j)]
    picks = data.draw(st.lists(st.sampled_from(absent), unique=True, max_size=4)) if absent else []
    ens, est = na.build_ensemble(g, alpha, R, seed)
    cache = evaluation.SignatureCache()
    share = 1.0 if regime == "cover" else 0.0
    scipy_metric = "cityblock" if metric == "L1" else "sqeuclidean"
    # a band of cdist rows holds a node or two, so updates cross bands
    with mock.patch.object(evaluation, "_UPDATE_SHARE", share), \
            mock.patch.object(_bands, "CELLS", 2 * g.n):
        for e in [None] + picks:
            if e is not None:
                na.add_edge_incremental(ens, est, e)
            cached = na.signature_distances(est, metric=metric, cache=cache)
            assert np.array_equal(cache.d, pdist(est.counters.astype(np.float64), scipy_metric))
            assert np.array_equal(cache.counters, est.counters)
            assert cached == na.signature_distances(est, metric=metric)


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=200))
def test_distribution_summary_ordered(values):
    s = na.distribution_summary(np.array(values))
    seq = [s.minimum, s.p1, s.p5, s.p25, s.p50, s.p75, s.p95, s.p99, s.maximum]
    assert seq == sorted(seq)
    assert s.count == len(values)


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=50))
def test_gap_report_consistent(values):
    arr = np.array(values)
    rep = na.gap_report(arr, "g")
    assert abs(rep.absolute - (arr.max() - arr.min())) < 1e-12
    assert rep.absolute >= 0
    assert arr[rep.argmin] == arr.min() and arr[rep.argmax] == arr.max()


# --- graph layer against networkx ------------------------------------------


@st.composite
def edge_lines(draw):
    """Edge-list lines over a few sparse ids up to 2**63 - 1, so duplicate,
    reversed-duplicate and self-loop lines (some on otherwise isolated ids)
    all occur."""
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=7, unique=True))
    pick = st.sampled_from(ids)
    return draw(st.lists(st.tuples(pick, pick), min_size=1, max_size=14))


def _text(lines) -> bytes:
    return "".join(f"{a} {b}\n" for a, b in lines).encode()


def _nx_graph(lines) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(x for line in lines for x in line)
    G.add_edges_from((a, b) for a, b in lines if a != b)
    return G


def _edges(G: nx.Graph) -> set:
    return {tuple(sorted(e)) for e in G.edges}


def _dense_edges(g) -> set:
    return set(zip(g.eu.tolist(), g.ev.tolist()))


def _orig_edges(g) -> set:
    o = g.orig_ids.tolist()
    return {(o[u], o[v]) for u, v in zip(g.eu.tolist(), g.ev.tolist())}


def _assert_canonical(g):
    assert np.all(np.diff(g.orig_ids) > 0)
    assert np.all(g.eu < g.ev)
    assert np.all(np.diff(g.eu * g.n + g.ev) > 0)


# a size tie needs two largest components; 300 examples reliably include one
@settings(max_examples=300)
@given(edge_lines())
def test_load_and_lcc_match_networkx(lines):
    g = na.load_edge_list(_text(lines))
    G = _nx_graph(lines)
    _assert_canonical(g)
    assert g.orig_ids.tolist() == sorted(G)
    assert _orig_edges(g) == _edges(G)
    assert g.ingest.self_loops == sum(a == b for a, b in lines)
    assert g.ingest.duplicates == sum(a != b for a, b in lines) - G.number_of_edges()

    sub = na.largest_connected_component(g)
    _assert_canonical(sub)
    # size ties go to the component holding the smallest original id
    best = min(nx.connected_components(G), key=lambda comp: (-len(comp), min(comp)))
    assert sub.orig_ids.tolist() == sorted(best)
    assert _orig_edges(sub) == _edges(G.subgraph(best))
    assert sub.ingest == g.ingest


@given(edge_lines())
def test_written_edge_lines_ascend(lines):
    """Each written line is an edge a < b in original ids, in lexicographic
    order: ascending ``orig_ids`` keep the canonical eu < ev."""
    g = na.load_edge_list(_text(lines))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.edges")
        na.write_edge_list(g, path)
        with open(path, encoding="utf-8") as fh:
            written = [tuple(map(int, line.split())) for line in fh]
    assert all(a < b for a, b in written)
    assert written == sorted(_edges(_nx_graph(lines)))


@given(edge_lines(), st.data())
def test_with_edges_equals_reload_with_added_lines(lines, data):
    g = na.load_edge_list(_text(lines))
    absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    assume(absent)
    new = data.draw(st.lists(st.sampled_from(absent), min_size=1, unique=True))
    new = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in new]
    o = g.orig_ids.tolist()
    g2 = g.with_edges(new)
    reloaded = na.load_edge_list(_text(lines + [(o[u], o[v]) for u, v in new]))
    _assert_canonical(g2)
    assert (g2.n, g2.ingest) == (reloaded.n, reloaded.ingest)
    for name in ("eu", "ev", "orig_ids"):
        assert np.array_equal(getattr(g2, name), getattr(reloaded, name))


@settings(max_examples=200)
@given(edge_lines(), st.data())
def test_membership_and_insertion_match_a_set_model(lines, data):
    """has_edge, has_edges and with_edges agree with a Python set of the
    graph's dense pairs. A batch is raised on at its first illegal edge, in
    the batch's order: out of range, then self-loop, then already present
    (in the graph or earlier in the batch); a legal batch gives the set's
    union in canonical order over the same nodes."""
    g = na.load_edge_list(_text(lines))
    model = _dense_edges(g)
    ids = st.integers(-2, g.n + 1)
    queries = data.draw(st.lists(st.tuples(ids, ids), max_size=12))
    expect = [(min(u, v), max(u, v)) in model for u, v in queries]
    assert [g.has_edge(u, v) for u, v in queries] == expect
    a, b = np.array(queries, dtype=np.int64).reshape(-1, 2).T
    assert g.has_edges(a, b).tolist() == expect

    absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in model]
    batch = data.draw(st.lists(st.sampled_from(absent), unique=True)) if absent else []
    batch = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in batch]
    if data.draw(st.booleans()):
        # any pair at any position: out of range, a self-loop, present or new
        at = data.draw(st.integers(0, len(batch)))
        batch.insert(at, data.draw(st.tuples(ids, ids)))
    error, seen = None, set()
    for u, v in batch:
        u, v = min(u, v), max(u, v)
        if u < 0 or v >= g.n:
            error = f"edge ({u},{v}) out of range for {g.n} nodes"
        elif u == v:
            error = f"self-loop ({u},{v})"
        elif (u, v) in model | seen:
            error = f"edge ({u},{v}) already present"
        if error is not None:
            break
        seen.add((u, v))
    if error is not None:
        with pytest.raises(ValueError) as exc:
            g.with_edges(batch)
        assert str(exc.value) == error
        return
    h = g.with_edges(batch)
    _assert_canonical(h)
    assert _dense_edges(h) == model | seen
    assert (h.n, h.ingest) == (g.n, g.ingest) and np.array_equal(h.orig_ids, g.orig_ids)
    assert [h.has_edge(u, v) for u, v in batch] == [True] * len(batch)


@given(edge_lines(), st.data())
def test_without_node_edges_matches_networkx(lines, data):
    g = na.load_edge_list(_text(lines))
    c = data.draw(st.integers(0, g.n - 1))
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(_dense_edges(g))
    G.remove_edges_from(list(G.edges(c)))
    h = g.without_node_edges(c)
    _assert_canonical(h)
    assert h.n == g.n and np.array_equal(h.orig_ids, g.orig_ids)
    assert _dense_edges(h) == _edges(G)


@given(edge_lines(), st.data())
def test_distance_update_equals_recomputation(lines, data):
    # starts include disconnected graphs and isolated (self-loop-only) nodes
    g = na.load_edge_list(_text(lines))
    absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    assume(absent)
    new = data.draw(st.lists(st.sampled_from(absent), min_size=1, unique=True))
    dist = distance_matrix(g)
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(_dense_edges(g))
    hops = dict(nx.all_pairs_shortest_path_length(G))
    assert dist.tolist() == [[hops[i].get(j, g.n) for j in range(g.n)] for i in range(g.n)]
    for t, (u, v) in enumerate(new):
        if data.draw(st.booleans()):
            u, v = v, u
        add_edge_distances(dist, u, v)
        h = g.with_edges(new[: t + 1])
        assert np.array_equal(dist, distance_matrix(h))
        far = dist.max()
        assert argmax_pair(dist) == min(
            (i, j) for i in range(h.n) for j in range(h.n) if dist[i, j] == far
        )


# values whose formatting a table keyed on float values rather than bit
# patterns would get wrong (-0.0 vs 0.0), or that sit on a 6-decimal tie
_FORMAT_EDGES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, 1.5, 2.0, 1e300,
                 5e-7, 0.1234565, 0.9999995, -5e-7, 1 / 3]


@st.composite
def access_matrices(draw):
    """(p, orig_ids): a random, generally non-symmetric n x n matrix of
    float64, float32 or int32 entries, possibly non-contiguous, with
    distinct ids."""
    n = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int32]))
    if dtype is np.int32:
        elems = st.integers(-(2**31), 2**31 - 1)
    else:
        width = 32 if dtype is np.float32 else 64
        elems = st.sampled_from(_FORMAT_EDGES) | st.floats(width=width)
    values = draw(st.lists(elems, min_size=n * n, max_size=n * n))
    with np.errstate(over="ignore"):  # 1e300 becomes inf in float32
        p = np.array(values, dtype=dtype).reshape(n, n)
    if draw(st.booleans()):
        p = p.T
    ids = draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n, unique=True))
    return p, np.array(ids, dtype=np.int64)


def _upper_triangle(values, n):
    """n x n ones with the strict upper triangle, row-major, set to values."""
    p = np.ones((n, n))
    p[np.triu_indices(n, k=1)] = values
    return p


# inputs that cross the writer's row bands and its runs of equal id width;
# ids 0..199 have runs of 10, 90 and 100 rows, shuffled ids change width at
# almost every column
_rng = np.random.default_rng(22)
_IDS_200 = np.arange(200)
_IDS_200_SHUFFLED = _rng.permutation(200)
_COUNTERS_200 = _rng.integers(0, 1025, (200, 200)).astype(np.int32)
_COUNTERS_70 = _rng.integers(0, 70 * 70 + 1, (70, 70)).astype(np.int32)


def _mixed_width_matrix():
    """150 x 150 floats in [0, 1) with nan, +-inf, -0.0 and 1e300 above the
    diagonal in rows of each 64-row band: 0..9, 10..73, 74..99, 100..148."""
    p = _rng.random((150, 150))
    for row in (3, 40, 80, 120):
        p[row, [row + 1, 99, 100, 149]] = [np.nan, np.inf, -np.inf, 1e300]
        p[row, row + 2] = -0.0
    return p


def _access_csv_bytes(write, p, orig_ids) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "access.csv")
        write(p, orig_ids, path)
        with open(path, "rb") as fh:
            return fh.read()


def _banded_csv_bytes(values, orig_ids) -> list[bytes]:
    """write_access_csv's bytes at the default bound, at 64-row bands (a
    cell counts four elements) and at one-row bands."""
    out = []
    for cells in (_bands.CELLS, 256 * len(orig_ids), 1):
        with mock.patch.object(_bands, "CELLS", cells):
            out.append(_access_csv_bytes(na.write_access_csv, values, orig_ids))
    return out


@settings(max_examples=200)
@given(access_matrices())
@example((np.ones((1, 1)), np.array([5])))
@example((np.array([[1.0, -0.0], [0.0, 1.0]]), np.array([3, 1])))
@example((np.array([[1.0, 0.0], [-0.0, 1.0]]), np.array([0, 1])))
@example((np.array([[1, -7], [2**31 - 1, 0]], dtype=np.int32), np.array([4, 2])))
@example((np.array([[0.1234565, 0.9999995], [5e-7, -0.0]], dtype=np.float32), np.array([8, 9])))
@example((_upper_triangle(_FORMAT_EDGES, 6), np.arange(10, 16)))
@example((_COUNTERS_200 / 1024, _IDS_200))
@example((_COUNTERS_200 / 1024, _IDS_200_SHUFFLED))
@example((_mixed_width_matrix(), np.arange(150)))
def test_access_csv_matches_reference_writer(case):
    p, orig_ids = case
    want = _access_csv_bytes(ref_write_access_csv, p, orig_ids)
    assert _banded_csv_bytes(p, orig_ids) == [want] * 3
    assert want.count(b"\n") == 1 + len(orig_ids) * (len(orig_ids) - 1) // 2


@st.composite
def access_estimates(draw):
    """(est, orig_ids): counters in [0, R] with diagonal R, generally not
    symmetric, R from 1 to 2**31 - 1 (both sides of R = n * n), and distinct
    ids of mixed digit widths."""
    n = draw(st.integers(1, 8))
    R = draw(st.integers(1, 70) | st.integers(1, 2**31 - 1))
    values = draw(st.lists(st.integers(0, R), min_size=n * n, max_size=n * n))
    c = np.array(values, dtype=np.int32).reshape(n, n)
    np.fill_diagonal(c, R)
    id_widths = st.integers(0, 9) | st.integers(0, 99_999) | st.integers(0, 2**32 - 1)
    ids = draw(st.lists(id_widths, min_size=n, max_size=n, unique=True))
    return AccessEstimate(n=n, R=R, counters=c), np.array(ids, dtype=np.int64)


def _estimate_case(counters, R, ids):
    c = np.array(counters, dtype=np.int32)
    return AccessEstimate(n=len(c), R=R, counters=c), np.array(ids, dtype=np.int64)


@settings(max_examples=200)
@given(access_estimates())
@example(_estimate_case([[1]], 1, [7]))
@example(_estimate_case([[3, 0, 1], [3, 3, 2], [0, 0, 3]], 3, [0, 10, 2**32 - 1]))
@example(_estimate_case([[2**31 - 1, 0], [1, 2**31 - 1]], 2**31 - 1, [5, 123456]))
@example(_estimate_case([[8, 1, 7], [1, 8, 4], [7, 4, 8]], 8, [9, 10, 100]))
@example(_estimate_case(_COUNTERS_200, 1024, _IDS_200))
@example(_estimate_case(_COUNTERS_200, 1024, _IDS_200_SHUFFLED))
@example(_estimate_case(_COUNTERS_70, 70 * 70, np.arange(70) * 37))
def test_access_csv_from_estimate_matches_reference_writer(case):
    """An estimate's counters, looked up in the c/R table or, for R of at
    least n * n, in p's bit patterns, give the bytes of formatting p."""
    est, orig_ids = case
    want = _access_csv_bytes(ref_write_access_csv, est.counters / est.R, orig_ids)
    assert _banded_csv_bytes(est, orig_ids) == [want] * 3


# --- coins, labelling and shared control coins ------------------------------

coin_alphas = st.one_of(
    st.sampled_from([5e-324, 2.0**-53, 0.5, float(np.nextafter(1.0, 0.0))]),
    st.integers(1, 2**53 - 1).map(lambda k: k * 2.0**-53),  # alpha * 2**53 integral
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=200)
@given(coin_alphas, st.integers(0, 2**40), st.integers(1, 3), st.data())
def test_live_rows_equal_float_coin_rule(alpha, r_lo, b, data):
    """The integer threshold gives the float rule's coin on random hashes and
    on hashes whose row-r_lo draw sits at the threshold's edges."""
    # the smallest mixed hash whose float draw is not below alpha
    threshold = next(k for k in (int(alpha * 2**53), int(alpha * 2**53) + 1)
                     if k * 2.0**-53 >= alpha) << 11
    near = st.sampled_from([-2049, -2048, -1, 0, 1, 2047, 2048]).map(
        lambda d: min(max(threshold + d, 0), MASK64))
    mixed = data.draw(st.lists(near | st.integers(0, MASK64), max_size=6))
    hashes = [(ref_unmix64(h) - (r_lo + 1) * GOLDEN) & MASK64 for h in mixed]
    hashes += data.draw(st.lists(st.integers(0, MASK64), max_size=3))
    live = _live_rows(np.array(hashes, dtype=np.uint64), r_lo, r_lo + b, alpha)
    assert live.shape == (b, len(hashes))
    assert np.array_equal(live, ref_live_rows(hashes, r_lo, r_lo + b, alpha))
    assert live[0, : len(mixed)].tolist() == [ref_coin_live(h, alpha) for h in mixed]
    assert [ref_mix64(ref_unmix64(h)) for h in mixed] == mixed


@st.composite
def live_matrices(draw):
    """(n, eu, ev, live): canonical sorted edges over n nodes, some of them
    isolated, and a (b, m) live matrix in which some rows are all dead."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=10))) if pairs else []
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    b = draw(st.integers(1, 5))
    rows = [[False] * len(edges) if draw(st.booleans())
            else draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
            for _ in range(b)]
    return n, eu, ev, np.array(rows, dtype=bool).reshape(b, len(edges))


_NO_EDGES = np.zeros(0, dtype=np.int64)


@settings(max_examples=200)
@given(live_matrices())
@example((1, _NO_EDGES, _NO_EDGES, np.zeros((1, 0), dtype=bool)))
@example((4, _NO_EDGES, _NO_EDGES, np.zeros((3, 0), dtype=bool)))
@example((3, np.array([0, 1]), np.array([1, 2]), np.zeros((2, 2), dtype=bool)))
@example((5, np.array([0, 0, 3]), np.array([1, 2, 4]), np.ones((1, 3), dtype=bool)))
def test_label_rows_equal_coo_reference(case):
    """The CSR assembled from sorted sources labels exactly like scipy's COO path."""
    n, eu, ev, live = case
    n_comp, labels = _label_rows(n, eu, ev, live)
    ref_comp, ref_labels = ref_label_rows(n, eu, ev, live)
    assert n_comp == ref_comp
    assert np.array_equal(labels, ref_labels)


@given(edge_graphs(n_max=7), st.sampled_from(["leaf", "hub", "any"]), alphas, seeds,
       st.sampled_from([64, 600]), st.integers(1, 3), st.data())
def test_removal_on_recorded_coins_equals_fresh_build(g, kind, alpha, seed, R, workers, data):
    """A removal view labelled on a shared sub-ensemble, the graph without
    the edges of c and of other group nodes, draws only the coins of its
    edges outside the sub and equals a fresh build of the removal graph;
    so does the base build on the same sub. Control reports equal those of
    fresh removal builds."""
    deg = np.bincount(np.concatenate([g.eu, g.ev]), minlength=g.n)
    if kind == "leaf":
        assume((deg == 1).any())
        c = int(data.draw(st.sampled_from(np.flatnonzero(deg == 1).tolist())))
    elif kind == "hub":
        c = int(np.argmax(deg))
    else:
        c = data.draw(st.integers(0, g.n - 1))
    group = [c] + data.draw(st.lists(st.integers(0, g.n - 1), max_size=2))
    sub = na.build_ensemble(
        g.without_node_edges(*group), alpha, R, seed, workers=workers, count=False
    )[0]
    base_ens, base = na.build_ensemble(g, alpha, R, seed, workers=workers, below=sub)
    ens, est = na.build_ensemble(g, alpha, R, seed)
    assert np.array_equal(base.counters, est.counters)
    assert np.array_equal(base_ens.labels, ens.labels)
    h = g.without_node_edges(c)
    view_ens, view = na.build_ensemble(h, alpha, R, seed, workers=workers, below=sub)
    fresh_ens, fresh = na.build_ensemble(h, alpha, R, seed)
    assert np.array_equal(view.counters, fresh.counters)
    assert np.array_equal(view_ens.labels, fresh_ens.labels)
    if g.n >= 3:
        rep = na.access_centrality(g, alpha, [c], R=R, seed=seed, workers=workers)[0]
        assert (rep.cent_star, rep.max_pair_control, rep.raw_sum) == ref_control_report(
            c, est.counters / est.R, fresh.counters / fresh.R
        )


# --- nested alpha: labelling on a lower alpha's components -----------------

def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two (R, n) label matrices group every row's nodes alike."""
    return all(np.array_equal(x[:, None] == x[None, :], y[:, None] == y[None, :])
               for x, y in zip(a, b))


@given(edge_graphs(n_max=7), st.sampled_from(["same", "subgraph", "augmented"]),
       st.lists(alphas, min_size=3, max_size=3), seeds, st.sampled_from([64, 600]),
       st.integers(1, 3), st.data())
def test_build_below_equals_fresh_build(g, start, sweep, seed, R, workers, data):
    """Each step of an ascending sweep labelled on the previous step's ensemble
    equals a fresh build: the same counters and the same label partition,
    label for label unless add_edge_incremental relabelled the start. The
    start ensemble is one of g, of a subgraph of g, or of a subgraph that
    add_edge_incremental has grown by the edges of g it lacked."""
    a1, a2, a3 = sorted(sweep)
    keep = np.ones(g.m, dtype=bool)
    if start != "same":
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)), dtype=bool)
    h = replace(g, eu=g.eu[keep], ev=g.ev[keep])
    below, est = na.build_ensemble(h, a1, R, seed, workers=workers)
    if start == "augmented":
        for e in zip(g.eu[~keep].tolist(), g.ev[~keep].tolist()):
            na.add_edge_incremental(below, est, e)
    for alpha in (a2, a3):
        below, est = na.build_ensemble(g, alpha, R, seed, workers=workers, below=below)
        fresh_ens, fresh = na.build_ensemble(g, alpha, R, seed)
        assert np.array_equal(est.counters, fresh.counters)
        if start == "augmented":
            assert _same_partition(below.labels, fresh_ens.labels)
        else:
            assert np.array_equal(below.labels, fresh_ens.labels)


# edge_graphs(n_max=7, connected=True) draws at most 6 tree and 4 extra edges
_EDGE_BITS = st.lists(st.booleans(), min_size=10, max_size=10)
_CHORDED_C4 = na.load_edge_list(b"0 1\n1 2\n2 3\n0 3\n0 2\n")


@given(edge_graphs(n_max=7, connected=True), st.sampled_from(["fragmented", "giant"]),
       st.floats(0.0, 1.0), _EDGE_BITS, _EDGE_BITS, seeds, st.sampled_from([64, 600]),
       st.integers(1, 3))
# h equal to the sub: no edge lies outside it, and each block's live matrix
# has zero columns
@example(_CHORDED_C4, "giant", 0.5, [True] * 10, [True] * 10, 7, 600, 2)
# a sub without edges: every edge of h is outside it
@example(_CHORDED_C4, "giant", 0.5, [True] * 10, [False] * 10, 7, 600, 2)
def test_build_below_at_equal_alpha_equals_fresh_build(g, regime, t, h_bits, sub_bits, seed,
                                                       R, workers):
    """A build of h on a sub-ensemble of a subgraph of h at the same alpha,
    which draws and labels only h's edges outside the sub, equals a fresh
    build of h: the same counters and the same labels. The sub is built
    without counting its pairs."""
    lo, hi = (0.05, 0.25) if regime == "fragmented" else (0.75, 0.95)
    alpha = lo + t * (hi - lo)
    in_h = np.array(h_bits[: g.m], dtype=bool)
    in_sub = in_h & np.array(sub_bits[: g.m], dtype=bool)
    h = replace(g, eu=g.eu[in_h], ev=g.ev[in_h])
    sub_graph = replace(g, eu=g.eu[in_sub], ev=g.ev[in_sub])
    sub, sub_est = na.build_ensemble(sub_graph, alpha, R, seed, workers=workers, count=False)
    assert sub_est.counters.shape == (0, 0)
    assert np.array_equal(sub.labels, na.build_ensemble(sub_graph, alpha, R, seed)[0].labels)
    ens, est = na.build_ensemble(h, alpha, R, seed, workers=workers, below=sub)
    fresh_ens, fresh = na.build_ensemble(h, alpha, R, seed)
    assert np.array_equal(est.counters, fresh.counters)
    assert np.array_equal(ens.labels, fresh_ens.labels)


def _union_find_labels(g, live: np.ndarray) -> np.ndarray:
    """(R, n) union-find roots of each sample's live edges."""
    roots = []
    for row in live:
        uf = UnionFind(g.n)
        for u, v in zip(g.eu[row].tolist(), g.ev[row].tolist()):
            uf.union(u, v)
        roots.append([uf.find(i) for i in range(g.n)])
    return np.array(roots).reshape(len(live), g.n)


_PATH5 = na.load_edge_list(b"0 1\n1 2\n2 3\n3 4\n")


@given(edge_graphs(n_max=7), st.sampled_from(["fragmented", "giant"]), st.floats(0.0, 1.0),
       _EDGE_BITS, st.sampled_from(["fresh", "relabelled"]), seeds, st.sampled_from([64, 600]),
       st.integers(1, 3), st.sampled_from([1, 12, 40, 2**62]))
# an edgeless graph: every row has no live edge
@example(_PATH5, "giant", 0.5, [False] * 10, "fresh", 3, 600, 2, 12)
@example(_PATH5, "fragmented", 0.0, [True] * 10, "relabelled", 3, 600, 2, 1)
def test_block_kernel_equals_union_find(g, regime, t, bits, start, seed, R, workers, bound):
    """Every build's counters equal a union-find recount of its samples and
    its labels group every row's nodes like the union-find, with coins drawn
    in chunks, blocks labelled in pieces and counted in bands, each of at
    most ``bound`` (``_bands.CELLS``). A fresh build's counts of giant rows
    equal the union-find's.
    The relabelled start is an ensemble of a subgraph at a lower alpha that
    add_edge_incremental has grown to g, so its rows leave ids unused."""
    lo, hi = (0.05, 0.25) if regime == "fragmented" else (0.75, 0.95)
    alpha = lo + t * (hi - lo)
    keep = np.array(bits[: g.m], dtype=bool)
    g = replace(g, eu=g.eu[keep], ev=g.ev[keep])
    live = _live_rows(_edge_hashes(seed, g.eu, g.ev), 0, R, alpha)
    roots = _union_find_labels(g, live)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_bands, "CELLS", bound)
        below = None
        if start == "relabelled":
            below, below_est = na.build_ensemble(
                replace(g, eu=g.eu[::2], ev=g.ev[::2]), alpha / 2, R, seed, workers=workers
            )
            for e in zip(g.eu[1::2].tolist(), g.ev[1::2].tolist()):
                na.add_edge_incremental(below, below_est, e)
        ens, est = na.build_ensemble(g, alpha, R, seed, workers=workers, below=below)
        assert np.array_equal(est.counters, ref_pair_counts(g.n, list(zip(g.eu, g.ev)), live))
        assert _same_partition(ens.labels, roots)
        if start == "fresh":
            sq = [np.bincount(row) @ np.bincount(row) for row in roots]
            giant_rows = sum(
                sampler._accumulate_block(g.n, g.eu, g.ev, _edge_hashes(seed, g.eu, g.ev),
                                          alpha, r0, min(r0 + sampler._BLOCK, R))[3]
                for r0 in range(0, R, sampler._BLOCK)
            )
            assert giant_rows == sum(s > g.n * g.n / 2 for s in sq)


@given(st.lists(st.integers(0, 20), max_size=30), st.sampled_from([0, 0.5, 1, 7, 7.5, 40, 2**62]))
def test_pieces_equal_greedy_cut(cost, bound):
    """``_bands.pieces`` cuts like a greedy loop over the rows, as
    ``advantage._removal_groups`` needs to group its nodes."""
    assert _bands.pieces(np.array(cost, dtype=np.int64), bound) == ref_pieces(cost, bound)


@pytest.mark.parametrize("bound", [1, 7, 2**62])
@given(st.integers(1, 40))
def test_triu_bands_walk_the_upper_triangle(bound, n):
    """The bands cover rows 0..n-1 in order, none holds more than the bound
    in pairs unless it is a single row, and their pairs, joined, are the
    strict upper triangle in np.triu_indices' order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_bands, "CELLS", bound)
        bands = list(triu_bands(n))
    assert [lo for lo, _, _ in bands] == [0] + [hi for _, hi, _ in bands[:-1]]
    assert bands[-1][1] == n
    for lo, hi, mask in bands:
        assert mask.shape == (hi - lo, n)
        assert mask.sum() <= bound or hi - lo == 1
    m = np.arange(n * n).reshape(n, n)
    joined = np.concatenate([m[lo:hi][mask] for lo, hi, mask in bands])
    assert np.array_equal(joined, m[np.triu_indices(n, k=1)])
