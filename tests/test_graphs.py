import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

import netaccess._bands as _bands
from netaccess import (
    EdgeListParseError,
    EmptyInputError,
    largest_connected_component,
    load_edge_list,
    write_edge_list,
)
from netaccess.graphs import Graph, add_edge_distances, argmax_pair, distance_matrix


def test_basic_parse():
    g = load_edge_list(b"0 1\n1 2\n")
    assert g.n == 3
    assert g.m == 2
    assert g.eu.tolist() == [0, 1]
    assert g.ev.tolist() == [1, 2]


def test_comments_blank_lines_and_whitespace():
    g = load_edge_list(b"# header\n\n  0   1  \n# mid\n1 2\n\n")
    assert g.n == 3 and g.m == 2


def test_duplicates_and_self_loops_dropped_but_nodes_kept():
    # reverse duplicates collapse; a self-loop still registers its node
    g = load_edge_list(b"# hdr\n0 1\n1 0\n2 2\n")
    assert g.n == 3
    assert g.m == 1
    assert g.ingest.duplicates == 1
    assert g.ingest.self_loops == 1


def test_parse_error_reports_line_number():
    with pytest.raises(EdgeListParseError, match="line 2"):
        load_edge_list(b"0 1\n0 1 2\n")
    with pytest.raises(EdgeListParseError, match="line 1"):
        load_edge_list(b"a b\n")
    with pytest.raises(EdgeListParseError, match="negative"):
        load_edge_list(b"-1 2\n")
    with pytest.raises(EdgeListParseError, match="^line 2: not valid UTF-8$"):
        load_edge_list(b"0 1\n1 \xff2\n")
    with pytest.raises(EdgeListParseError, match="^line 2: node id does not fit 64 bits$"):
        load_edge_list(b"0 1\n1 99999999999999999999\n")


def test_empty_input_raises():
    with pytest.raises(EmptyInputError):
        load_edge_list(b"")
    with pytest.raises(EmptyInputError):
        load_edge_list(b"# only a comment\n")


def test_path_and_bytes_and_str_sources(tmp_path):
    content = "0 1\n1 2\n"
    f = tmp_path / "g.edges"
    f.write_text(content)
    bom = "\ufeff" + content
    for src in (f, str(f), content.encode(), content * 200, bom, bom.encode()):
        g = load_edge_list(src)
        assert (g.n, g.m) == (3, 2)


def test_missing_path_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_edge_list(str(tmp_path / "missing.edges"))


def test_original_ids_preserved_and_dense_order_sorted():
    g = load_edge_list(b"30 10\n10 20\n")
    assert g.orig_ids.tolist() == [10, 20, 30]
    # dense edges relabeled: (10,20)->(0,1), (10,30)->(0,2)
    assert set(zip(g.eu.tolist(), g.ev.tolist())) == {(0, 1), (0, 2)}


def test_has_edge_symmetric():
    g = load_edge_list(b"0 1\n")
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 0)


def test_is_complete():
    assert load_edge_list(b"0 1\n0 2\n1 2\n").is_complete()
    assert not load_edge_list(b"0 1\n1 2\n").is_complete()


def test_with_edges_adds_and_validates():
    g = load_edge_list(b"0 1\n1 2\n")
    g2 = g.with_edges([(2, 0)])
    assert g2.m == 3 and g2.is_complete()
    assert g.m == 2  # original untouched
    with pytest.raises(ValueError):
        g.with_edges([(0, 1)])
    with pytest.raises(ValueError):
        g.with_edges([(1, 1)])
    with pytest.raises(ValueError):
        g.with_edges([(0, 2), (2, 0)])
    with pytest.raises(ValueError, match="out of range"):
        g.with_edges([(0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        g.with_edges([(-1, 2)])


def test_lcc_keeps_largest():
    g = load_edge_list(b"0 1\n1 2\n5 6\n")
    sub = largest_connected_component(g)
    assert sub.n == 3
    assert sub.orig_ids.tolist() == [0, 1, 2]


def test_lcc_tie_goes_to_smallest_original_id():
    # two 2-node components; 3-4 appears first in the file but 1-2 wins
    g = load_edge_list(b"3 4\n1 2\n")
    sub = largest_connected_component(g)
    assert sub.orig_ids.tolist() == [1, 2]


def test_lcc_of_connected_graph_is_identity():
    g = load_edge_list(b"0 1\n1 2\n")
    sub = largest_connected_component(g)
    assert sub.n == g.n and sub.m == g.m
    assert sub.orig_ids.tolist() == g.orig_ids.tolist()


def test_lcc_isolated_self_loop_node_dropped():
    g = load_edge_list(b"0 1\n1 2\n9 9\n")
    assert g.n == 4
    sub = largest_connected_component(g)
    assert sub.n == 3 and 9 not in sub.orig_ids.tolist()


def test_diameter_pair_path():
    g = load_edge_list(b"0 1\n1 2\n2 3\n")
    dist = distance_matrix(g)
    assert argmax_pair(dist) == (0, 3) and dist[0, 3] == 3


def test_diameter_pair_tie_lexicographic():
    # C4: all opposite pairs at distance 2; (0,2) is the smallest
    g = load_edge_list(b"0 1\n1 2\n2 3\n0 3\n")
    dist = distance_matrix(g)
    assert argmax_pair(dist) == (0, 2) and dist[0, 2] == 2


def test_farthest_pair_disconnected_is_first_unreachable_pair():
    # the distance matrix marks unreachable pairs with the sentinel n, so the
    # augmentation heuristics join the first such pair first
    g = load_edge_list(b"0 1\n1 2\n3 4\n")
    dist = distance_matrix(g)
    assert dist[0].tolist() == [0, 1, 2, 5, 5]
    assert argmax_pair(dist) == (0, 3)


def _graph(n, pairs):
    """Graph over nodes 0..n-1 (isolated ones included) from any node pairs;
    self-loops and repeats are dropped."""
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    keys = np.unique(np.minimum(a, b)[a != b] * n + np.maximum(a, b)[a != b])
    return Graph(n=n, eu=keys // n, ev=keys % n, orig_ids=np.arange(n))


def _random_graph(n, m, seed):
    return _graph(n, np.random.default_rng(seed).integers(0, n, (m, 2)))


def _scipy_hops(g):
    """The reference: Dijkstra hop counts with inf mapped to n."""
    d = shortest_path(g.adjacency(), method="D", directed=False, unweighted=True)
    d[np.isinf(d)] = g.n
    return d.astype(np.int32)


def _whole_matrix_update(dist, u, v):
    """The reference update: one n x n array of paths through the edge."""
    via = dist[:, u, None] + dist[None, v, :]
    via += 1
    np.minimum(dist, via, out=dist)
    np.minimum(dist, via.T, out=dist)


_HOP_GRAPHS = [
    pytest.param(_random_graph(n, m, seed=n + m), id=f"n{n}-m{m}")
    # n across word boundaries; m=0 is edgeless, m=n//2 leaves isolated
    # nodes and several components, m=3n is connected or nearly so
    for n in (1, 2, 63, 64, 65, 130)
    for m in sorted({0, n // 2, 3 * n})
] + [
    pytest.param(_graph(300, [(i, i + 1) for i in range(299)]), id="path300"),
    pytest.param(
        # a path, a dense part and 40 isolated nodes
        _graph(140, [(i, i + 1) for i in range(69)]
               + [(i, j) for i in range(70, 100) for j in range(70, i) if (i + j) % 3 == 0]),
        id="path-dense-isolated",
    ),
]


@pytest.mark.parametrize("cells", [_bands.CELLS, 1], ids=["default", "one-word-chunks"])
@pytest.mark.parametrize("g", _HOP_GRAPHS)
def test_distance_matrix_equals_scipy_shortest_path(g, cells, monkeypatch):
    # a bound of 1 sweeps the sources one 64-bit word per chunk and unpacks
    # one word at a time
    monkeypatch.setattr(_bands, "CELLS", cells)
    dist = distance_matrix(g)
    assert dist.dtype == np.int32 and dist.flags.c_contiguous
    assert np.array_equal(dist, _scipy_hops(g))


@pytest.mark.parametrize("cells", [_bands.CELLS, 1], ids=["default", "one-row-bands"])
def test_banded_edge_update_equals_whole_matrix_update(cells, monkeypatch):
    monkeypatch.setattr(_bands, "CELLS", cells)
    g = _random_graph(130, 90, seed=3)  # several components and isolated nodes
    rng = np.random.default_rng(4)
    dist = distance_matrix(g)
    ref = dist.copy()
    added = []
    while len(added) < 25:
        u, v = (int(x) for x in rng.integers(0, g.n, 2))
        if u == v or g.has_edge(u, v) or (min(u, v), max(u, v)) in added:
            continue
        added.append((min(u, v), max(u, v)))
        add_edge_distances(dist, u, v)
        _whole_matrix_update(ref, u, v)
        assert np.array_equal(dist, ref)
    assert np.array_equal(dist, _scipy_hops(g.with_edges(added)))


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hop_distances_hold_no_n_by_n_temporaries(bench_graph):
    # beside the int32 result the BFS holds buffers of about _bands.CELLS
    # words (2 MB) and one unpacked piece; 4 MB is below one float64 n x n
    # array (10.3 MB here), and the update's bands hold about 1 MB, below
    # one n x n int32 array (5.1 MB)
    n = bench_graph.n
    dist, peak = _traced_peak(distance_matrix, bench_graph)
    assert peak <= dist.nbytes + 4 * 2**20
    u, v = next((0, j) for j in range(1, n) if not bench_graph.has_edge(0, j))
    _, peak = _traced_peak(add_edge_distances, dist, u, v)
    assert peak < n * n * 4


def test_write_then_load_round_trip(tmp_path):
    g = load_edge_list(b"7 3\n3 5\n5 7\n")
    out = tmp_path / "round.edges"
    write_edge_list(g, str(out))
    g2 = load_edge_list(str(out))
    assert g2.orig_ids.tolist() == g.orig_ids.tolist()
    assert np.array_equal(g2.eu, g.eu) and np.array_equal(g2.ev, g.ev)


def test_adjacency_matrix():
    g = load_edge_list(b"0 1\n1 2\n")
    a = g.adjacency().toarray()
    assert a.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
