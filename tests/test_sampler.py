import re
import struct
import threading
from fractions import Fraction

import numpy as np
import pytest
from reference import ref_exact_access, ref_pair_counts, random_connected_graph

import netaccess as na
from netaccess import _bands, sampler
from netaccess.cli import main as cli_main
from netaccess.sampler import _ORACLE_CHUNK, _accumulate_block, _edge_hashes, _live_rows


def _graph(text: bytes):
    return na.load_edge_list(text)


# --- exact oracle ---------------------------------------------------------


def test_oracle_single_edge():
    g = _graph(b"0 1\n")
    for alpha in (0.25, 0.5, 0.9):
        p = na.exact_access_oracle(g, alpha)
        assert abs(p[0, 1] - alpha) < 1e-12


def test_oracle_two_path_endpoints():
    g = _graph(b"0 1\n1 2\n")
    p = na.exact_access_oracle(g, 0.5)
    assert abs(p[0, 2] - 0.25) < 1e-12
    assert abs(p[0, 1] - 0.5) < 1e-12


def test_oracle_triangle():
    g = _graph(b"0 1\n1 2\n0 2\n")
    p = na.exact_access_oracle(g, 0.5)
    off = p[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.625, atol=1e-12)


def test_oracle_kite_frozen_values():
    # enumerated independently: exact rationals at alpha = 1/2
    g = _graph(b"0 1\n0 2\n1 2\n1 3\n2 3\n3 4\n")
    p = na.exact_access_oracle(g, 0.5)
    expected = {
        (0, 1): 21 / 32,
        (0, 2): 21 / 32,
        (0, 3): 1 / 2,
        (0, 4): 1 / 4,
        (1, 2): 23 / 32,
        (1, 3): 21 / 32,
        (1, 4): 21 / 64,
        (2, 3): 21 / 32,
        (2, 4): 21 / 64,
        (3, 4): 1 / 2,
    }
    for (i, j), val in expected.items():
        assert abs(p[i, j] - val) < 1e-12, (i, j)


def test_oracle_cycle_frozen_values():
    g = _graph(b"0 1\n1 2\n2 3\n0 3\n")
    p = na.exact_access_oracle(g, 0.5)
    assert abs(p[0, 1] - 0.5625) < 1e-12
    assert abs(p[0, 2] - 0.4375) < 1e-12


def test_oracle_matches_reference_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n, edges = random_connected_graph(rng, n_max=6, m_max=10)
        lines = "".join(f"{u} {v}\n" for u, v in edges).encode()
        g = _graph(lines)
        for alpha in (0.2, 0.5, 0.8):
            ours = na.exact_access_oracle(g, alpha)
            theirs = ref_exact_access(n, edges, alpha)
            assert np.allclose(ours, theirs, atol=1e-12)


def test_oracle_symmetric_unit_diagonal():
    g = _graph(b"0 1\n1 2\n2 3\n")
    p = na.exact_access_oracle(g, 0.3)
    assert np.array_equal(p, p.T)
    assert (np.diag(p) == 1.0).all()


def test_oracle_refuses_large_graphs():
    lines = "".join(f"{i} {i + 1}\n" for i in range(25)).encode()
    g = _graph(lines)
    with pytest.raises(ValueError, match="cap"):
        na.exact_access_oracle(g, 0.5)


def test_oracle_disconnected_pairs_zero():
    g = _graph(b"0 1\n2 3\n")
    p = na.exact_access_oracle(g, 0.7)
    assert p[0, 2] == 0.0 and p[1, 3] == 0.0
    # node 2 is isolated (its only line is a dropped self-loop)
    p = na.exact_access_oracle(_graph(b"0 1\n2 2\n"), 0.7)
    assert abs(p[0, 1] - 0.7) < 1e-12
    assert p[0, 2] == 0.0 and p[1, 2] == 0.0
    # one node, no edges: a single empty coin outcome
    p = na.exact_access_oracle(_graph(b"3 3\n"), 0.7)
    assert np.array_equal(p, np.ones((1, 1)))


def test_oracle_path_spanning_several_chunks():
    # 2^16 outcomes are enumerated in several chunks; i and j on a path
    # share a component iff all |i-j| edges between them are live
    lines = "".join(f"{i} {i + 1}\n" for i in range(16)).encode()
    g = _graph(lines)
    assert (1 << g.m) > 2 * _ORACLE_CHUNK
    for alpha in (0.3, 0.85):
        p = na.exact_access_oracle(g, alpha)
        dist = np.abs(np.subtract.outer(np.arange(17), np.arange(17)))
        assert np.abs(p - alpha**dist).max() < 1e-12


# --- Monte Carlo build ----------------------------------------------------


def test_build_counts_match_reference_union_find():
    # exact integer agreement with a per-sample union-find recount
    rng = np.random.default_rng(3)
    for _ in range(5):
        n, edges = random_connected_graph(rng, n_max=7, m_max=12)
        lines = "".join(f"{u} {v}\n" for u, v in edges).encode()
        g = _graph(lines)
        for alpha, R, seed in ((0.15, 300, 0), (0.85, 300, 4), (0.5, 600, 9)):
            _, est = na.build_ensemble(g, alpha, R, seed)
            eh = _edge_hashes(seed, g.eu, g.ev)
            live = _live_rows(eh, 0, R, alpha)
            expect = ref_pair_counts(n, list(zip(g.eu.tolist(), g.ev.tolist())), live)
            assert np.array_equal(est.counters, expect)

    # one block holding both regimes: on a 5-cycle at alpha 0.5 some samples
    # are fragmented and others have a giant component
    g = _graph(b"0 1\n1 2\n2 3\n3 4\n0 4\n")
    R = 300
    ens, est = na.build_ensemble(g, 0.5, R, 0)
    eh = _edge_hashes(0, g.eu, g.ev)
    *_, giant_rows = _accumulate_block(g.n, g.eu, g.ev, eh, 0.5, 0, R)
    assert 0 < giant_rows < R
    live = _live_rows(eh, 0, R, 0.5)
    expect = ref_pair_counts(g.n, list(zip(g.eu.tolist(), g.ev.tolist())), live)
    assert np.array_equal(est.counters, expect)
    na.add_edge_incremental(ens, est, (0, 2))
    rebuilt_ens, rebuilt = na.build_ensemble(g.with_edges([(0, 2)]), 0.5, R, 0)
    assert np.array_equal(est.counters, rebuilt.counters)
    # the relabelled rows describe the same components as the rebuild's
    for lab, ref in zip(ens.labels, rebuilt_ens.labels):
        assert np.array_equal(lab[:, None] == lab[None, :], ref[:, None] == ref[None, :])


def test_build_multi_block_counts_match_reference():
    # R past one block boundary exercises the block-merge path
    g = _graph(b"0 1\n1 2\n")
    R = 1030
    _, est = na.build_ensemble(g, 0.5, R, 2)
    eh = _edge_hashes(2, g.eu, g.ev)
    live = _live_rows(eh, 0, R, 0.5)
    expect = ref_pair_counts(3, [(0, 1), (1, 2)], live)
    assert np.array_equal(est.counters, expect)


FIVE_CYCLE = b"0 1\n1 2\n2 3\n3 4\n0 4\n"


def _piece_builds(g, R: int, workers: int) -> dict:
    """Every kind of build at alpha 0.5: fresh, on a lower alpha's ensemble,
    on an equal alpha's ensemble of a subgraph, and without counting."""
    lower = na.build_ensemble(g, 0.3, R, 4, workers=workers)[0]
    sub = na.build_ensemble(g.without_node_edges(0), 0.5, R, 4, workers=workers, count=False)[0]
    return {
        "fresh": na.build_ensemble(g, 0.5, R, 4, workers=workers),
        "lower": na.build_ensemble(g, 0.5, R, 4, workers=workers, below=lower),
        "equal": na.build_ensemble(g, 0.5, R, 4, workers=workers, below=sub),
        "uncounted": na.build_ensemble(g, 0.5, R, 4, workers=workers, count=False),
    }


def _assert_builds_match(g, R: int, builds: dict, whole: dict) -> None:
    """``_piece_builds`` results equal to ``whole``'s, labels and counters,
    and counted builds equal to a union-find recount of the samples."""
    live = _live_rows(_edge_hashes(4, g.eu, g.ev), 0, R, 0.5)
    expect = ref_pair_counts(g.n, list(zip(g.eu.tolist(), g.ev.tolist())), live)
    for kind, (ens, est) in builds.items():
        assert np.array_equal(ens.labels, whole[kind][0].labels), kind
        assert np.array_equal(est.counters, whole[kind][1].counters), kind
        if kind != "uncounted":
            assert np.array_equal(est.counters, expect), kind


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("R", [300, 1030])
@pytest.mark.parametrize("workers", [1, 3])
def test_labelling_in_pieces_equals_one_piece(monkeypatch, rows, R, workers):
    """Each piece's labels count on from the pieces before it, so a block
    labelled a few rows at a time has the labels and counters of a block
    labelled in one call. Every row costs at least n, so a bound of rows * n
    cuts pieces of at most that many rows; R=1030 puts block boundaries
    inside the run, and on the 5-cycle at alpha 0.5 some samples have a
    giant component and others do not."""
    g = _graph(FIVE_CYCLE)
    monkeypatch.setattr(_bands, "CELLS", 2**62)
    whole = _piece_builds(g, R, 1)
    monkeypatch.setattr(_bands, "CELLS", rows * g.n)
    pieces = _piece_builds(g, R, workers)
    _assert_builds_match(g, R, pieces, whole)


def test_labelling_calls_are_bounded(monkeypatch):
    """No labelling call takes more than _bands.CELLS nodes and live edges
    unless it labels a single row, and a block is labelled in several calls."""
    text = "".join(f"{i} {(i + 1) % 30}\n{i} {(i + 7) % 30}\n" for i in range(30)).encode()
    g = _graph(text)
    bound = 200
    monkeypatch.setattr(_bands, "CELLS", bound)
    sizes = []
    label = sampler.connected_components

    def recording(graph, **kwargs):
        sizes.append((graph.shape[0], graph.nnz))
        return label(graph, **kwargs)

    monkeypatch.setattr(sampler, "connected_components", recording)
    lower, _ = na.build_ensemble(g, 0.2, 500, 1)  # one block
    fresh_calls = len(sizes)
    na.build_ensemble(g, 0.5, 500, 1, below=lower)
    assert fresh_calls > 1 and len(sizes) > fresh_calls + 1
    for nodes, nnz in sizes:
        assert nodes + nnz <= bound or nodes <= g.n


@pytest.mark.parametrize("bound", [1, 250, 1000])
@pytest.mark.parametrize("R", [300, 1030])
@pytest.mark.parametrize("workers", [1, 3])
def test_counting_in_bands_equals_one_band(monkeypatch, bound, R, workers):
    """Each band adds its rows' pairs i < j to the build's one accumulator,
    so a block counted one row or a few rows at a time, by several workers
    at once, has the counters of a block counted in a single band. A row
    costs 5 to 268 here (n plus its partners j > i), so a bound of 1 cuts
    single-row bands, a bound of 250 bands of one to three rows, and a
    bound of 1000 one band per block (but several labelling pieces)."""
    g = _graph(FIVE_CYCLE)
    monkeypatch.setattr(_bands, "CELLS", 2**62)
    whole = _piece_builds(g, R, 1)
    monkeypatch.setattr(_bands, "CELLS", bound)
    bands = _piece_builds(g, R, workers)
    _assert_builds_match(g, R, bands, whole)


def _row_work(lab: np.ndarray) -> np.ndarray:
    """Per node, n plus its partners j > i summed over a block's rows: the
    later nodes of its component unless that is the giant, and the later
    nodes outside the giant when it lies outside one."""
    n = lab.shape[1]
    later = np.arange(n) > np.arange(n)[:, None]
    work = np.full(n, n, dtype=np.int64)
    for row in lab:
        size = np.bincount(row - row.min())[row - row.min()]
        giant = size.sum() > n * n / 2
        inside = giant & (row == row[size.argmax()])
        work += np.where(inside, 0, ((row == row[:, None]) & later).sum(axis=1))
        if giant:
            work += np.where(inside, 0, (~inside & later).sum(axis=1))
    return work


@pytest.mark.parametrize("alpha", [0.2, 0.5])
def test_counting_bands_are_bounded(monkeypatch, alpha):
    """No band costs more than _bands.CELLS, n per row plus its rows'
    partners j > i, unless the band is a single row; the bands cover every
    node row once, and each is added to the accumulator's columns from its
    first row on while the lock is held."""
    text = "".join(f"{i} {(i + 1) % 30}\n{i} {(i + 7) % 30}\n" for i in range(30)).encode()
    g = _graph(text)
    bound = 300
    monkeypatch.setattr(_bands, "CELLS", bound)
    bands = []
    lock = threading.Lock()

    class Recording(np.ndarray):
        def __setitem__(self, key, value):
            assert lock.locked()
            rows, cols = key
            # a band's pairs i < j lie in its columns from its first row on
            assert cols == slice(rows.start, None)
            bands.append((rows.start, rows.stop))
            super().__setitem__(key, value)

    same = np.zeros((g.n, g.n), dtype=np.int32).view(Recording)
    eh = _edge_hashes(1, g.eu, g.ev)
    *_, lab, _ = _accumulate_block(g.n, g.eu, g.ev, eh, alpha, 0, 500, None, same, lock)
    work = _row_work(lab)
    assert len(bands) > 1
    assert [lo for lo, _ in bands] == [0] + [hi for _, hi in bands[:-1]]
    assert bands[-1][1] == g.n
    for lo, hi in bands:
        assert work[lo:hi].sum() <= bound or hi - lo == 1


def _row_ranges(labels: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(least, greatest) label of every row, per block of ``_BLOCK`` rows,
    checked to follow the row order without overlapping."""
    ranges = []
    for lo in range(0, len(labels), sampler._BLOCK):
        block = labels[lo : lo + sampler._BLOCK]
        least, greatest = block.min(axis=1), block.max(axis=1)
        assert (greatest[:-1] < least[1:]).all()
        ranges.append((least, greatest))
    return ranges


def _assert_dense_ranges(labels: np.ndarray) -> None:
    """Every block's rows number their components 0, 1, ... in row order,
    each row one range with no id unused."""
    for lo, (least, greatest) in zip(range(0, len(labels), sampler._BLOCK), _row_ranges(labels)):
        assert least[0] == 0 and (least[1:] == greatest[:-1] + 1).all()
        for row, a, z in zip(labels[lo : lo + sampler._BLOCK], least, greatest):
            assert np.array_equal(np.unique(row), np.arange(a, z + 1))


def test_row_labels_are_ranges_in_row_order(monkeypatch):
    """The invariant the counting's size table slices rely on: within a
    block, each row's labels are one range and the ranges follow the rows.
    Fresh labelling and labelling on an earlier ensemble (``_merge_rows``)
    leave no id unused, here in several pieces per block; insertion keeps
    each row's labels inside its range, and a build on the relabelled
    ensemble keeps the ranges in row order."""
    text = "".join(f"{i} {(i + 1) % 30}\n{i} {(i + 7) % 30}\n" for i in range(30)).encode()
    g = _graph(text)
    monkeypatch.setattr(_bands, "CELLS", 200)
    h = g.without_node_edges(3, 17)
    fresh, _ = na.build_ensemble(h, 0.3, 1030, 2, workers=2)
    _assert_dense_ranges(fresh.labels)
    live = _live_rows(_edge_hashes(2, g.eu, g.ev), 0, 4, 0.3)
    n_comp, flat = sampler._label_rows(g.n, g.eu, g.ev, live)
    _assert_dense_ranges(flat.reshape(4, g.n))
    assert n_comp == flat.max() + 1

    merged, _ = na.build_ensemble(h, 0.5, 1030, 2, workers=2, below=fresh)
    _assert_dense_ranges(merged.labels)
    prev = fresh.labels[:4]
    live = _live_rows(_edge_hashes(2, h.eu, h.ev), 0, 4, 0.5)
    n_comp, flat = sampler._merge_rows(prev, h.eu, h.ev, live)
    _assert_dense_ranges(flat.reshape(4, g.n))
    assert n_comp == flat.max() + 1

    ens, est = na.build_ensemble(h, 0.5, 1030, 2)
    before = _row_ranges(ens.labels.copy())
    for e in zip(g.eu.tolist(), g.ev.tolist()):
        if not h.has_edge(*e):
            na.add_edge_incremental(ens, est, e)
    for lo, (least, greatest) in zip(range(0, 1030, sampler._BLOCK), before):
        block = ens.labels[lo : lo + sampler._BLOCK]
        assert (block.min(axis=1) >= least).all() and (block.max(axis=1) <= greatest).all()
    rebuilt, est_on = na.build_ensemble(g, 0.5, 1030, 2, workers=2, below=ens)
    for labels in (ens.labels, rebuilt.labels):
        # some ids inside the rows' ranges are left unused
        spans = sum(int((greatest - least + 1).sum()) for least, greatest in _row_ranges(labels))
        assert sum(len(np.unique(row)) for row in labels) < spans
    assert np.array_equal(est_on.counters, na.build_ensemble(g, 0.5, 1030, 2)[1].counters)


def test_build_rejects_a_below_it_cannot_start_from():
    g = _graph(b"0 1\n1 2\n2 3\n")
    ens, est = na.build_ensemble(g, 0.4, 100, 3)
    na.build_ensemble(g, 0.4, 100, 3, below=ens)  # an equal alpha is accepted
    na.build_ensemble(g.with_edges([(0, 3)]), 0.6, 100, 3, below=ens)
    wider = _graph(b"0 1\n1 2\n2 3\n3 4\n")  # holds ens's edges, one node more
    for alpha, R, seed, graph in ((0.3, 100, 3, g), (0.5, 100, 4, g), (0.5, 99, 3, g),
                                  (0.5, 100, 3, wider), (0.5, 100, 3, g.without_node_edges(1))):
        with pytest.raises(ValueError, match="below was built for another"):
            na.build_ensemble(graph, alpha, R, seed, below=ens)
    # an ensemble add_edge_incremental has grown holds an edge g lacks
    na.add_edge_incremental(ens, est, (0, 3))
    with pytest.raises(ValueError, match="below was built for another"):
        na.build_ensemble(g, 0.5, 100, 3, below=ens)


def test_counters_symmetric_diag_R():
    g = _graph(b"0 1\n1 2\n0 2\n")
    _, est = na.build_ensemble(g, 0.4, 500, 1)
    assert np.array_equal(est.counters, est.counters.T)
    assert np.all(np.diag(est.counters) == 500)
    assert est.counters.min() >= 0 and est.counters.max() <= 500


def test_worker_count_does_not_change_counters():
    g = _graph(b"0 1\n1 2\n2 3\n3 4\n")
    base = None
    for workers in (1, 3, 8):
        _, est = na.build_ensemble(g, 0.35, 2048, 5, workers=workers)
        if base is None:
            base = est.counters
        else:
            assert np.array_equal(base, est.counters)


def test_builds_are_deterministic():
    g = _graph(b"0 1\n1 2\n")
    _, a = na.build_ensemble(g, 0.6, 1000, 7)
    _, b = na.build_ensemble(g, 0.6, 1000, 7)
    assert np.array_equal(a.counters, b.counters)
    _, c = na.build_ensemble(g, 0.6, 1000, 8)
    assert not np.array_equal(a.counters, c.counters)


def test_estimate_converges_to_oracle():
    g = _graph(b"0 1\n1 2\n0 2\n2 3\n")
    p_exact = na.exact_access_oracle(g, 0.5)
    _, est = na.build_ensemble(g, 0.5, 40_000, 0)
    assert np.max(np.abs(est.counters / est.R - p_exact)) < 0.015


def test_alpha_validation():
    g = _graph(b"0 1\n")
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            na.build_ensemble(g, bad, 10, 0)
        with pytest.raises(ValueError, match="alpha"):
            na.exact_access_oracle(g, bad)


def test_R_validation():
    g = _graph(b"0 1\n")
    with pytest.raises(ValueError):
        na.build_ensemble(g, 0.5, 0, 0)
    with pytest.raises(ValueError):
        na.build_ensemble(g, 0.5, 2**31, 0)


def test_seed_validation():
    g = _graph(b"0 1\n1 2\n")
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=f"seed must lie in \\[0, 2\\*\\*64\\), got {bad}"):
            na.build_ensemble(g, 0.5, 10, bad)
    # both ends of the range draw coins
    for good in (0, 2**64 - 1):
        assert na.build_ensemble(g, 0.5, 10, good)[1].counters[0, 0] == 10


# --- incremental update ---------------------------------------------------


def test_incremental_equals_rebuild_single_edge():
    g = _graph(b"0 1\n1 2\n2 3\n")
    ens, est = na.build_ensemble(g, 0.4, 2000, 3)
    na.add_edge_incremental(ens, est, (0, 3))
    _, rebuilt = na.build_ensemble(g.with_edges([(0, 3)]), 0.4, 2000, 3)
    assert np.array_equal(est.counters, rebuilt.counters)


def test_incremental_equals_rebuild_sequence():
    g = _graph(b"0 1\n1 2\n2 3\n3 4\n")
    ens, est = na.build_ensemble(g, 0.3, 1500, 6)
    adds = [(0, 4), (1, 3), (0, 2)]
    for e in adds:
        na.add_edge_incremental(ens, est, e)
    _, rebuilt = na.build_ensemble(g.with_edges(adds), 0.3, 1500, 6)
    assert np.array_equal(est.counters, rebuilt.counters)


def test_incremental_is_monotone():
    g = _graph(b"0 1\n1 2\n2 3\n")
    ens, est = na.build_ensemble(g, 0.5, 800, 0)
    before = est.counters.copy()
    na.add_edge_incremental(ens, est, (0, 3))
    assert np.all(est.counters >= before)


def test_incremental_rejects_bad_edges():
    g = _graph(b"0 1\n1 2\n")
    ens, est = na.build_ensemble(g, 0.5, 100, 0)
    with pytest.raises(ValueError):
        na.add_edge_incremental(ens, est, (0, 1))  # duplicate
    with pytest.raises(ValueError):
        na.add_edge_incremental(ens, est, (2, 2))  # self-loop
    with pytest.raises(ValueError):
        na.add_edge_incremental(ens, est, (0, 9))  # out of range


def test_incremental_edge_order_does_not_matter():
    g = _graph(b"0 1\n1 2\n2 3\n")
    ens1, est1 = na.build_ensemble(g, 0.45, 1200, 2)
    na.add_edge_incremental(ens1, est1, (0, 2))
    na.add_edge_incremental(ens1, est1, (1, 3))
    ens2, est2 = na.build_ensemble(g, 0.45, 1200, 2)
    na.add_edge_incremental(ens2, est2, (1, 3))
    na.add_edge_incremental(ens2, est2, (0, 2))
    assert np.array_equal(est1.counters, est2.counters)


# --- stability ------------------------------------------------------------


def test_stability_check_shape_and_bounds():
    g = _graph(b"0 1\n1 2\n0 2\n")
    max_dev, mean_dev = na.stability_check(g, 0.5, 400, 4, 0)
    assert 0.0 <= mean_dev <= max_dev <= 1.0


def test_stability_check_deterministic():
    g = _graph(b"0 1\n1 2\n")
    a = na.stability_check(g, 0.5, 300, 3, 1)
    b = na.stability_check(g, 0.5, 300, 3, 1)
    assert a == b


def test_stability_check_equals_quotient_formula():
    """max_dev and mean_dev are the correctly rounded floats of the exact
    quotients: the largest and the mean spread (max minus min counter over
    the reps) of the off-diagonal pairs, over R."""
    text = "".join(f"{i} {(i + 1) % 30}\n{i} {(i + 7) % 30}\n" for i in range(30)).encode()
    g = _graph(text)
    R, reps, seed = 300, 4, 5
    cs = [na.build_ensemble(g, 0.3, R, seed + rep)[1].counters.tolist() for rep in range(reps)]
    spread = [
        max(c[i][j] for c in cs) - min(c[i][j] for c in cs)
        for i in range(g.n) for j in range(g.n) if i != j
    ]
    max_dev, mean_dev = Fraction(max(spread), R), Fraction(sum(spread), R * len(spread))
    assert na.stability_check(g, 0.3, R, reps, seed) == (float(max_dev), float(mean_dev))


def test_stability_check_rejects_single_rep():
    g = _graph(b"0 1\n")
    with pytest.raises(ValueError):
        na.stability_check(g, 0.5, 100, 1, 0)


# --- persistence ----------------------------------------------------------


def test_access_csv_format(tmp_path):
    g = _graph(b"5 7\n7 9\n")
    _, est = na.build_ensemble(g, 0.5, 100, 0)
    out = tmp_path / "access.csv"
    na.write_access_csv(est.counters / est.R, g.orig_ids, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,p"
    assert len(lines) == 1 + 3  # C(3,2) pairs
    first = lines[1].split(",")
    assert first[0] == "5" and first[1] == "7"
    assert len(first[2].split(".")[1]) == 6


@pytest.mark.parametrize(
    "values, n_ids",
    [
        (np.ones((3, 3)), 2),
        (np.ones((3, 3)), 4),
        (np.ones((2, 3)), 2),
        (np.ones((2, 3)), 3),
        (na.AccessEstimate(n=3, R=1, counters=np.ones((3, 3), dtype=np.int32)), 2),
    ],
)
def test_access_csv_rejects_mismatched_shapes_before_writing(tmp_path, values, n_ids):
    out = tmp_path / "access.csv"
    shape = values.counters.shape if isinstance(values, na.AccessEstimate) else values.shape
    with pytest.raises(ValueError, match=re.escape(f"shape {shape} and {n_ids} ids")):
        na.write_access_csv(values, np.arange(n_ids), str(out))
    assert not out.exists()


def test_estimate_save_load_round_trip(tmp_path):
    g = _graph(b"2 4\n4 6\n2 6\n")
    _, est = na.build_ensemble(g, 0.37, 900, 13)
    path = tmp_path / "est.bin"
    na.save_estimate(est, g.orig_ids, 0.37, 13, str(path))
    est2, orig_ids, alpha, seed = na.load_estimate(str(path))
    assert np.array_equal(est2.counters, est.counters)
    assert orig_ids.tolist() == [2, 4, 6]
    assert alpha == 0.37 and seed == 13
    assert est2.R == 900 and est2.n == 3


def test_estimate_dump_bytes_follow_the_upper_triangle(tmp_path):
    g = _graph(b"3 1\n1 4\n4 5\n5 9\n2 6\n5 3\n5 8\n9 7\n9 3\n6 5\n")
    _, est = na.build_ensemble(g, 0.45, 700, 2)
    path = tmp_path / "est.bin"
    na.save_estimate(est, g.orig_ids, 0.45, 2, str(path))
    iu, ju = np.triu_indices(g.n, k=1)
    expect = (
        sampler.ESTIMATE_MAGIC
        + struct.pack("<IIIdQ", 1, g.n, 700, 0.45, 2)
        + g.orig_ids.astype("<u4").tobytes()
        + est.counters[iu, ju].astype("<u4").tobytes()
    )
    assert path.read_bytes() == expect
    assert np.array_equal(na.load_estimate(str(path))[0].counters, est.counters)


def test_load_estimate_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        na.load_estimate(str(path))


@pytest.mark.parametrize("ids, repeated", [([7, 7, 9], 7), ([9, 4, 7, 4, 9], 4)])
def test_load_estimate_rejects_repeated_ids(tmp_path, ids, repeated):
    n = len(ids)
    est = na.AccessEstimate(n=n, R=10, counters=np.full((n, n), 10, dtype=np.int32))
    path = str(tmp_path / "dup.bin")
    na.save_estimate(est, np.array(ids), 0.5, 0, path)
    with pytest.raises(ValueError, match=f"repeats original id {repeated}$"):
        na.load_estimate(path)


def _header(version=1, n=3, R=900, alpha=0.37):
    return b"ACE1" + struct.pack("<IIIdQ", version, n, R, alpha, 13)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda blob: blob[:-1], "truncated"),
        (lambda blob: blob[:20], "truncated"),
        (lambda blob: blob + b"\x00", "trailing"),
        (lambda blob: _header(version=2) + blob[32:], "version"),
        (lambda blob: _header(n=0) + blob[32:], "n must"),
        (lambda blob: _header(R=0) + blob[32:], "R must"),
        (lambda blob: _header(R=2**31) + blob[32:], "R must"),
        (lambda blob: _header(alpha=1.5) + blob[32:], "alpha"),
    ],
)
def test_load_estimate_rejects_malformed_files(tmp_path, capsys, mangle, message):
    g = _graph(b"2 4\n4 6\n2 6\n")
    _, est = na.build_ensemble(g, 0.37, 900, 13)
    path = tmp_path / "est.bin"
    na.save_estimate(est, g.orig_ids, 0.37, 13, str(path))
    path.write_bytes(mangle(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        na.load_estimate(str(path))
    # the CLI reports the same message as a runtime failure
    code = cli_main(["evaluate", "--estimate-in", str(path), "--output-dir", str(tmp_path / "ev")])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("big", [150, 2**31, 2**32 - 5])
def test_load_estimate_rejects_counters_above_R(tmp_path, capsys, big):
    # R=100 over 3 nodes: the upper-triangle counters are the last 3 u32s
    est = na.AccessEstimate(n=3, R=100, counters=np.full((3, 3), 40, dtype=np.int32))
    path = tmp_path / "est.bin"
    na.save_estimate(est, np.array([1, 2, 3]), 0.5, 0, str(path))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(blob) - 8, big)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"pair counter {big} exceeds R=100$"):
        na.load_estimate(str(path))
    out = tmp_path / "ev"
    assert cli_main(["evaluate", "--estimate-in", str(path), "--output-dir", str(out)]) == 1
    assert f"pair counter {big} exceeds R=100" in capsys.readouterr().err
    assert not out.exists()


def test_load_estimate_accepts_counters_equal_to_R(tmp_path):
    est = na.AccessEstimate(n=3, R=100, counters=np.full((3, 3), 100, dtype=np.int32))
    path = str(tmp_path / "est.bin")
    na.save_estimate(est, np.array([1, 2, 3]), 0.5, 0, path)
    assert np.array_equal(na.load_estimate(path)[0].counters, est.counters)
