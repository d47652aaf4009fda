import struct
import sys

import numpy as np
import pytest
from reference import ref_exact_access, ref_pair_counts, random_connected_graph

import netaccess as na
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
    *_, giant_rows = _accumulate_block(g.n, g.eu, g.ev, ens.coins, None, 0, R)
    assert 0 < giant_rows < R
    live = _live_rows(_edge_hashes(0, g.eu, g.ev), 0, R, 0.5)
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


def test_build_rejects_coins_of_another_draw():
    g = _graph(b"0 1\n1 2\n2 3\n")
    ens, _ = na.build_ensemble(g, 0.4, 100, 3)
    h = g.without_node_edges(1)
    na.build_ensemble(h, 0.4, 100, 3, coins=ens.coins)
    for alpha, R, seed, graph in ((0.5, 100, 3, h), (0.4, 99, 3, h), (0.4, 100, 4, h),
                                  (0.4, 100, 3, g.with_edges([(0, 3)]))):
        with pytest.raises(ValueError, match="coins were drawn for another"):
            na.build_ensemble(graph, alpha, R, seed, coins=ens.coins)


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


def test_recorded_coins_identical_across_worker_counts():
    # worker threads write disjoint rows of one packed array; more workers
    # than cores and a short switch interval give lost writes a chance
    g = _graph(b"0 1\n1 2\n2 3\n3 4\n0 4\n1 3\n")
    R = 9 * 512 + 7
    want = np.packbits(_live_rows(_edge_hashes(5, g.eu, g.ev), 0, R, 0.35), axis=1)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 8):
            ens, _ = na.build_ensemble(g, 0.35, R, 5, workers=workers)
            assert np.array_equal(ens.coins.packed, want)
    finally:
        sys.setswitchinterval(interval)


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
    assert np.max(np.abs(est.p - p_exact)) < 0.015


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


def test_stability_check_rejects_single_rep():
    g = _graph(b"0 1\n")
    with pytest.raises(ValueError):
        na.stability_check(g, 0.5, 100, 1, 0)


# --- persistence ----------------------------------------------------------


def test_access_csv_format(tmp_path):
    g = _graph(b"5 7\n7 9\n")
    _, est = na.build_ensemble(g, 0.5, 100, 0)
    out = tmp_path / "access.csv"
    na.write_access_csv(est.p, g.orig_ids, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,p"
    assert len(lines) == 1 + 3  # C(3,2) pairs
    first = lines[1].split(",")
    assert first[0] == "5" and first[1] == "7"
    assert len(first[2].split(".")[1]) == 6


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
