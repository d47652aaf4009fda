"""The one working-set bound: ``_bands.CELLS`` reaches every banded loop.

Each loop is watched from outside where its cuts show: the coin chunks
through ``_mix64``, the labelling calls through ``connected_components``,
the bands that read or write an array through an array that logs its keys,
and the cdist bands through ``cdist``. The multi-source BFS and a build's
mirror keep their buffers to themselves, so their chunks and tiles are read
from their rules' answers.
"""
import os

import numpy as np
import pytest
import scipy.spatial.distance

import netaccess as na
from netaccess import AccessEstimate, _bands, evaluation, graphs, sampler


class _Logged(np.ndarray):
    """An array that logs the keys it is read with (``reads``) and written
    with (``writes``); a read returns a plain ndarray."""

    def __getitem__(self, key):
        self.reads.append(key)
        return np.asarray(super().__getitem__(key))

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)


def _logged(a: np.ndarray) -> _Logged:
    a = a.view(_Logged)
    a.reads, a.writes = [], []
    return a


def _row_bands(keys, n: int) -> list[int]:
    """Rows of each band of an n-row array read or written with ``keys``: the
    distinct row slices among them, a tuple key giving its first, in order."""
    rows = [k[0] if isinstance(k, tuple) else k for k in keys]
    ranges = dict.fromkeys(k.indices(n) for k in rows if isinstance(k, slice))
    return [len(range(*r)) for r in ranges]


def _tiles(n: int, side: int) -> int:
    """Square tiles of the given side over an n x n matrix's upper triangle,
    the diagonal tiles included."""
    k = -(-n // side)
    return k * (k + 1) // 2


def _spies(mp) -> dict:
    """Install the spies; returns their logs: the rows of each coin chunk,
    one entry per labelling call, the rows of each cdist band, graphs'
    ``band_rows`` answers by row cost and sampler's ``tile_side`` answers
    by cell cost."""
    log = {"coins": [], "label": [], "cdist": [], "rules": {}, "tiles": {}}
    mix, label, cdist, rule, tiles = (sampler._mix64, sampler.connected_components,
                                      scipy.spatial.distance.cdist, graphs.band_rows,
                                      sampler.tile_side)

    def mix_spy(z, tmp=None):
        if z.ndim == 2:  # a chunk of rows; the per-edge hashes are 1-d
            log["coins"].append(len(z))
        return mix(z, tmp)

    def label_spy(graph, **kwargs):
        log["label"].append(graph.shape[0])
        return label(graph, **kwargs)

    def cdist_spy(a, b, *args):
        log["cdist"].append(len(b))
        return cdist(a, b, *args)

    def rule_spy(row_cost):
        log["rules"][row_cost] = rule(row_cost)
        return log["rules"][row_cost]

    def tiles_spy(cell_cost):
        log["tiles"][cell_cost] = tiles(cell_cost)
        return log["tiles"][cell_cost]

    mp.setattr(sampler, "_mix64", mix_spy)
    mp.setattr(sampler, "connected_components", label_spy)
    mp.setattr(scipy.spatial.distance, "cdist", cdist_spy)
    mp.setattr(graphs, "band_rows", rule_spy)
    mp.setattr(sampler, "tile_side", tiles_spy)
    return log


# a 150-node ring with chords: three id widths (0-9, 10-99, 100-149) and three
# 64-bit words of BFS sources
_N = 150
_EDGES = [(i, (i + 1) % _N) for i in range(_N)] + [(i, (7 * i + 3) % _N) for i in range(0, _N, 2)]
_GRAPH = na.load_edge_list("".join(f"{u} {v}\n" for u, v in _EDGES).encode())
_ALPHA, _R, _SEED = 0.4, 256, 3


def _run_loops(path) -> tuple[dict, dict]:
    """Every banded loop run once on the ring at the current bound: (their
    outputs, the number of pieces each loop cut its work into)."""
    g, n = _GRAPH, _GRAPH.n
    out, cuts = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        log = _spies(mp)
        same = _logged(np.zeros((n, n), dtype=np.int32))
        hashes = sampler._edge_hashes(_SEED, g.eu, g.ev)
        _, _, lab, _ = sampler._accumulate_block(n, g.eu, g.ev, hashes, _ALPHA, 0, _R, None, same)
        out["block"] = (lab.tolist(), np.asarray(same).tolist())
        cuts["coin chunks"] = len(log["coins"])
        cuts["labelling calls"] = len(log["label"])
        cuts["counting bands"] = len(_row_bands(same.writes, n))

        ens, est = na.build_ensemble(g, _ALPHA, _R, _SEED)
        out["build"] = (ens.labels.tolist(), est.counters.tolist())
        (side,) = log["tiles"].values()
        cuts["mirror tiles"] = _tiles(n, side)
        cuts["pair bands"] = len(list(sampler.triu_bands(n)))
        out["bundle"] = evaluation.metrics_bundle(est, g.orig_ids, {})
        out["control"] = na.access_centrality(g, _ALPHA, [0, 75, 149], R=_R, seed=_SEED)

        logged = AccessEstimate(n, _R, _logged(est.counters))
        na.write_access_csv(logged, g.orig_ids, path)
        out["csv"] = path.read_bytes()
        cuts["access.csv bands"] = len(_row_bands(logged.counters.reads, n))
        del logged.counters.reads[:]
        out["sampled"] = na.signature_distances(logged, sample_pairs=300, seed=1)
        # each chunk of pairs reads the counters twice, at its i and j rows
        cuts["sampled chunks"] = len(logged.counters.reads) // 2

        dist = graphs.distance_matrix(g)
        words = -(-n // 64)
        cuts["BFS chunks"] = -(-words // log["rules"][n + 2 * g.m])
        logged = _logged(dist)
        graphs.add_edge_distances(logged, 0, 75)
        out["hops"] = dist.tolist()
        cuts["distance bands"] = len(_row_bands(logged.reads, n))

        cache = evaluation.SignatureCache()
        na.signature_distances(est, cache=cache)
        na.add_edge_incremental(ens, est, (0, 75))
        # every update goes through the cover of the changed counters
        mp.setattr(evaluation, "_UPDATE_SHARE", 1.0)
        out["cached"] = (na.signature_distances(est, cache=cache), cache.d.tolist())
        cuts["cdist bands"] = len(log["cdist"])
    return out, cuts


@pytest.mark.parametrize("cells", [1, 1000])
def test_one_setting_reaches_every_loop(monkeypatch, tmp_path, cells):
    """A small ``_bands.CELLS`` cuts every loop into more pieces than the
    default does, and more than one, and changes no output."""
    want, default = _run_loops(tmp_path / "default.csv")
    monkeypatch.setattr(_bands, "CELLS", cells)
    got, cut = _run_loops(tmp_path / "cut.csv")
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name
    for loop, pieces in cut.items():
        assert pieces > max(default[loop], 1), loop
    assert len(cut) == 10


def test_default_cuts_on_bench1133(bench_graph):
    """The cuts the README documents for bench1133 (n=1133, m=5451): coin
    chunks of 24 rows, access.csv bands of 57 rows, distance and signature
    bands of 231 rows, one BFS chunk and ten mirror tiles of side 295."""
    g, n = bench_graph, bench_graph.n
    with pytest.MonkeyPatch.context() as mp:
        log = _spies(mp)
        sampler._live_rows(sampler._edge_hashes(0, g.eu, g.ev), 0, 48, 0.4)
        assert log["coins"] == [24, 24]

        zeros = AccessEstimate(n, 1, _logged(np.zeros((n, n), dtype=np.int32)))
        na.write_access_csv(zeros, g.orig_ids, os.devnull)
        assert max(_row_bands(zeros.counters.reads, n)) == 57

        dist = graphs.distance_matrix(g)
        assert log["rules"][n + 2 * g.m] >= -(-n // 64)  # one chunk of all words
        # the diameter pair: an edge between it merges components in most samples
        u, v = graphs.argmax_pair(dist)
        logged = _logged(dist)
        graphs.add_edge_distances(logged, u, v)
        assert _row_bands(logged.reads, n) == [231] * 4 + [209]

        ens, est = na.build_ensemble(g, 0.4, 64, 0)
        assert log["tiles"] == {3: 295} and _tiles(n, 295) == 10
        logged = AccessEstimate(n, 64, _logged(est.counters))
        na.signature_distances(logged, sample_pairs=500, seed=1)
        assert [len(k) for k in logged.counters.reads] == [231, 231, 231, 231, 38, 38]

        cache = evaluation.SignatureCache()
        na.signature_distances(est, cache=cache)
        na.add_edge_incremental(ens, est, (u, v))
        mp.setattr(evaluation, "_UPDATE_SHARE", 1.0)
        na.signature_distances(est, cache=cache)
        assert log["cdist"] == [231] * 4 + [209]
