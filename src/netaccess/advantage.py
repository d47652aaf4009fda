"""Structural advantage measures derived from access estimates.

A node's access signature is its row of the p matrix (self entry fixed at 1).
Broadcast advantage is the minimum signature entry, influence advantage the
mean (self term included, which shifts every node identically). Welfare is
the minimum pairwise access in the whole graph, equal to the minimum
broadcast; the pair attaining it is the access-diameter pair.

Control advantage for a node c compares access estimates with and without c.
The removal keeps the node count and simply drops c's incident edges, so
both share every remaining edge's coin stream: estimates are exactly
coupled, and a removal can only split pairs, never join them. A pair
avoiding c splits only in a sample where c has at least two live edges,
inside c's component K there, and only where c is a cut vertex of K
(Hopcroft and Tarjan, CACM 16(6), 1973). Control counts just those losses,
never the removal's own counters, so removing a leaf yields exactly zero
control.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._bands import band_rows, pieces
from .graphs import Graph
from .sampler import (
    AccessEstimate,
    SampleEnsemble,
    _cross_pairs,
    _edge_hashes,
    _live_rows,
    build_ensemble,
    exact_access_oracle,
    validate_alpha,
)

# a removal group's nodes have degrees summing to at most this share of m:
# the larger a group, the fewer subs are labelled, but the more edges its
# sub lacks, whose coins each node's loss draws and whose live ones join
# the sub's components into the removal's pieces
_GROUP_SHARE = 1 / 16


def broadcast_all(est: AccessEstimate) -> np.ndarray:
    """Per-node minimum off-diagonal access probability."""
    if est.n < 2:
        raise ValueError("broadcast needs at least 2 nodes")
    # the diagonal is R and no counter exceeds R, so a row's minimum is its
    # off-diagonal minimum; dividing by R is monotone and correctly rounded:
    # min(c)/R == min(c/R)
    return est.counters.min(axis=1) / float(est.R)


def influence_all(est: AccessEstimate) -> np.ndarray:
    """Per-node mean signature entry, self term p_ii = 1 included."""
    return est.counters.sum(axis=1, dtype=np.int64) / (float(est.R) * est.n)


def welfare(est: AccessEstimate) -> tuple[float, tuple[int, int]]:
    """Minimum pairwise access and the lexicographically smallest attaining
    pair (u, v), u < v."""
    if est.n < 2:
        raise ValueError("welfare needs at least 2 nodes")
    c = est.counters
    # row-major argmin of a symmetric matrix is the lexicographically
    # smallest minimizing pair, so u <= v; the diagonal (R, the largest
    # counter) is the first minimum only when every counter is R
    u, v = divmod(int(np.argmin(c)), est.n)
    if u == v:
        return 1.0, (0, 1)
    return float(c[u, v]) / est.R, (u, v)


@dataclass(frozen=True)
class ControlReport:
    """Access-centrality outputs for one removed node."""

    node: int
    cent_star: float
    max_pair_control: float
    raw_sum: float


def access_centrality(
    g: Graph,
    alpha: float,
    nodes: list[int],
    R: int = 10_000,
    seed: int = 0,
    exact: bool = False,
    workers: int = 1,
) -> list[ControlReport]:
    """Control advantage of each node c in ``nodes`` over the other pairs' access.

    For every pair (j, k) avoiding c, pair control is the lost fraction
    clamp((p_jk - p'_jk) / p_jk, 0, 1) where p' comes from the graph without
    c's edges. cent_star is the mean over the C(n-1, 2) eligible pairs; the
    unnormalized sum, correctly rounded (``math.fsum``), is also reported.
    Pairs with p_jk = 0 contribute 0.

    The base counters C are built once; no removal is counted. A node's
    loss L = C - C' is counted over the samples where c is a cut vertex of
    its component K: there K without c falls into the removal's components
    of c's live neighbours, and ``_cross_pairs`` counts the pairs across
    them. Only L's nonzero pairs are read, as p = C/R and p' = (C - L)/R;
    every other pair adds 0. The nodes are taken in order into groups whose
    degrees total at most ``_GROUP_SHARE`` of m (a node of higher degree is
    a group of its own). Each group labels one sub-ensemble of g without
    every group node's edges, uncounted. The base is labelled on the first
    group's sub, and each node's pieces on its group's sub: only the coins
    of the node's edges and of the other group nodes' edges are drawn. With
    exact=True the enumeration oracle's p matrices are read instead, every
    pair avoiding c (small m only).
    """
    alpha = validate_alpha(alpha)
    if g.n < 3:
        raise ValueError("control needs at least 3 nodes")
    for c in nodes:
        if not (0 <= c < g.n):
            raise ValueError(f"node {c} out of range")
    pairs = (g.n - 1) * (g.n - 2) // 2
    if exact:
        p = exact_access_oracle(g, alpha)
        reports = []
        for c in nodes:
            avoid = np.triu(np.ones((g.n, g.n), dtype=bool), 1)
            avoid[c] = avoid[:, c] = False
            removed = exact_access_oracle(g.without_node_edges(c), alpha)
            reports.append(_report(c, pairs, [(p[avoid], removed[avoid])]))
        return reports

    reports = []
    base = None
    for group in _removal_groups(g, nodes):
        sub = build_ensemble(
            g.without_node_edges(*group), alpha, R, seed, workers=workers, count=False
        )[0]
        if base is None:
            base = build_ensemble(g, alpha, R, seed, workers=workers, below=sub)[1].counters
        least = sub.labels.min(axis=1)
        for c in group:
            U, lost = _loss(g, sub, least, c)
            reports.append(_report(c, pairs, _lost_pairs(base, U, lost, R)))
            del U, lost  # freed before the next node's loss is counted
    return reports


def _removal_groups(g: Graph, nodes: list[int]) -> list[list[int]]:
    """``nodes`` in order, cut into runs whose degrees total at most
    ``_GROUP_SHARE`` of m, or into a run of one node of higher degree."""
    deg = np.bincount(np.concatenate([g.eu, g.ev]), minlength=g.n)
    return [nodes[lo:hi] for lo, hi in pieces(deg[nodes], _GROUP_SHARE * g.m)]


def _loss(
    g: Graph, sub: SampleEnsemble, least: np.ndarray, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs that removing c's edges splits, as ``_cross_pairs`` counts
    them: sub is an ensemble of g without the edges of c and of other
    nodes, and ``least`` holds each of its rows' least label.

    Only c's coins are drawn for every sample. Where c has at least two live
    edges, K without c falls into the removal's components of c's live
    neighbours, its pieces: unions of sub's components, joined by the live
    edges of g without c that sub lacks. The pieces are labelled on a
    quotient graph of only the sub components that such an edge or a live
    neighbour touches, each named by its label within its row plus n per
    row. Only the samples where the live neighbours fall into two pieces or
    more (c is a cut vertex of K) are read in full, each node's piece, if
    any, looked up by its sub label."""
    n = g.n
    at_c = (g.eu == c) | (g.ev == c)
    eu, ev = g.eu[at_c], g.ev[at_c]
    nbrs = np.where(eu == c, ev, eu)
    live_c = _live_rows(_edge_hashes(sub.seed, eu, ev), 0, sub.R, sub.alpha)
    degree = live_c.sum(axis=1)
    # with at most one live edge c is alone or a leaf of K: nothing splits
    rows = np.flatnonzero(degree >= 2)
    live_c, degree = live_c[rows], degree[rows]
    h = g.without_node_edges(c)
    fresh = ~sub.graph.has_edges(h.eu, h.ev)
    eu, ev = h.eu[fresh], h.ev[fresh]
    live = _live_rows(_edge_hashes(sub.seed, eu, ev), 0, sub.R, sub.alpha)[rows]

    def keys(nodes: np.ndarray) -> np.ndarray:
        # sub's components of the nodes in each row, unique across rows
        key = (sub.labels[rows[:, None], nodes] - least[rows, None]).astype(np.int64)
        key += np.arange(len(rows))[:, None] * n
        return key

    src, dst, nbr = keys(eu), keys(ev), keys(nbrs)
    joins = live & (src != dst)
    src, dst, nbr = src[joins], dst[joins], nbr[live_c]
    ids = np.unique(np.concatenate([src, dst, nbr]))
    quotient = csr_matrix(
        (np.ones(len(src)), (np.searchsorted(ids, src), np.searchsorted(ids, dst))),
        shape=(len(ids), len(ids)),
    )
    _, piece = connected_components(quotient, directed=False)
    row = ids // n
    # the live neighbours' pieces, row after row: c is a cut vertex of K in
    # the rows where they differ
    nbr_piece = piece[np.searchsorted(ids, nbr)]
    starts = np.cumsum(degree) - degree
    cut = np.minimum.reduceat(nbr_piece, starts) != np.maximum.reduceat(nbr_piece, starts)
    in_k = np.zeros(len(ids), dtype=bool)
    in_k[nbr_piece] = True
    keep = cut[row] & in_k[piece]
    # scipy numbers the pieces in the order of their least id, so a row's
    # pieces are one range of numbers, from the piece of its first id on
    piece -= piece[np.searchsorted(ids, row * n)]
    # each cut row's pieces by the sub labels within the row; -1 outside K
    table = np.full((int(cut.sum()), n), -1, dtype=np.int32)
    table[(np.cumsum(cut) - 1)[row[keep]], (ids % n)[keep]] = piece[keep]
    rows = rows[cut]
    return _cross_pairs(np.take_along_axis(table, sub.labels[rows] - least[rows, None], axis=1))


def _lost_pairs(
    base: np.ndarray, U: np.ndarray, lost: np.ndarray, R: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(p, p') of the pairs with a loss, a band of ``lost``'s rows at a time:
    C/R and (C - L)/R, C the base counter and L the pair's loss."""
    step = band_rows(3 * base.shape[0])
    for lo in range(0, len(U), step):
        i, j = np.nonzero(lost[lo : lo + step])
        counts = base[U[lo + i], j]
        yield counts / R, (counts - lost[lo + i, j]) / R


def _report(
    c: int, pairs: int, bands: Iterable[tuple[np.ndarray, np.ndarray]]
) -> ControlReport:
    """Pair control of node c over its ``pairs`` pairs avoiding c, from
    ``bands`` of (p, p'), some of those pairs' access with and without c's
    edges, each pair once: every pair not listed keeps p' = p. Its ratios'
    sum is correctly rounded, so it does not depend on their order or on
    the zeros of the pairs not listed."""
    ratios = []
    for pj, pr in bands:
        ratio = np.zeros(len(pj))
        np.divide(pj - pr, pj, out=ratio, where=pj > 0)
        ratios.append(np.clip(ratio, 0.0, 1.0, out=ratio))
    raw_sum = math.fsum(itertools.chain.from_iterable(r.tolist() for r in ratios))
    top = max((float(r.max()) for r in ratios if len(r)), default=0.0)
    return ControlReport(c, raw_sum / pairs, top, raw_sum)


@dataclass(frozen=True)
class AdvantageReport:
    """Per-node broadcast and influence vectors (dense node order)."""

    broadcast: np.ndarray
    influence: np.ndarray


def advantage_report(est: AccessEstimate) -> AdvantageReport:
    return AdvantageReport(broadcast=broadcast_all(est), influence=influence_all(est))


def write_advantage_csv(report: AdvantageReport, orig_ids: np.ndarray, path: str) -> None:
    """CSV "node,broadcast,influence"."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node,broadcast,influence\n")
        for d in range(len(orig_ids)):
            fh.write(
                f"{int(orig_ids[d])},{report.broadcast[d]:.6f},{report.influence[d]:.6f}\n"
            )
