"""Structural advantage measures derived from access estimates.

A node's access signature is its row of the p matrix (self entry fixed at 1).
Broadcast advantage is the minimum signature entry, influence advantage the
mean (self term included, which shifts every node identically). Welfare is
the minimum pairwise access in the whole graph, equal to the minimum
broadcast; the pair attaining it is the access-diameter pair.

Control advantage for a node c compares access estimates with and without c.
The removal run keeps the node count and simply drops c's incident edges, so
both runs share every remaining edge's coin stream; estimates are exactly
coupled and removing a leaf yields exactly zero control.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bands import pieces
from .graphs import Graph
from .sampler import (
    AccessEstimate,
    build_ensemble,
    exact_access_oracle,
    triu_bands,
    validate_alpha,
)

# a removal group's nodes have degrees summing to at most this share of m:
# the larger a group, the fewer subs are labelled, but the more edges its
# sub lacks and every build on it merges
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
    c. cent_star is the mean over the C(n-1, 2) eligible pairs; the
    unnormalized sum is also reported. Pairs with p_jk = 0 contribute 0.

    The nodes are taken in order into groups whose degrees total at most
    ``_GROUP_SHARE`` of m (a node of higher degree is a group of its own).
    Each group first labels one sub-ensemble of g without every group
    node's edges. In every sample its components refine both g's and each
    removal's, so the base estimate (built once) and each node's removal
    estimate are labelled on them, and only the few edges outside the sub
    are drawn and labelled at all. The sub's pairs are never counted, and the
    base is kept as int32 counters. With exact=True the enumeration oracle's
    p matrices replace sampling (small m only).
    """
    alpha = validate_alpha(alpha)
    if g.n < 3:
        raise ValueError("control needs at least 3 nodes")
    for c in nodes:
        if not (0 <= c < g.n):
            raise ValueError(f"node {c} out of range")
    if exact:
        base = exact_access_oracle(g, alpha)
        return [
            _control_report(c, base, exact_access_oracle(g.without_node_edges(c), alpha), 1.0)
            for c in nodes
        ]

    def build(graph: Graph, **kwargs):
        return build_ensemble(graph, alpha, R, seed, workers=workers, **kwargs)

    reports = []
    base = None
    for group in _removal_groups(g, nodes):
        sub = build(g.without_node_edges(*group), count=False)[0]
        if base is None:
            base = build(g, below=sub)[1].counters
        for c in group:
            removed = build(g.without_node_edges(c), below=sub)[1].counters
            reports.append(_control_report(c, base, removed, float(R)))
            del removed  # freed before the next removal is built
    return reports


def _removal_groups(g: Graph, nodes: list[int]) -> list[list[int]]:
    """``nodes`` in order, cut into runs whose degrees total at most
    ``_GROUP_SHARE`` of m, or into a run of one node of higher degree."""
    deg = np.bincount(np.concatenate([g.eu, g.ev]), minlength=g.n)
    return [nodes[lo:hi] for lo, hi in pieces(deg[nodes], _GROUP_SHARE * g.m)]


def _control_report(c: int, base: np.ndarray, removed: np.ndarray, scale: float) -> ControlReport:
    """Pair control of node c from the n x n matrices ``base`` and ``removed``
    whose entries over ``scale`` are the access with and without c (counters
    at scale R or p at 1.0). The pairs i < j avoiding c are read in
    ``triu_bands``, and their ratios fill one array before one sum."""
    n = len(base)
    ratio = np.empty((n - 1) * (n - 2) // 2)
    pos = 0
    for lo, hi, mask in triu_bands(n):
        mask[:, c] = False
        if lo <= c < hi:
            mask[c - lo] = False
        pj = base[lo:hi][mask] / scale
        positive = pj > 0
        # (pj - pr) / pj, computed in the band's slice of ratio
        lost = ratio[pos : pos + len(pj)]
        np.divide(removed[lo:hi][mask], scale, out=lost)
        np.subtract(pj, lost, out=lost)
        np.divide(lost, pj, out=lost, where=positive)
        lost[~positive] = 0.0
        pos += len(pj)
        del pj, positive  # freed before the next band's
    np.clip(ratio, 0.0, 1.0, out=ratio)
    raw_sum = float(ratio.sum())
    return ControlReport(c, raw_sum / len(ratio), float(ratio.max()), raw_sum)


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
