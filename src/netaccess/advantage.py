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

from .graphs import Graph
from .sampler import (
    AccessEstimate,
    Coins,
    build_ensemble,
    exact_access_oracle,
    validate_alpha,
)


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
    # smallest minimizing pair; the diagonal (R, the largest counter) is
    # the first minimum only when every counter is R
    u, v = divmod(int(np.argmin(c)), est.n)
    if u == v:
        return 1.0, (0, 1)
    if u > v:
        u, v = v, u
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
    The base estimate is computed once and each node costs one removal
    estimate, which labels the base build's recorded coins with c's edges
    dropped instead of drawing them again. With exact=True the enumeration
    oracle replaces sampling (small m only).
    """
    alpha = validate_alpha(alpha)
    if g.n < 3:
        raise ValueError("control needs at least 3 nodes")
    for c in nodes:
        if not (0 <= c < g.n):
            raise ValueError(f"node {c} out of range")

    def access(graph: Graph, coins: Coins | None = None) -> tuple[np.ndarray, Coins | None]:
        if exact:
            return exact_access_oracle(graph, alpha), None
        ens, est = build_ensemble(graph, alpha, R, seed, workers=workers, coins=coins)
        return est.p, ens.coins

    p, coins = access(g)
    return [_control_report(c, p, access(g.without_node_edges(c), coins)[0]) for c in nodes]


def _control_report(c: int, p: np.ndarray, p_removed: np.ndarray) -> ControlReport:
    """Pair control of node c from the access matrices with and without it."""
    others = np.array([i for i in range(len(p)) if i != c])
    iu, ju = np.triu_indices(len(others), k=1)
    pj = p[others[iu], others[ju]]
    pr = p_removed[others[iu], others[ju]]
    nonzero = pj > 0
    ratio = np.zeros(len(pj))
    ratio[nonzero] = (pj[nonzero] - pr[nonzero]) / pj[nonzero]
    clamped = np.clip(ratio, 0.0, 1.0)
    n_pairs = len(pj)
    return ControlReport(
        node=c,
        cent_star=float(clamped.sum() / n_pairs),
        max_pair_control=float(clamped.max()) if n_pairs else 0.0,
        raw_sum=float(clamped.sum()),
    )


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
