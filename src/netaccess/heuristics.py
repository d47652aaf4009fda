"""Greedy edge-addition strategies for welfare maximization.

All strategies add up to k edges to a connected graph, one step at a time,
and share one coupled sample ensemble that is updated incrementally (never
rebuilt), so the recorded welfare trajectory is non-decreasing by
construction.

Strategy catalog (selection rule per step):
  rand        both endpoints drawn uniformly from the seeded stream
  bc-chord    edge directly between the pair with minimum estimated access
  bc-one      that pair's lower-id endpoint is wired to the center (both
              endpoints' broadcast is the pair's access, so they tie)
  bc-both     both endpoints wired to the center (2 edges per step)
  infl        the node with minimum influence is wired to the center
  diam-chord  edge between a pair at maximum hop distance
  diam-both   both endpoints of that pair wired to the center (2 edges)

The center is the node with maximum broadcast in the initial estimate and
stays fixed for the whole run. Collisions (a self-loop, or an edge the
ensemble's graph, which grows with the run, already has) are resolved by
two rules: center-targeting strategies walk down the initial-broadcast
order until a non-neighbor is found (recording a skipped step if none
exists); chord and random strategies redraw one endpoint, chosen by the
seeded stream, until the edge is legal, or skip on a complete graph.

The diameter kinds compute the all-pairs hop distances once per run, by a
bit-parallel multi-source BFS (``graphs.distance_matrix``), and then update
that int32 matrix in place in row bands, O(n^2) per added edge; the pair is
the matrix's row-major argmax (on disconnected input, the first unreachable
pair).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .advantage import broadcast_all, influence_all, welfare
from .graphs import Graph, add_edge_distances, argmax_pair, distance_matrix
from .sampler import AccessEstimate, add_edge_incremental, build_ensemble

HEURISTIC_KINDS = (
    "rand",
    "bc-chord",
    "bc-one",
    "bc-both",
    "infl",
    "diam-chord",
    "diam-both",
)
_CENTER_KINDS = {"bc-one", "bc-both", "infl", "diam-both"}
# kinds that add two edges per step and so need an even budget
PAIRED_KINDS = ("bc-both", "diam-both")
_DIAMETER_KINDS = {"diam-chord", "diam-both"}


@dataclass
class StepRecord:
    """One augmentation step: edges added and post-step welfare metrics."""

    step: int
    edges: list[tuple[int, int]]
    welfare: float
    min_broadcast: float
    min_influence: float
    events: list[str] = field(default_factory=list)


@dataclass
class InterventionTrace:
    kind: str
    k: int
    alpha: float
    R: int
    seed: int
    center: int | None
    steps: list[StepRecord] = field(default_factory=list)
    early_termination: str | None = None

    @property
    def edges_added(self) -> list[tuple[int, int]]:
        return [e for rec in self.steps for e in rec.edges]


def select_center(est: AccessEstimate) -> int:
    """Node with maximum broadcast; ties to the lowest id. Computed once on
    the initial estimate and frozen for the run."""
    return int(np.argmax(broadcast_all(est)))


def _canon(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def resolve_collision(
    kind: str,
    candidate: tuple[int, int],
    g: Graph,
    broadcast_order: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, int] | None:
    """Turn an illegal candidate edge into a legal one, or None to skip.

    ``g`` is the current graph. Center-targeting kinds keep the non-center
    endpoint u and walk down the initial-broadcast order (second-highest
    onwards) to the first non-neighbor of u; if u is adjacent to everything
    the step is skipped. Chord/random kinds redraw one endpoint (side picked
    by the seeded stream) until the edge is legal; on a complete graph no
    edge is, and the step is skipped.
    """
    u, v = candidate
    if kind in _CENTER_KINDS:
        cands = broadcast_order[1:]
        legal = (cands != u) & ~g.has_edges(u, cands)
        if not legal.any():
            return None
        return _canon(u, int(cands[np.argmax(legal)]))
    if g.is_complete():
        return None
    while u == v or g.has_edge(u, v):
        side = int(rng.integers(2))
        fresh = int(rng.integers(g.n))
        if side == 0:
            u = fresh
        else:
            v = fresh
    return _canon(u, v)


def _min_pair_candidate(est: AccessEstimate) -> tuple[int, int]:
    return welfare(est)[1]


def _diameter_pair(dist: np.ndarray) -> tuple[int, int]:
    return argmax_pair(dist)


# never called: bc-one's endpoints tie on broadcast; kept as a name the
# benchmark tracer wraps
def _current_broadcast(est: AccessEstimate) -> np.ndarray:
    return broadcast_all(est)


def run_augmentation(
    g: Graph,
    kind: str,
    k: int,
    alpha: float,
    R: int,
    seed: int,
    workers: int = 1,
    on_step: Callable[[int, int, AccessEstimate], None] | None = None,
) -> tuple[InterventionTrace, Graph]:
    """Run one strategy for budget k and return (trace, augmented graph).

    The ensemble is built once (O(R m)) and every added edge costs O(R n)
    via incremental update. The diameter kinds also run one bit-parallel
    multi-source BFS per run, O(D (n + 2m) n / 64) word operations for a
    largest eccentricity D, and update its int32 distance matrix in row
    bands in O(n^2) per added edge. The whole trace is a deterministic
    function of (graph, kind, k, alpha, R, seed), independent of worker
    count.
    ``on_step`` is called with (steps done, total edges added, current
    estimate): once before the first step with (0, 0, initial estimate),
    then after each recorded step. The estimate is updated in place.
    """
    if kind not in HEURISTIC_KINDS:
        raise ValueError(f"unknown heuristic kind {kind!r}")
    if k < 0:
        raise ValueError(f"budget k must be non-negative, got {k}")
    if kind in PAIRED_KINDS and k % 2 != 0:
        raise ValueError(f"{kind} adds edges in pairs and needs an even budget, got k={k}")
    if g.is_complete():
        raise ValueError("graph is already complete")

    ens, est = build_ensemble(g, alpha, R, seed, workers=workers)
    # hop distances of the current graph, kept exact edge by edge
    dist = distance_matrix(g) if kind in _DIAMETER_KINDS else None
    b0 = broadcast_all(est)
    center = select_center(est)
    # initial-broadcast order, descending, ties to the lower id; frozen
    broadcast_order = np.lexsort((np.arange(g.n), -b0))
    rng = np.random.default_rng([seed, 0x61757874])

    trace = InterventionTrace(
        kind=kind,
        k=k,
        alpha=alpha,
        R=R,
        seed=seed,
        center=center if kind in _CENTER_KINDS else None,
    )
    n_steps = k // 2 if kind in PAIRED_KINDS else k
    added_total = 0
    if on_step is not None:
        on_step(0, 0, est)

    for step in range(n_steps):
        if ens.graph.is_complete():
            trace.early_termination = "graph became complete"
            break
        events: list[str] = []
        added_now: list[tuple[int, int]] = []

        if kind == "rand":
            raw = [(int(rng.integers(g.n)), int(rng.integers(g.n)))]
        elif kind == "bc-chord":
            raw = [_min_pair_candidate(est)]
        elif kind == "bc-one":
            # each endpoint's broadcast is its row minimum, the pair's own
            # access, so the two tie and the lower id is wired
            raw = [(_min_pair_candidate(est)[0], center)]
        elif kind == "bc-both":
            i, j = _min_pair_candidate(est)
            raw = [(i, center), (j, center)]
        elif kind == "infl":
            u = int(np.argmin(influence_all(est)))
            raw = [(u, center)]
        elif kind == "diam-chord":
            raw = [_diameter_pair(dist)]
        else:  # diam-both
            i, j = _diameter_pair(dist)
            raw = [(i, center), (j, center)]

        for cand in raw:
            cu, cv = cand
            if cu == cv or ens.graph.has_edge(cu, cv):
                resolved = resolve_collision(kind, cand, ens.graph, broadcast_order, rng)
            else:
                resolved = _canon(cu, cv)
            if resolved is None:
                events.append(f"skipped: node {cand[0]} adjacent to all candidates")
                continue
            add_edge_incremental(ens, est, resolved)
            if dist is not None:
                add_edge_distances(dist, *resolved)
            added_now.append(resolved)
            added_total += 1

        w, _ = welfare(est)
        trace.steps.append(
            StepRecord(
                step=step,
                edges=added_now,
                welfare=w,
                # the minimum broadcast is the minimum pair, i.e. welfare
                min_broadcast=w,
                min_influence=float(influence_all(est).min()),
                events=events,
            )
        )
        if on_step is not None:
            on_step(step + 1, added_total, est)

    return trace, ens.graph


def write_trace_csv(trace: InterventionTrace, orig_ids: np.ndarray, path: str) -> None:
    """CSV "step,u,v,welfare,min_broadcast,min_influence", one row per added
    edge (original ids); paired strategies emit two rows per step sharing
    the post-step metric values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,u,v,welfare,min_broadcast,min_influence\n")
        for rec in trace.steps:
            for u, v in rec.edges:
                fh.write(
                    f"{rec.step},{int(orig_ids[u])},{int(orig_ids[v])},"
                    f"{rec.welfare:.6f},{rec.min_broadcast:.6f},{rec.min_influence:.6f}\n"
                )
