"""Undirected simple graphs: edge-list ingestion, LCC extraction, BFS utilities.

Node ids are relabeled densely (0..n-1) at load time, in sorted original-id
order, so lexicographic tie-breaks on dense ids and on original ids coincide.
All user-facing output maps back through ``orig_ids``.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

logger = logging.getLogger(__name__)


class EdgeListParseError(ValueError):
    """Malformed edge-list input (reports the offending line number)."""


class EmptyInputError(ValueError):
    """Edge-list input contained no nodes."""


@dataclass(frozen=True)
class IngestStats:
    """Counts of lines dropped during ingestion (kept lines are edges)."""

    duplicates: int = 0
    self_loops: int = 0


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph over dense node ids 0..n-1.

    ``eu``/``ev`` hold the canonical edge list (eu[i] < ev[i], sorted
    lexicographically). ``orig_ids[d]`` is the original id of dense node d;
    ``label_map`` is the inverse (original id -> dense id).
    """

    n: int
    eu: np.ndarray
    ev: np.ndarray
    orig_ids: np.ndarray
    label_map: dict[int, int] = field(repr=False)
    edge_set: frozenset[tuple[int, int]] = field(repr=False)
    ingest: IngestStats = field(default_factory=IngestStats, repr=False)

    @property
    def m(self) -> int:
        return len(self.eu)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edge_set

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of u."""
        out = np.concatenate([self.ev[self.eu == u], self.eu[self.ev == u]])
        out.sort()
        return out

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.eu, self.ev]), minlength=self.n)

    def adjacency(self) -> csr_matrix:
        ones = np.ones(2 * self.m, dtype=np.int8)
        rows = np.concatenate([self.eu, self.ev])
        cols = np.concatenate([self.ev, self.eu])
        return csr_matrix((ones, (rows, cols)), shape=(self.n, self.n))

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def with_edges(self, new_edges: list[tuple[int, int]]) -> "Graph":
        """Copy of this graph with extra edges (dense ids, must be absent)."""
        extra = []
        for u, v in new_edges:
            if u > v:
                u, v = v, u
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if (u, v) in self.edge_set or (u, v) in extra:
                raise ValueError(f"edge ({u},{v}) already present")
            extra.append((u, v))
        allp = sorted(self.edge_set | set(extra))
        eu = np.array([e[0] for e in allp], dtype=np.int64)
        ev = np.array([e[1] for e in allp], dtype=np.int64)
        return Graph(
            n=self.n,
            eu=eu,
            ev=ev,
            orig_ids=self.orig_ids,
            label_map=self.label_map,
            edge_set=frozenset(allp),
            ingest=self.ingest,
        )


def _graph_from_pairs(
    pairs: list[tuple[int, int]], node_ids: list[int], ingest: IngestStats
) -> Graph:
    orig = np.array(sorted(set(node_ids)), dtype=np.int64)
    label_map = {int(o): d for d, o in enumerate(orig)}
    dense = sorted(
        {(min(label_map[a], label_map[b]), max(label_map[a], label_map[b])) for a, b in pairs}
    )
    eu = np.array([e[0] for e in dense], dtype=np.int64)
    ev = np.array([e[1] for e in dense], dtype=np.int64)
    return Graph(
        n=len(orig),
        eu=eu,
        ev=ev,
        orig_ids=orig,
        label_map=label_map,
        edge_set=frozenset(dense),
        ingest=ingest,
    )


def load_edge_list(source) -> Graph:
    """Parse an edge list into a Graph.

    ``source`` is bytes, a str holding the content (it has a newline), or
    a path: an ``os.PathLike`` or a str without a newline (a missing file
    raises FileNotFoundError). One edge per line: two integer tokens
    separated by whitespace; lines starting with '#' are comments.
    Duplicate, reverse-duplicate, and self-loop lines are dropped with a
    counted warning (their node ids still count as nodes). Raises
    EdgeListParseError with a line number on malformed tokens or bytes
    that are not UTF-8, and EmptyInputError when no nodes are found.
    """
    if isinstance(source, str) and "\n" in source:
        text = source
    else:
        if not isinstance(source, bytes):
            with open(source, "rb") as fh:
                source = fh.read()
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the decoded prefix plus one character ends on the bad byte's line
            lineno = len((source[: exc.start].decode("utf-8") + "|").splitlines())
            raise EdgeListParseError(f"line {lineno}: not valid UTF-8") from None

    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    node_ids: list[int] = []
    dup = 0
    loops = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(f"line {lineno}: expected two tokens, got {len(tokens)}")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise EdgeListParseError(f"line {lineno}: non-integer token") from exc
        if a < 0 or b < 0:
            raise EdgeListParseError(f"line {lineno}: negative node id")
        node_ids.append(a)
        node_ids.append(b)
        if a == b:
            loops += 1
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            dup += 1
            continue
        seen.add(key)
        pairs.append(key)

    if not node_ids:
        raise EmptyInputError("edge list contains no nodes")
    if dup or loops:
        logger.warning(
            "dropped %d duplicate and %d self-loop line(s) during ingestion", dup, loops
        )
    return _graph_from_pairs(pairs, node_ids, IngestStats(duplicates=dup, self_loops=loops))


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, densely relabeled.

    Size ties go to the component containing the smallest original id,
    which is the component of the smallest dense id by the ordering
    invariant.
    """
    if g.n == 0:
        raise EmptyInputError("empty graph")
    ncomp, labels = connected_components(g.adjacency(), directed=False)
    if ncomp == 1:
        return g
    sizes = np.bincount(labels, minlength=ncomp)
    # size ties: the component whose smallest member has the smallest dense
    # id wins; dense order equals original-id order by construction
    first_member = np.full(ncomp, g.n, dtype=np.int64)
    for node in range(g.n - 1, -1, -1):
        first_member[labels[node]] = node
    best = min(range(ncomp), key=lambda c: (-int(sizes[c]), int(first_member[c])))
    keep = np.flatnonzero(labels == best)
    keep_set = set(keep.tolist())
    old_orig = g.orig_ids
    sub_pairs = [
        (int(old_orig[u]), int(old_orig[v]))
        for u, v in zip(g.eu.tolist(), g.ev.tolist())
        if u in keep_set and v in keep_set
    ]
    sub_nodes = [int(old_orig[u]) for u in keep]
    return _graph_from_pairs(sub_pairs, sub_nodes, g.ingest)


def farthest_pair(g: Graph) -> tuple[int, int, float]:
    """BFS from every node; return (u, v, d) attaining the maximum
    shortest-path distance, lexicographically smallest pair on ties. On
    disconnected input d is inf and (u, v) the first unreachable pair."""
    d = shortest_path(g.adjacency(), method="D", directed=False, unweighted=True)
    # row-major argmax of a symmetric matrix gives the lexicographically
    # smallest maximizing (u, v) with u < v
    flat = int(np.argmax(d))
    u, v = divmod(flat, g.n)
    if u > v:
        u, v = v, u
    return u, v, float(d[u, v])


def graph_diameter_pair(g: Graph) -> tuple[int, int, int]:
    """``farthest_pair`` with an integer distance. Raises on disconnected
    input (take the LCC first)."""
    u, v, d = farthest_pair(g)
    if np.isinf(d):
        raise ValueError("graph is disconnected; take the largest connected component first")
    return u, v, int(d)


def write_edge_list(g: Graph, path: str) -> None:
    """Write the canonical edge list using original node ids."""
    orig = g.orig_ids
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in zip(g.eu.tolist(), g.ev.tolist()):
            a, b = int(orig[u]), int(orig[v])
            if a > b:
                a, b = b, a
            fh.write(f"{a} {b}\n")
