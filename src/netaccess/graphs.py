"""Undirected simple graphs: edge-list ingestion, LCC extraction, hop distances.

A ``Graph`` stores its edges once, as the canonical dense arrays ``eu``/``ev``,
searched by their sorted keys ``eu * n + ev``; ``label_map`` is derived lazily.
Node ids are relabeled densely (0..n-1) at load time, in sorted original-id
order, so lexicographic tie-breaks on dense ids and on original ids coincide.
All user-facing output maps back through ``orig_ids``.

All-pairs hop distances come from a bit-parallel multi-source BFS into one
int32 matrix (``distance_matrix``) and are kept exact under edge insertion
by a row-banded update (``add_edge_distances``); beside that matrix, each
holds buffers of about ``_HOP_CELLS`` words or cells, whatever n is.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

logger = logging.getLogger(__name__)

_MAX_NODE_ID = 2**63 - 1
# words per BFS level buffer and int32 cells per distance-update band; bounds
# the buffers of both, whatever n is
_HOP_CELLS = 1 << 18


class EdgeListParseError(ValueError):
    """Malformed edge-list input (reports the offending line number)."""


class EmptyInputError(ValueError):
    """Edge-list input contained no nodes."""


@dataclass(frozen=True)
class IngestStats:
    """Counts of lines dropped during ingestion (kept lines are edges)."""

    duplicates: int = 0
    self_loops: int = 0


def _canonical_edges(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical edge arrays from dense endpoints (no self-loops): each edge
    as (min, max), sorted lexicographically, duplicates removed."""
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return keys // n, keys % n


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph over dense node ids 0..n-1.

    ``eu``/``ev`` hold the canonical edge list (eu[i] < ev[i], sorted
    lexicographically, no duplicates) and are the only copy of the edges.
    ``orig_ids[d]`` is the original id of dense node d, in increasing order.
    ``label_map`` (original id -> dense id) is derived from it on first use.
    """

    n: int
    eu: np.ndarray
    ev: np.ndarray
    orig_ids: np.ndarray
    ingest: IngestStats = field(default_factory=IngestStats, repr=False)

    @property
    def m(self) -> int:
        return len(self.eu)

    @cached_property
    def label_map(self) -> dict[int, int]:
        return {o: d for d, o in enumerate(self.orig_ids.tolist())}

    def has_edges(self, a, b) -> np.ndarray:
        """Which node pairs (a[i], b[i]), in either order, are edges, by a
        binary search of the sorted keys; a pair with an id outside 0..n-1
        is not. Scalars give a 0-d array."""
        a, b = np.minimum(a, b), np.maximum(a, b)
        q = a * self.n + b
        # n*n exceeds every key: even an edgeless graph has one to compare with
        keys = np.append(self.eu * self.n + self.ev, self.n * self.n)
        found = keys.take(np.searchsorted(keys, q), mode="clip") == q
        return found & (a >= 0) & (b < self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(u, v))

    def adjacency(self) -> csr_matrix:
        ones = np.ones(2 * self.m, dtype=np.int8)
        rows = np.concatenate([self.eu, self.ev])
        cols = np.concatenate([self.ev, self.eu])
        return csr_matrix((ones, (rows, cols)), shape=(self.n, self.n))

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def with_edges(self, new_edges: list[tuple[int, int]]) -> "Graph":
        """Copy of this graph with extra edges (dense ids, must be absent).
        The first illegal edge, in the given order, raises ValueError."""
        n = self.n
        e = np.array(new_edges, dtype=np.int64).reshape(-1, 2)
        a, b = e.min(axis=1), e.max(axis=1)
        q = a * n + b
        # every edge but the first of each key repeats an earlier one
        repeat = np.ones(len(q), dtype=bool)
        repeat[np.unique(q, return_index=True)[1]] = False
        bad = (a < 0) | (b >= n) | (a == b) | repeat | self.has_edges(a, b)
        if bad.any():
            u, v = int(a[bad][0]), int(b[bad][0])
            if u < 0 or v >= n:
                raise ValueError(f"edge ({u},{v}) out of range for {n} nodes")
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            raise ValueError(f"edge ({u},{v}) already present")
        keys = self.eu * n + self.ev
        q.sort()
        keys = np.insert(keys, np.searchsorted(keys, q), q)
        return replace(self, eu=keys // n, ev=keys % n)

    def without_node_edges(self, *nodes: int) -> "Graph":
        """Same node set with every incident edge of the given nodes removed.
        Dense ids are kept, so the remaining edges draw identical coins and
        estimates on the two graphs stay coupled."""
        keep = ~(np.isin(self.eu, nodes) | np.isin(self.ev, nodes))
        return replace(self, eu=self.eu[keep], ev=self.ev[keep])


def load_edge_list(source) -> Graph:
    """Parse an edge list into a Graph.

    ``source`` is bytes, a str holding the content (it has a newline), or
    a path: an ``os.PathLike`` or a str without a newline (a missing file
    raises FileNotFoundError). The content is UTF-8, optionally led by a
    byte-order mark. One edge per line: two integer tokens separated by
    whitespace; lines starting with '#' are comments. Duplicate,
    reverse-duplicate, and self-loop lines are dropped with a counted
    warning (their node ids still count as nodes). Raises
    EdgeListParseError with a line number on malformed tokens, node ids
    that are negative or do not fit 64 bits, and bytes that are not UTF-8;
    raises EmptyInputError when no nodes are found.
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
    text = text.removeprefix("\ufeff")

    ends: list[int] = []
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
        if a > _MAX_NODE_ID or b > _MAX_NODE_ID:
            raise EdgeListParseError(f"line {lineno}: node id does not fit 64 bits")
        ends.append(a)
        ends.append(b)

    if not ends:
        raise EmptyInputError("edge list contains no nodes")
    lines = np.array(ends, dtype=np.int64).reshape(-1, 2)
    orig = np.unique(lines)
    loop = lines[:, 0] == lines[:, 1]
    dense = np.searchsorted(orig, lines[~loop])
    eu, ev = _canonical_edges(len(orig), dense[:, 0], dense[:, 1])
    ingest = IngestStats(duplicates=len(dense) - len(eu), self_loops=int(loop.sum()))
    if ingest.duplicates or ingest.self_loops:
        logger.warning(
            "dropped %d duplicate and %d self-loop line(s) during ingestion",
            ingest.duplicates,
            ingest.self_loops,
        )
    return Graph(n=len(orig), eu=eu, ev=ev, orig_ids=orig, ingest=ingest)


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, densely relabeled.

    Size ties go to the component containing the smallest original id,
    which is the component of the smallest dense id by the ordering
    invariant. The relabel keeps dense order, so the kept edges stay
    canonical.
    """
    if g.n == 0:
        raise EmptyInputError("empty graph")
    ncomp, labels = connected_components(g.adjacency(), directed=False)
    if ncomp == 1:
        return g
    sizes = np.bincount(labels)
    # the first node lying in a largest component is the smallest member of
    # the winning component
    inside = labels == labels[np.argmax(sizes[labels] == sizes.max())]
    # an edge never spans two components, so one endpoint decides
    keep = inside[g.eu]
    dense = np.cumsum(inside) - 1
    return Graph(
        n=int(inside.sum()),
        eu=dense[g.eu[keep]],
        ev=dense[g.ev[keep]],
        orig_ids=g.orig_ids[inside],
        ingest=g.ingest,
    )


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop counts as an n x n int32 matrix.

    Unreachable pairs hold the sentinel n: every finite distance is at most
    n-1, so the sentinel is the maximum, just as inf would be.

    Level-synchronous multi-source BFS over packed source bitsets (MS-BFS,
    Then et al., PVLDB 8(4), 2014). Sources are packed 64 to a uint64 word
    and swept in chunks of whole words, as many as keep each level's
    buffers (n + 2m rows of chunk words) within about ``_HOP_CELLS`` words,
    and at least one. Bit b of node v's word k is set when source 64k + b
    reaches v: a level ORs the frontier words of v's neighbours and keeps
    the bits not reached before. Only nonzero words are unpacked to write
    their distances, a bounded piece at a time. The sweep does
    O(D (n + 2m) n / 64) word operations for a largest eccentricity D, at
    most about n^3 / 32 (a path).
    """
    n = g.n
    dist = np.full((n, n), n, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    cells = dist.reshape(-1)
    adj = g.adjacency()
    nbrs = adj.indices
    # reduceat needs strictly increasing starts: nodes of degree 0 get no row
    has = np.diff(adj.indptr) > 0
    starts = adj.indptr[:-1][has]
    words = -(-n // 64)
    step = max(1, _HOP_CELLS // (n + len(nbrs)))
    piece = max(1, _HOP_CELLS // 256)  # words unpacked at once: at most _HOP_CELLS / 4 bits
    for w0 in range(0, words, step):
        w = min(words - w0, step)
        lo = 64 * w0
        off = np.arange(min(n - lo, 64 * w))  # the chunk's sources, less lo
        frontier = np.zeros((n, w), dtype="<u8")
        frontier[lo + off, off >> 6] = np.uint64(1) << (off & 63).astype(np.uint64)
        unseen = ~frontier
        level = 0
        while True:
            level += 1
            nxt = np.zeros_like(frontier)
            nxt[has] = np.bitwise_or.reduceat(frontier[nbrs], starts, axis=0)
            nxt &= unseen
            found = np.flatnonzero(nxt)
            if not len(found):
                break
            unseen ^= nxt
            for a in range(0, len(found), piece):
                f = found[a : a + piece]
                v, k = np.divmod(f, w)
                bits = np.unpackbits(nxt.reshape(-1)[f].view(np.uint8), bitorder="little")
                e = np.flatnonzero(bits.view(bool))
                # bit e & 63 of word e >> 6 is source lo + 64k + (e & 63)
                cells[((lo + 64 * k) * n + v)[e >> 6] + (e & 63) * n] = level
            frontier = nxt
    return dist


def add_edge_distances(dist: np.ndarray, u: int, v: int) -> None:
    """Update a ``distance_matrix`` in place for a newly inserted edge (u, v).

    A new shortest path that uses the edge runs i..u-v..j or i..v-u..j, so
    D = min(D, D[:,u]+1+D[v,:], D[:,v]+1+D[u,:]), every term read from D
    before the insertion. D is symmetric, so its columns u and v are copies
    of rows u and v, taken first; the matrix is then updated in row bands of
    about ``_HOP_CELLS`` cells, so no n x n temporary is formed. A sum with
    a sentinel term is at least n+1 and never replaces an entry, so
    unreachable pairs keep the sentinel.
    """
    # rows u and v are columns u and v; the +1 is the new edge's hop
    du = dist[u] + 1
    dv = dist[v].copy()
    step = max(1, _HOP_CELLS // len(dist))
    for lo in range(0, len(dist), step):
        band = dist[lo : lo + step]
        np.minimum(band, du[lo : lo + step, None] + dv, out=band)
        np.minimum(band, dv[lo : lo + step, None] + du, out=band)


def argmax_pair(dist: np.ndarray) -> tuple[int, int]:
    """First maximum of a symmetric matrix in row-major order: the
    lexicographically smallest maximizing (u, v), with u <= v."""
    u, v = divmod(int(np.argmax(dist)), dist.shape[1])
    return u, v


def write_edge_list(g: Graph, path: str) -> None:
    """Write the canonical edge list using original node ids."""
    orig = g.orig_ids
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in zip(g.eu.tolist(), g.ev.tolist()):
            a, b = int(orig[u]), int(orig[v])
            if a > b:
                a, b = b, a
            fh.write(f"{a} {b}\n")
