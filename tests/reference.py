"""Independent reference implementations used to cross-check the library.

Deliberately written with different machinery than the library (itertools
subset enumeration and a plain union-find instead of chunked bit-mask
enumeration labelled by sparse connected components and counted as a sparse
product), so agreement is meaningful. The access CSV reference formats every
value with its own f-string instead of looking it up in a table of distinct
bit patterns. The coin reference mixes Python integers and compares a float
draw with alpha, where the library compares 64-bit hashes with an integer
threshold. The labelling reference hands scipy a COO matrix to convert and
check, where the library assembles a CSR matrix from sorted sources. The
control reference picks each node's pairs through an explicit index of the
other nodes from two p matrices, where the library masks one triu index of
all pairs and reads the removal's integer counters.
"""
from itertools import product

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # sample r adds (r + 1) * GOLDEN to an edge's hash
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def ref_exact_access(n: int, edges: list[tuple[int, int]], alpha: float) -> np.ndarray:
    """Exact access matrix by enumerating all 2^m edge subsets."""
    m = len(edges)
    p = np.zeros((n, n))
    for states in product((0, 1), repeat=m):
        k = sum(states)
        w = alpha**k * (1.0 - alpha) ** (m - k)
        uf = UnionFind(n)
        for (u, v), s in zip(edges, states):
            if s:
                uf.union(u, v)
        roots = [uf.find(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if roots[i] == roots[j]:
                    p[i, j] += w
    return p


def ref_pair_counts(n: int, edges: list[tuple[int, int]], live: np.ndarray) -> np.ndarray:
    """Integer co-occurrence counts for given per-sample live-edge rows."""
    R = live.shape[0]
    counts = np.zeros((n, n), dtype=np.int64)
    for r in range(R):
        uf = UnionFind(n)
        for e, (u, v) in enumerate(edges):
            if live[r, e]:
                uf.union(u, v)
        roots = [uf.find(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if roots[i] == roots[j]:
                    counts[i, j] += 1
    return counts


def ref_write_access_csv(p: np.ndarray, orig_ids: np.ndarray, path: str) -> None:
    """CSV "i,j,p" over original ids with i<j, one f"{p:.6f}" call per pair."""
    ids = orig_ids.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,p\n")
        for i, a in enumerate(ids):
            row = zip(ids[i + 1 :], p[i, i + 1 :].tolist())
            fh.writelines(f"{a},{b},{val:.6f}\n" for b, val in row)


def ref_mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python integer."""
    z ^= z >> 30
    z = (z * _M1) & MASK64
    z ^= z >> 27
    z = (z * _M2) & MASK64
    return z ^ (z >> 31)


def _unxorshift(z: int, s: int) -> int:
    """Inverse of z ^= z >> s on 64 bits."""
    x = z
    for _ in range(64 // s + 1):
        x = z ^ (x >> s)
    return x


def ref_unmix64(h: int) -> int:
    """The z with ref_mix64(z) == h: each step of the finalizer is invertible."""
    z = _unxorshift(h, 31)
    z = (z * pow(_M2, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(_M1, -1, 1 << 64)) & MASK64
    return _unxorshift(z, 30)


def ref_coin_live(h: int, alpha: float) -> bool:
    """A coin with mixed hash h is live iff its uniform draw
    u = (h >> 11) * 2**-53, a float in [0, 1), lies below alpha."""
    return (h >> 11) * 2.0**-53 < alpha


def ref_live_rows(edge_hash, r_lo: int, r_hi: int, alpha: float) -> np.ndarray:
    """Live matrix of samples r_lo..r_hi-1: sample r mixes edge_hash + r+1
    golden-ratio increments, one coin per edge."""
    return np.array(
        [
            [ref_coin_live(ref_mix64((int(e) + (r + 1) * GOLDEN) & MASK64), alpha)
             for e in edge_hash]
            for r in range(r_lo, r_hi)
        ],
        dtype=bool,
    ).reshape(r_hi - r_lo, len(edge_hash))


def ref_label_rows(n: int, eu: np.ndarray, ev: np.ndarray, live: np.ndarray):
    """Components of the disjoint union of a live matrix's rows, row r on
    nodes r*n..r*n+n-1, through scipy's COO conversion and validation."""
    b = live.shape[0]
    rows, cols = np.nonzero(live)
    rows *= n
    g = coo_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows + eu[cols], rows + ev[cols])),
        shape=(b * n, b * n),
    )
    return connected_components(g, directed=False)


def ref_control_report(c: int, p: np.ndarray, p_removed: np.ndarray) -> tuple[float, float, float]:
    """(cent_star, max_pair_control, raw_sum) of node c from the access
    matrices with and without c's edges, over the pairs avoiding c."""
    others = np.array([i for i in range(len(p)) if i != c])
    iu, ju = np.triu_indices(len(others), k=1)
    pj = p[others[iu], others[ju]]
    pr = p_removed[others[iu], others[ju]]
    nonzero = pj > 0
    ratio = np.zeros(len(pj))
    ratio[nonzero] = (pj[nonzero] - pr[nonzero]) / pj[nonzero]
    clamped = np.clip(ratio, 0.0, 1.0)
    max_pair = float(clamped.max()) if len(pj) else 0.0
    return float(clamped.sum() / len(pj)), max_pair, float(clamped.sum())


def ref_pieces(cost: list[int], bound: float) -> list[tuple[int, int]]:
    """Rows cut greedily in order: a row joins the current piece while the
    piece's cost stays at most ``bound``, and starts a new one otherwise."""
    pieces: list[list[int]] = []
    total = 0
    for i, c in enumerate(cost):
        if pieces and total + c <= bound:
            pieces[-1][1] = i + 1
            total += c
        else:
            pieces.append([i, i + 1])
            total = c
    return [(lo, hi) for lo, hi in pieces]


def random_connected_graph(rng: np.random.Generator, n_max: int = 8, m_max: int = 16):
    """Random connected simple graph: a random spanning tree plus extra edges."""
    n = int(rng.integers(2, n_max + 1))
    edges = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        u = int(order[idx])
        v = int(order[int(rng.integers(0, idx))])
        edges.add((min(u, v), max(u, v)))
    extra = int(rng.integers(0, m_max - len(edges) + 1))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(all_pairs)
    for u, v in all_pairs:
        if len(edges) >= min(m_max, len(all_pairs)) or extra == 0:
            break
        if (u, v) not in edges:
            edges.add((u, v))
            extra -= 1
    return n, sorted(edges)


def ref_sample_pairs(n: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded pairs of distinct nodes, drawn one scalar at a time from the
    signature stream: a below n, then b below n - 1 moved past a; each pair
    as (i, j), i < j."""
    rng = np.random.default_rng([seed, 0x7369676E])
    pairs = []
    for _ in range(count):
        a = int(rng.integers(n))
        b = int(rng.integers(n - 1))
        if b >= a:
            b += 1
        pairs.append((min(a, b), max(a, b)))
    iu, ju = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return iu, ju


def ref_center_walk(edges: list[tuple[int, int]], u: int, order) -> tuple[int, int] | None:
    """A center kind's collision: the first node w after the top of
    ``order`` that is neither u nor u's neighbour, tested one candidate at a
    time against a Python set of the edges; the edge (u, w) canonical, or
    None when no such w exists."""
    present = set(edges)
    for w in list(order)[1:]:
        e = (min(u, w), max(u, w))
        if w != u and e not in present:
            return e
    return None
