"""Independent reference implementations used to cross-check the library.

Deliberately written with different machinery than the library (itertools
subset enumeration and a plain union-find instead of chunked bit-mask
enumeration labelled by sparse connected components and counted as a sparse
product), so agreement is meaningful. The access CSV reference formats every
value with its own f-string instead of looking it up in a table of distinct
bit patterns.
"""
from itertools import product

import numpy as np


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
