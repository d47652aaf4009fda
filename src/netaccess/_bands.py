"""The one working-set bound of every banded loop.

The measures are all-pairs, so each kernel that would hold an n x n
temporary, or a buffer growing with R or m, works through its rows a band
at a time instead. Every such loop cuts its bands against ``CELLS``
elements (numpy scalars of at most 8 bytes, about 2 MB), through one of
the two rules below. Both read ``CELLS`` when called, so setting it once
reaches every loop; what each loop counts against it is listed in the
README's "Determinism" section. Cutting never changes a result, only how
much is held at once.
"""
from __future__ import annotations

import numpy as np

CELLS = 1 << 18


def pieces(cost: np.ndarray, bound: float | None = None) -> list[tuple[int, int]]:
    """Consecutive row ranges covering ``cost`` (one entry per row), each
    costing at most ``bound`` (default ``CELLS``) in all unless it is a
    single row."""
    if bound is None:
        bound = CELLS
    ends = np.cumsum(cost)
    out = []
    lo = 0
    while lo < len(ends):
        spent = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, spent + bound, side="right")))
        out.append((lo, hi))
        lo = hi
    return out


def band_rows(row_cost: int) -> int:
    """Rows per band when every row costs ``row_cost``: as many as ``CELLS``
    holds, and at least one."""
    return max(1, CELLS // max(row_cost, 1))
