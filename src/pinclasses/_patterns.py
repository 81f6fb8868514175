"""Subset-pattern census kernels.

The subset oracle extracts the centred pattern of every origin-containing
point subset of a pin diagram with up to ~60 points -- tens of millions of
subsets at census depth 6.  Both kernels index the non-origin points in
placement order and walk the k-subsets in colex order: the k-subsets whose
largest index is t are the (k-1)-subsets of range(t), the heads, with t
appended, and in colex order those heads are the first C(t, k-1) of the
(k-1)-subsets of range(n).

The vectorized kernel builds that colex array once per k and packs each
head's pattern (with the origin) into a 64-bit code (4 bits per rank plus
the origin slot).  Inserting point t raises a head point's rank by one where
t lies below it, so the pattern of head + {t} is fixed by the head's pattern
and t's two insertion ranks, which are counts: O(k) work per subset.  Each
(head pattern, x rank, y rank) triple is a small integer, so a chunk of at
most _CHUNK_ROWS heads is deduped by marking a flag array, and only the
distinct triples are decoded.

``fresh_from`` restricts a call to the subsets that contain at least one of
``points[fresh_from:]``: the subsets whose largest index is a fresh one.
A longer segment of a pin sequence keeps the relative order of the old
points, so its census is the shorter segment's census united with the
patterns of the fresh subsets.  The pure-Python kernel builds CentredPerm
objects one subset at a time; it is the reference the tests compare against
and the path for subsets too large to pack.  BACKEND names the kernel in use.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as _np

from .cperm import CentredPerm, centred_pattern

_CHUNK_ROWS = 1 << 19
_PACK_LIMIT = 14  # 4-bit rank fields hold subsets of at most 15 points


def _split(points, origin, fresh_from: int):
    """The non-origin points in placement order, and the index among them of
    the first fresh one (0 when the origin itself is fresh)."""
    others = [p for p in points if p != origin]
    old = points[:fresh_from]
    return others, len(old) - 1 if origin in old else 0


def subset_patterns_pure(points, origin, n_max: int, fresh_from: int = 0) -> dict[int, frozenset]:
    """Distinct centred patterns of origin-containing subsets, by subset size.

    ``points`` must have pairwise-distinct x and y coordinates and contain
    ``origin``.  Size k means k non-origin points, so the patterns at key k
    have length k.  For k >= 1 only the subsets with a point of
    ``points[fresh_from:]`` count; key 0 always holds the origin alone.
    """
    others, fresh = _split(points, origin, fresh_from)
    out: dict[int, frozenset] = {0: frozenset({centred_pattern([origin], origin)})}
    for k in range(1, n_max + 1):
        out[k] = frozenset(
            centred_pattern([*head, others[t], origin], origin)
            for t in range(fresh, len(others))
            for head in combinations(others[:t], k - 1)
        )
    return out


def _decode(code: int, k: int) -> CentredPerm:
    origin_slot = code & 15
    filled = tuple(((code >> (4 * slot + 4)) & 15) + 1 for slot in range(k + 1))
    return CentredPerm(filled, origin_slot + 1)


def _insert(perm: CentredPerm, x: int, y: int) -> CentredPerm:
    """``perm`` plus a non-origin point with x entries left of it and y below."""
    filled = [v + (v > y) for v in perm.filled]
    filled.insert(x, y + 1)
    return CentredPerm(tuple(filled), perm.origin_index + (x < perm.origin_index))


def _colex(n: int, j: int) -> _np.ndarray:
    """The j-subsets of range(n) in colex order, one ascending column each:
    row i holds every subset's i-th smallest element."""
    dtype = _np.min_scalar_type(n)
    subsets = _np.zeros((0, 1), dtype=dtype)
    for i in range(j):
        # the (i+1)-subsets with largest element m are the i-subsets of
        # range(m), the first C(m, i) of the previous level, with m added
        subsets = _np.concatenate([
            _np.vstack((subsets[:, : comb(m, i)], _np.full((1, comb(m, i)), m, dtype)))
            for m in range(i, n - j + i + 1)
        ], axis=1)
    return subsets


def _ranks(values: list) -> list:
    """Rank of each array's entry among the arrays' entries at the same
    index (0 = smallest)."""
    ranks = [_np.zeros(len(values[0]), dtype=_np.uint8) for _ in values]
    for i, j in combinations(range(len(values)), 2):
        below = values[j] < values[i]
        ranks[i] += below
        ranks[j] += ~below
    return ranks


def subset_patterns(points, origin, n_max: int, fresh_from: int = 0) -> dict[int, frozenset]:
    """Vectorized equivalent of subset_patterns_pure."""
    if n_max > _PACK_LIMIT:
        return subset_patterns_pure(points, origin, n_max, fresh_from)
    others, fresh = _split(points, origin, fresh_from)
    n = len(others)
    # index n stands for the origin, which every subset contains
    xs = _np.array([p[0] for p in others] + [origin[0]], dtype=_np.int64)
    ys = _np.array([p[1] for p in others] + [origin[1]], dtype=_np.int64)
    out: dict[int, frozenset] = {0: frozenset({centred_pattern([origin], origin)})}
    for k in range(1, min(n, n_max) + 1):
        side = k + 1  # t's x and y ranks are each 0..k
        found: set[CentredPerm] = set()
        heads = _colex(n - 1, k - 1)
        for first in range(0, heads.shape[1], _CHUNK_ROWS):
            chunk = heads[:, first : first + _CHUNK_ROWS]
            size = chunk.shape[1]
            rx = _ranks([xs[col] for col in chunk] + [_np.full(size, xs[n])])
            ry = _ranks([ys[col] for col in chunk] + [_np.full(size, ys[n])])
            codes = rx[-1].astype(_np.uint64)
            for x, y in zip(rx, ry):
                codes |= y.astype(_np.uint64) << (4 * x + 4).astype(_np.uint64)
            head_codes, head_ids = _np.unique(codes, return_inverse=True)
            base = head_ids * side * side
            seen = _np.zeros(len(head_codes) * side * side, dtype=bool)
            for t in range(fresh, n):
                stop = min(size, comb(t, k - 1) - first)
                if stop <= 0:
                    continue
                # per point: 1 if left of t, plus side if below t; a row's sum
                # is at most k * (k + 2) <= 224, so uint8 holds it
                below = (xs < xs[t]).astype(_np.uint8) + _np.uint8(side) * (ys < ys[t])
                rank = _np.full(stop, below[n], dtype=_np.uint8)
                for col in chunk:
                    rank += below.take(col[:stop])
                seen[base[:stop] + rank] = True
            for i in _np.flatnonzero(seen).tolist():
                head, rank = divmod(i, side * side)
                y, x = divmod(rank, side)
                found.add(_insert(_decode(int(head_codes[head]), k - 1), x, y))
        out[k] = frozenset(found)
    for k in range(n + 1, n_max + 1):
        out[k] = frozenset()
    return out


BACKEND = "numpy"
