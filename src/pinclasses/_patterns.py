"""Subset-pattern census kernels.

The hot loop of the subset oracle extracts the centred pattern of every
origin-containing point subset of a pin diagram with up to ~60 points --
tens of millions of subsets at census depth 6.  The vectorized kernel packs
each pattern into a 64-bit code (4 bits per rank plus the origin slot) and
dedupes chunks with numpy.  The pure-Python kernel builds CentredPerm
objects one subset at a time; it is the reference the tests compare against
and the path for subsets too large to pack.  BACKEND names the kernel in use.
"""

from __future__ import annotations

from itertools import chain, combinations, islice

import numpy as _np

from .cperm import CentredPerm, centred_pattern

_CHUNK_ROWS = 1 << 19
_PACK_LIMIT = 14  # 4-bit rank fields hold subsets of at most 15 points


def subset_patterns_pure(points, origin, n_max: int) -> dict[int, frozenset]:
    """Distinct centred patterns of origin-containing subsets, by subset size.

    ``points`` must have pairwise-distinct x and y coordinates and contain
    ``origin``.  Size k means k non-origin points, so the patterns at key k
    have length k.
    """
    others = [p for p in points if p != origin]
    out: dict[int, frozenset] = {0: frozenset({centred_pattern([origin], origin)})}
    for k in range(1, n_max + 1):
        seen = set()
        for chosen in combinations(others, k):
            seen.add(centred_pattern(list(chosen) + [origin], origin))
        out[k] = frozenset(seen)
    return out


def _decode(code: int, k: int) -> CentredPerm:
    origin_slot = code & 15
    filled = tuple(((code >> (4 * slot + 4)) & 15) + 1 for slot in range(k + 1))
    return CentredPerm(filled, origin_slot + 1)


def subset_patterns_numpy(points, origin, n_max: int) -> dict[int, frozenset]:
    """Vectorized equivalent of subset_patterns_pure."""
    if n_max > _PACK_LIMIT:
        return subset_patterns_pure(points, origin, n_max)
    by_x = sorted(points, key=lambda p: p[0])
    o = by_x.index(origin)
    ys = _np.array([p[1] for p in by_x], dtype=_np.int64)
    others = _np.array([i for i in range(len(by_x)) if i != o], dtype=_np.int64)
    out: dict[int, frozenset] = {0: frozenset({centred_pattern([origin], origin)})}
    for k in range(1, n_max + 1):
        codes: set[int] = set()
        it = combinations(range(len(others)), k)
        while True:
            flat = _np.fromiter(
                chain.from_iterable(islice(it, _CHUNK_ROWS)),
                dtype=_np.int64,
                count=-1,
            )
            if flat.size == 0:
                break
            idx = flat.reshape(-1, k)
            pos = others[idx]  # x-order positions of the chosen points
            rows = pos.shape[0]
            sub_y = _np.empty((rows, k + 1), dtype=_np.int64)
            sub_y[:, :k] = ys[pos]
            sub_y[:, k] = ys[o]
            # rank[r, j] = how many chosen y-values sit below column j's
            rank = (sub_y[:, None, :] < sub_y[:, :, None]).sum(axis=2)
            rank = rank.astype(_np.uint64)
            origin_slot = (pos < o).sum(axis=1).astype(_np.uint64)
            code = origin_slot.copy()
            for j in range(k):
                # x-slot of chosen column j, skipping over the origin's slot
                slot = _np.uint64(j) + (origin_slot <= _np.uint64(j))
                code |= rank[:, j] << (_np.uint64(4) * slot + _np.uint64(4))
            code |= rank[:, k] << (_np.uint64(4) * origin_slot + _np.uint64(4))
            codes.update(_np.unique(code).tolist())
        out[k] = frozenset(_decode(c, k) for c in codes)
    return out


BACKEND = "numpy"
subset_patterns = subset_patterns_numpy
