"""Subset-pattern census of a pin sequence, as a finite state walk.

A pin class is the set of centred patterns of the finite, origin-containing
point subsets of one infinite pin diagram.  The placement rule (see `pimap`)
puts p_t at a fresh extreme in its letter's direction, with its other
coordinate between the box of p0..p_{t-2} and p_{t-1}.  So relative to any
subset S of p0..p_{t-1} that holds the origin, p_t is extreme in its
letter's direction, and its other coordinate is just inside p_{t-1} when
p_{t-1} is in S (p_{t-1} is then S's extreme on that side), or beyond all
of S on p_{t-1}'s side when it is not.  For p2 that side is the sign of the
numeral's quadrant on that axis; p1 itself goes to the numeral's quadrant.
The pattern of S + {p_t} is therefore fixed by the pattern of S, whether
p_{t-1} is in S, and the symbols at t-1 and t.

`walk_patterns` visits once each node (t, pattern of S with fewer than
n_max non-origin points, is p_{t-1} in S) reachable from the origin, with
each move either skipping or adding p_t.  An add move that reaches n_max
points only records its pattern: a skip move never changes a pattern, so
such a node could lead to no new one.  Past the prefix only t's place in the
cycle matters, so t >= P + 2 folds to P + 2 + (t - P - 2) mod c, for a
prefix of P symbols and a cycle of c letters.  The nodes are then finitely
many, and the census is complete when the worklist empties: there is no
segment length and no stopping rule.

`subset_patterns` is the brute-force reference: the pattern of every
origin-containing subset of a finite point set, one at a time.  BACKEND
names the census route in use.
"""

from __future__ import annotations

from itertools import combinations

from .cperm import QUADRANT_SIGNS, centred_pattern, shift_table

BACKEND = "walk"

_SIGN = {"u": 1, "r": 1, "d": -1, "l": -1}


def subset_patterns(points, origin, n_max: int) -> dict[int, frozenset]:
    """Distinct centred patterns of origin-containing subsets, by subset size.

    ``points`` must have pairwise-distinct x and y coordinates and contain
    ``origin``.  Size k means k non-origin points, so the patterns at key k
    have length k.
    """
    others = [p for p in points if p != origin]
    return {
        k: frozenset(
            centred_pattern([*chosen, origin], origin) for chosen in combinations(others, k)
        )
        for k in range(n_max + 1)
    }


# A rank rule gives the new point's rank on one axis among the m points of S
# plus itself, as high * m + (low_in if p_{t-1} is in S else low_out).
def _extreme(sign: int) -> tuple[int, int, int]:
    return (1, 1, 1) if sign > 0 else (0, 1, 1)


def _beside(sign: int) -> tuple[int, int, int]:
    """Just inside p_{t-1}, or beyond all of S, on the side ``sign``."""
    return (1, 0, 1) if sign > 0 else (0, 2, 1)


def _steps(spec) -> list:
    """The (x rule, y rule) placing p_t for t = 1 .. P + 1 + c; index 0 is
    unused."""
    sx, sy = QUADRANT_SIGNS[spec.numeral]
    steps = [None, (_extreme(sx), _extreme(sy))]
    for t in range(2, spec.prefix_length + spec.cycle_length + 2):
        letter, prev = spec.symbol(t), spec.symbol(t - 1)
        if letter in "ud":
            side = sx if t == 2 else _SIGN[prev]
            steps.append((_beside(side), _extreme(_SIGN[letter])))
        else:
            side = sy if t == 2 else _SIGN[prev]
            steps.append((_extreme(_SIGN[letter]), _beside(side)))
    return steps


def walk_patterns(spec, n_max: int) -> dict[int, dict]:
    """The patterns of spec's pin class with at most n_max non-origin
    points, by length: every node of the state walk visited once.  Each
    length maps a one-line key (`bytes`) to the bitmask of its origin
    indices, as `cperm.box_sum_level` does; `cperm.expand_level` builds the
    members.  A node carries its pattern's key: the new point's y rank
    lifts the values at or above it with one `bytes.translate`, and its
    value goes in at its x rank by slicing."""
    steps = _steps(spec)
    last_t = len(steps) - 1
    after = list(range(1, last_t + 1)) + [spec.prefix_length + 2]
    # ranks run 1..m + 1 for the m <= n_max values of a pattern that grows
    lifts = [shift_table(r, 1) for r in range(n_max + 2)]
    values = [bytes((r,)) for r in range(n_max + 2)]
    start = (1, b"\x01", 1, True)
    seen = {start}
    stack = [start]
    top = set()
    while stack:
        t, filled, origin, last = stack.pop()
        nxt = after[t]
        node = (nxt, filled, origin, False)
        if node not in seen:
            seen.add(node)
            stack.append(node)
        m = len(filled)
        if m > n_max:  # only when n_max is 0: no point may be added
            continue
        (hx, x_in, x_out), (hy, y_in, y_out) = steps[t]
        rx = hx * m + (x_in if last else x_out)
        ry = hy * m + (y_in if last else y_out)
        lifted = filled.translate(lifts[ry])
        key = lifted[: rx - 1] + values[ry] + lifted[rx - 1 :]
        pattern = (key, origin + 1 if rx <= origin else origin)
        if m == n_max:
            top.add(pattern)
            continue
        node = (nxt, *pattern, True)
        if node not in seen:
            seen.add(node)
            stack.append(node)
    out: dict[int, dict] = {k: {} for k in range(n_max + 1)}
    for filled, origin in top.union((filled, origin) for _, filled, origin, _ in seen):
        level = out[len(filled) - 1]
        level[filled] = level.get(filled, 0) | 1 << origin
    return out
