"""Centred permutations: containment, the box-sum algebra, canonical decomposition.

A centred permutation of length n is a permutation of {1..n+1} in one-line
order together with one designated origin entry; the origin does not count
toward the length.  Text form uses square brackets for the origin, e.g.
``426[3]51``; commas separate entries once values reach 10.

Every public way to make a CentredPerm validates its input: direct
construction, `from_oneline`, `CentredPerm.from_json` and `centred_pattern`.
One internal constructor, `CentredPerm._trusted`, checks nothing.  It serves
only the two builders whose results are permutations by construction:
`box_sum` and `expand_level`.
Its contract: ``filled`` is a tuple of Python ints that is a permutation of
1..m, and 1 <= ``origin_index`` <= m.

The censuses keep each level as a dict from one-line key to a bitmask of
origin indices (bit i for origin index i).  The key is the one-line tuple
as `bytes`, one byte per value, so a census of length n holds n + 1 <= 255
values; its hash is cached, and `bytes.translate` with a `shift_table`
shifts all its values at C speed.  `box_sum_level` and
`_patterns.walk_patterns` build levels in that form, `level_size` counts a
level's members and `in_level` tests one, and `expand_level` alone turns a
level into CentredPerms, when a caller asks for the members.  `check_split`
checks from scratch that a piece the level kernel generates is a ⊞-sum of
two shorter members.

The exported functions that take centred permutations also accept them as
bracket text, through `as_perm`.  `minimal_centred_intervals` and
`check_split` read one O(m^2) ∘-interval scan, `_centred_intervals`;
`is_box_indecomposable` closes the two smallest candidates in O(m).
"""

from __future__ import annotations

import operator
import re
from itertools import combinations

from ._value import Value
from .errors import (
    CrossCheckMismatch,
    EmptyInput,
    EmptyPermutation,
    IndexOutOfRange,
    MalformedSyntax,
    MultipleOrigins,
    NoOrigin,
    NonIndecomposableElement,
    NotAPermutation,
    ParameterOutOfRange,
)


# Sign vector of each quadrant numeral (1..4, anticlockwise from upper right).
QUADRANT_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}


def quadrant_of(point, origin) -> int:
    """Quadrant (1..4) of a point relative to an origin; the inverse of
    QUADRANT_SIGNS.  Coordinates must differ from the origin's on both axes."""
    if point[0] > origin[0]:
        return 1 if point[1] > origin[1] else 4
    return 2 if point[1] > origin[1] else 3


class CentredPerm(Value):
    """Immutable centred permutation.

    ``filled`` is the one-line tuple over {1..n+1}; ``origin_index`` is the
    1-based position of the origin entry.  Equality compares both, so
    ``14[2]3`` and ``1[2]43`` are distinct values.

    Construction validates: entries and origin index must be integers
    (``operator.index``, so numpy integers pass; floats and strings do not),
    the entries a permutation of 1..m and the origin index in 1..m.  The
    internal `_trusted` skips every check; see the module docstring for
    its contract and its two callers.
    """

    __slots__ = ("filled", "origin_index")

    def __init__(self, filled: tuple[int, ...], origin_index: int):
        try:
            entries = tuple(map(operator.index, filled))
            origin = operator.index(origin_index)
        except TypeError:
            raise NotAPermutation(
                f"entries and origin index must be integers, got "
                f"{filled!r} with origin {origin_index!r}"
            ) from None
        m = len(entries)
        if m == 0 or sorted(entries) != list(range(1, m + 1)):
            raise NotAPermutation(f"{entries!r} is not a permutation of 1..{m}")
        if not 1 <= origin <= m:
            raise NotAPermutation(f"origin index {origin} outside 1..{m}")
        object.__setattr__(self, "filled", entries)
        object.__setattr__(self, "origin_index", origin)

    @classmethod
    def _trusted(cls, filled: tuple[int, ...], origin_index: int) -> "CentredPerm":
        """A CentredPerm built without any check.  The caller guarantees that
        ``filled`` is a tuple of Python ints forming a permutation of 1..m
        and that 1 <= ``origin_index`` <= m."""
        p = object.__new__(cls)
        _SET_FILLED(p, filled)
        _SET_ORIGIN(p, origin_index)
        return p

    @property
    def length(self) -> int:
        """Number of non-origin points."""
        return len(self.filled) - 1

    @property
    def origin_value(self) -> int:
        return self.filled[self.origin_index - 1]

    def points(self):
        """All points as (x, y) = (position, value), origin included."""
        return [(i, v) for i, v in enumerate(self.filled, 1)]

    def origin_point(self):
        return (self.origin_index, self.origin_value)

    def quadrant(self, position: int) -> int:
        """Quadrant (1..4, anticlockwise from upper right) of a non-origin entry."""
        if not 1 <= position <= len(self.filled):
            raise IndexOutOfRange(f"position {position} outside 1..{len(self.filled)}")
        if position == self.origin_index:
            raise ParameterOutOfRange("the origin has no quadrant")
        return quadrant_of((position, self.filled[position - 1]), self.origin_point())

    def quadrants(self) -> frozenset[int]:
        """The quadrants occupied by the non-origin entries."""
        f, k = self.filled, self.origin_index
        vo = f[k - 1]
        left, right = f[: k - 1], f[k:]
        occupied = set()
        if left:
            if max(left) > vo:
                occupied.add(2)
            if min(left) < vo:
                occupied.add(3)
        if right:
            if max(right) > vo:
                occupied.add(1)
            if min(right) < vo:
                occupied.add(4)
        return frozenset(occupied)

    def one_line(self) -> str:
        parts = [
            f"[{v}]" if i == self.origin_index else str(v)
            for i, v in enumerate(self.filled, 1)
        ]
        return ",".join(parts) if len(self.filled) > 9 else "".join(parts)

    def __str__(self) -> str:
        return self.one_line()

    def __repr__(self) -> str:
        return f"CentredPerm({self.one_line()!r})"

    def to_json(self) -> dict:
        return {"filled": list(self.filled), "origin": self.origin_index}

    @classmethod
    def from_json(cls, data) -> "CentredPerm":
        try:
            filled, origin = data["filled"], data["origin"]
        except (KeyError, TypeError):
            raise MalformedSyntax(
                f"centred permutation JSON needs 'filled' and 'origin', got {data!r}"
            ) from None
        return cls(filled, origin)


# The slots' own setters, cheaper for `_trusted` than object.__setattr__.
_SET_FILLED = CentredPerm.filled.__set__
_SET_ORIGIN = CentredPerm.origin_index.__set__

_ENTRY_RE = re.compile(r"\[(\d+)\]|(\d)")


def from_oneline(text: str) -> CentredPerm:
    """Parse bracket notation, e.g. ``426[3]51`` or ``4,2,6,[3],5,1``."""
    if not isinstance(text, str):
        raise MalformedSyntax(f"expected centred permutation text, got {text!r}")
    s = re.sub(r"\s+", "", text)
    if not s:
        raise EmptyInput("empty centred permutation text")
    if "," in s:
        pieces = s.split(",")
    else:
        pieces = _ENTRY_RE.findall(s)
        joined = "".join(f"[{a}]" if a else b for a, b in pieces)
        if joined != s:
            raise MalformedSyntax(f"cannot parse {text!r} as a centred permutation")
        pieces = [f"[{a}]" if a else b for a, b in pieces]
    filled = []
    origin = None
    for i, piece in enumerate(pieces, 1):
        m = re.fullmatch(r"\[(\d+)\]|(\d+)", piece)
        if not m:
            raise MalformedSyntax(f"bad entry {piece!r} in {text!r}")
        if m.group(1) is not None:
            if origin is not None:
                raise MultipleOrigins(f"more than one bracketed entry in {text!r}")
            origin = i
            filled.append(int(m.group(1)))
        else:
            filled.append(int(m.group(2)))
    if origin is None:
        raise NoOrigin(f"no bracketed origin entry in {text!r}")
    return CentredPerm(filled, origin)


def as_perm(p) -> CentredPerm:
    """A CentredPerm as given, or parsed from bracket notation."""
    return p if isinstance(p, CentredPerm) else from_oneline(p)


# Each generator's downward closure visits all 2^L subsets of its L
# non-origin points.  On a shared 2-core x86-64 host with CPython 3.11,
# `closure-of` takes 2.2-3.7 s and 27-34 MB on one random 18-point
# generator, two 17-point ones or four 16-point ones, all at this bound.
MAX_CLOSURE_SUBSETS = 1 << 18


def as_generators(generators) -> list[CentredPerm]:
    """The generators of a finite ⊞-closure as CentredPerms, with at most
    MAX_CLOSURE_SUBSETS subsets of their non-origin points in all, and a
    non-origin point in at least one, or the closure has nothing to count."""
    gens = [as_perm(g) for g in generators]
    if not gens:
        raise ParameterOutOfRange("need at least one generator")
    subsets = sum(1 << g.length for g in gens)
    if subsets > MAX_CLOSURE_SUBSETS:
        # a long generator's 2^L has more digits than `str` writes out
        count = subsets if subsets >> 64 == 0 else f"at least 2^{subsets.bit_length() - 1}"
        raise ParameterOutOfRange(
            f"the generators have at most {MAX_CLOSURE_SUBSETS} subsets of their points "
            f"besides the origin in all (the sum of 2^L); these have {count}"
        )
    if all(g.length == 0 for g in gens):
        raise EmptyPermutation("every generator is the bare origin, so its closure is empty")
    return gens


def centred_pattern(points, origin_point) -> CentredPerm:
    """Standardize a point set (distinct x, distinct y) into a CentredPerm.

    ``origin_point`` must be one of ``points``.
    """
    xs = sorted(p[0] for p in points)
    ys = sorted(p[1] for p in points)
    xrank = {x: i for i, x in enumerate(xs, 1)}
    yrank = {y: i for i, y in enumerate(ys, 1)}
    filled = [0] * len(points)
    for x, y in points:
        filled[xrank[x] - 1] = yrank[y]
    return CentredPerm(filled, xrank[origin_point[0]])


EMPTY = CentredPerm([1], 1)

# The four single-point centred permutations, one per quadrant.
QUADRANT_POINT = {
    1: from_oneline("[1]2"),
    2: from_oneline("2[1]"),
    3: from_oneline("1[2]"),
    4: from_oneline("[2]1"),
}


def contains(big: CentredPerm, small: CentredPerm) -> bool:
    """True iff small embeds into big order-isomorphically with origins matched."""
    big, small = as_perm(big), as_perm(small)
    if small.length > big.length:
        return False
    kb, ks = big.origin_index, small.origin_index
    left_need, right_need = ks - 1, len(small.filled) - ks
    big_left = range(1, kb)
    big_right = range(kb + 1, len(big.filled) + 1)
    if left_need > len(big_left) or right_need > len(big_right):
        return False
    target = small.filled
    for left in combinations(big_left, left_need):
        for right in combinations(big_right, right_need):
            chosen = list(left) + [kb] + list(right)
            values = [big.filled[i - 1] for i in chosen]
            ranks = {v: r for r, v in enumerate(sorted(values), 1)}
            if all(ranks[v] == t for v, t in zip(values, target)):
                return True
    return False


def box_sum(inner: CentredPerm, outer: CentredPerm) -> CentredPerm:
    """Inflate outer's origin with inner; inner's origin becomes the result's.

    Outer's entries above its origin value move up by inner's length, and
    inner's block takes the origin's place, so the result is a permutation
    by construction and skips validation."""
    inner, outer = as_perm(inner), as_perm(outer)
    ko = outer.origin_index
    vo = outer.filled[ko - 1]
    shift = len(inner.filled) - 1
    filled = [v if v < vo else v + shift for v in outer.filled]
    filled[ko - 1 : ko] = [v + vo - 1 for v in inner.filled]
    return CentredPerm._trusted(tuple(filled), ko - 1 + inner.origin_index)


def shift_table(low: int, by: int) -> bytes:
    """The `bytes.translate` table that adds ``by`` to every value >= ``low``
    and keeps the values below it; values that would pass 255 map to 0."""
    return bytes(range(low)) + bytes(range(low + by, 256)) + bytes(by)


def box_sum_level(levels, parts, n: int) -> dict[bytes, int]:
    """Every ``box_sum(left, piece)`` with ``left`` in ``levels[n - p]`` and
    ``piece`` in ``parts[p]``, over the piece lengths 1 <= p <= n.

    ``levels`` and the result are levels of origin masks (see the module
    docstring); ``parts`` holds CentredPerms.  For one p every left has
    length n - p, so each piece's head and tail (its entries before and
    after the origin) take the same shift once, and each left key's block
    takes one offset per distinct piece origin value, as one
    `bytes.translate` (at offset 0 the left keys are the blocks).  A sum is
    the key ``head + block + tail`` (an empty head or tail copies nothing)
    and carries the left's whole mask, shifted by the head's length, so the
    inner loop runs over distinct left keys, not over their origins.  A new
    sum costs one dict lookup (``setdefault``); a sum already found with
    other origins is ORed into.  For each p the sum of the first left (at
    its lowest origin) and the first piece is checked against `box_sum`
    from scratch.

    `oracle._compose_census` passes only the pieces that shorter pieces do
    not generate, and never pieces of length n itself."""
    found: dict[bytes, int] = {}
    setdefault = found.setdefault
    firsts = []
    for p, pieces in parts.items():
        lefts = levels[n - p] if p <= n else None
        if not lefts or not pieces:
            continue
        shift = n - p
        cuts: dict[int, list] = {}  # origin value - 1 -> (head, tail, ko - 1)
        for piece in pieces:
            f, ko = piece.filled, piece.origin_index
            vo = f[ko - 1]
            head = bytes([v if v < vo else v + shift for v in f[: ko - 1]])
            tail = bytes([v if v < vo else v + shift for v in f[ko:]])
            cuts.setdefault(vo - 1, []).append((head, tail, ko - 1))
        first = None
        for offset, ends in cuts.items():
            if offset:
                table = shift_table(0, offset)
                blocks = [(key.translate(table), mask) for key, mask in lefts.items()]
            else:
                blocks = lefts.items()
            if first is None:
                head, tail, before = ends[0]
                block, mask = next(iter(blocks))
                first = (head + block + tail, before + _lowest_bit(mask))
            for head, tail, before in ends:
                for block, mask in blocks:
                    key = head + block + tail
                    mask <<= before
                    old = setdefault(key, mask)
                    if old != mask:
                        found[key] = old | mask
        left, mask = next(iter(lefts.items()))
        firsts.append((CentredPerm(left, _lowest_bit(mask)), next(iter(pieces)), first))
    for left, piece, first in firsts:
        expected = box_sum(left, piece)
        want = (bytes(expected.filled), expected.origin_index)
        if want != first or not in_level(found, expected):
            raise CrossCheckMismatch(
                f"the level kernel gives {left} ⊞ {piece} as {list(first[0])} with "
                f"origin index {first[1]}, not {expected}"
            )
    return found


def check_split(piece: CentredPerm, levels) -> None:
    """Check from scratch, without `box_sum_level`, that a piece the level
    kernel reports as generated is a sum of shorter members.

    Some proper ∘-interval of the piece must split it: its block L
    (`_interval_pattern`) and the piece with that block contracted, Q
    (`_contract`), are both members of ``levels``, and ``box_sum(L, Q)``
    is the piece.  If the piece is ``left ⊞ K`` with both in ``levels``,
    the block of ``left`` is such an interval, so a true report always
    passes; otherwise this raises CrossCheckMismatch."""
    whole = (1, len(piece.filled))
    for a, b in _centred_intervals(piece):
        if (a, b) == whole:
            break
        inner, outer = _interval_pattern(piece, a, b), _contract(piece, a, b)
        if in_level(levels[inner.length], inner) and in_level(levels[outer.length], outer):
            whole_sum = box_sum(inner, outer)
            if whole_sum != piece:
                raise CrossCheckMismatch(
                    f"{piece} splits at positions {a}..{b} into {inner} and "
                    f"{outer}, whose box sum is {whole_sum}"
                )
            return
    raise CrossCheckMismatch(
        f"the level kernel reports {piece} as a sum of shorter members, "
        "but no ∘-interval splits it into two"
    )


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def in_level(level, p: CentredPerm) -> bool:
    """Is p a member of a level of origin masks?"""
    return bool(level.get(bytes(p.filled), 0) >> p.origin_index & 1)


def level_size(level) -> int:
    """The number of members of a level of origin masks."""
    return sum(map(int.bit_count, level.values()))


def expand_level(level) -> frozenset[CentredPerm]:
    """The CentredPerms of a level that maps each one-line key to a bitmask
    of its origin indices, as `box_sum_level` and `_patterns.walk_patterns`
    return it: one member per set bit, all of one key sharing one tuple."""
    members = []
    for key, mask in level.items():
        filled = tuple(key)
        members += [
            CentredPerm._trusted(filled, i) for i in range(1, mask.bit_length()) if mask >> i & 1
        ]
    return frozenset(members)


def _interval_pattern(p: CentredPerm, a: int, b: int) -> CentredPerm:
    pts = [(i, p.filled[i - 1]) for i in range(a, b + 1)]
    return centred_pattern(pts, p.origin_point())


def _contract(p: CentredPerm, a: int, b: int) -> CentredPerm:
    """Replace the ∘-interval at positions a..b by a single origin point."""
    block_vals = p.filled[a - 1 : b]
    vlo = min(block_vals)
    pts = [(i, v) for i, v in enumerate(p.filled, 1) if not a <= i <= b]
    origin = (a, vlo)
    return centred_pattern(pts + [origin], origin)


def _centred_intervals(p: CentredPerm):
    """Every non-trivial ∘-interval (a, b) of p, as 1-based position ranges:
    left ends outward from the origin, right ends upward, so the whole range
    (1, m) comes last.

    Positions a..b form a ∘-interval iff they contain the origin and their
    values span exactly b - a.  Running min/max outward from the origin give
    each span in O(1), so the scan is O(m^2).  A span only grows with b, so
    when it exceeds b - a by `gap`, no interval ends before b + gap."""
    f, k, m = p.filled, p.origin_index, len(p.filled)
    right_lo, right_hi = [], []  # min/max of positions k..b, for b = k..m
    lo = hi = f[k - 1]
    for v in f[k - 1 :]:
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
        right_lo.append(lo)
        right_hi.append(hi)
    lo = hi = f[k - 1]
    for a in range(k, 0, -1):
        v = f[a - 1]
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
        b = k if a < k else k + 1
        while b <= m:
            span_hi = right_hi[b - k] if right_hi[b - k] > hi else hi
            span_lo = right_lo[b - k] if right_lo[b - k] < lo else lo
            gap = span_hi - span_lo - (b - a)
            if not gap:
                yield a, b
            b += gap or 1


def minimal_centred_intervals(p: CentredPerm) -> list[tuple[int, int]]:
    """Minimal non-trivial ∘-intervals of p, as 1-based position ranges.

    Always one or two ranges; when two, each is one-quadrant and they sit in
    opposite quadrants.  The full range is returned when nothing smaller is a
    ∘-interval (p then being ⊞-indecomposable).
    """
    p = as_perm(p)
    if p.length == 0:
        raise EmptyPermutation("length-0 centred permutation has no non-trivial interval")
    # Intervals nest (all hold the origin); one holds none seen before it
    # iff it ends before all of them, as those start at or right of it.
    found: list[tuple[int, int]] = []
    for a, b in _centred_intervals(p):
        if all(b < fb for _, fb in found):
            found.append((a, b))
    return sorted(found)


def _spans_all(f, where, a: int, b: int) -> bool:
    """Is the least ∘-interval holding the 0-based positions a..b of the
    one-line tuple f all of f?  ``where`` maps each value to its position.
    The values of the positions taken in widen lo..hi, and the positions of
    the values taken in widen a..b, one position or value a step, so each
    is taken in at most once: O(m)."""
    last = len(f) - 1
    lo = hi = f[a]
    i = j = a  # positions i..j and values vlo..vhi are taken in
    vlo = vhi = lo
    while True:
        if i > a:
            i -= 1
            v = f[i]
        elif j < b:
            j += 1
            v = f[j]
        else:
            if vlo > lo:
                vlo -= 1
                at = where[vlo]
            elif vhi < hi:
                vhi += 1
                at = where[vhi]
            else:
                return b - a == last  # a..b is a ∘-interval
            if at < a:
                a = at
            elif at > b:
                b = at
            if b - a == last:
                return True
            continue
        if v < lo:
            lo = v
        elif v > hi:
            hi = v


def is_box_indecomposable(p: CentredPerm) -> bool:
    """True iff p has no proper non-trivial ∘-interval.

    A non-trivial ∘-interval holds the origin and a position next to it, so
    p is indecomposable iff the least ∘-interval holding the origin and its
    left neighbour, and the one holding it and its right neighbour, are each
    all of p (where that neighbour exists)."""
    p = as_perm(p)
    if p.length == 0:
        raise EmptyPermutation("indecomposability is defined for length ≥ 1")
    f, k, last = p.filled, p.origin_index - 1, len(p.filled) - 1
    where = [0, *sorted(range(last + 1), key=f.__getitem__)]
    return (k == 0 or _spans_all(f, where, k - 1, k)) and (
        k == last or _spans_all(f, where, k, k + 1)
    )


def one_quadrant(p: CentredPerm):
    """The single quadrant p occupies, or None if zero or several."""
    occ = as_perm(p).quadrants()
    if len(occ) == 1:
        return next(iter(occ))
    return None


def commutes(a: CentredPerm, b: CentredPerm) -> bool:
    """True iff a ⊞ b = b ⊞ a: equal, or one-quadrant from opposite quadrants."""
    a, b = as_perm(a), as_perm(b)
    if a == b:
        return True
    qa, qb = one_quadrant(a), one_quadrant(b)
    return qa is not None and qb is not None and abs(qa - qb) == 2


def box_decompose(p: CentredPerm) -> list[CentredPerm]:
    """Greedy canonical ⊞-decomposition into indecomposables.

    When two minimal ∘-intervals exist the one in the lower-numbered quadrant
    is extracted first.  Folding box_sum over the result reproduces p.
    """
    out: list[CentredPerm] = []
    cur = as_perm(p)
    while cur.length > 0:
        ranges = minimal_centred_intervals(cur)
        if len(ranges) == 1:
            a, b = ranges[0]
        else:
            pats = [(_interval_pattern(cur, a, b), (a, b)) for a, b in ranges]
            pats.sort(key=lambda t: one_quadrant(t[0]))
            a, b = pats[0][1]
        if (a, b) == (1, len(cur.filled)):
            out.append(cur)
            break
        out.append(_interval_pattern(cur, a, b))
        cur = _contract(cur, a, b)
    return out


def _sort_key(p: CentredPerm):
    q = one_quadrant(p)
    return (q if q is not None else 0, p.length, p.one_line())


def normal_form(decomposition) -> list[CentredPerm]:
    """Canonical order of a ⊞-decomposition into indecomposables.

    Adjacent commuting elements are bubbled into (quadrant, length, text)
    order; two decompositions of the same permutation normalize identically.
    """
    items = [as_perm(p) for p in decomposition]
    for p in items:
        if p.length == 0 or not is_box_indecomposable(p):
            raise NonIndecomposableElement(f"{p} is not ⊞-indecomposable")
    changed = True
    while changed:
        changed = False
        for i in range(len(items) - 1):
            a, b = items[i], items[i + 1]
            if commutes(a, b) and _sort_key(b) < _sort_key(a):
                items[i], items[i + 1] = b, a
                changed = True
    return items


def adjacency_condition(quadrants) -> bool:
    """True iff one quadrant is occupied, or two occupied quadrants are adjacent."""
    occ = frozenset(quadrants)
    if len(occ) == 1:
        return True
    return any(q in occ and (q % 4) + 1 in occ for q in (1, 2, 3, 4))


def strip_origin(p: CentredPerm) -> tuple[int, ...]:
    """The underlying (uncentred) permutation, origin removed and re-ranked."""
    p = as_perm(p)
    vals = [v for i, v in enumerate(p.filled, 1) if i != p.origin_index]
    ranks = {v: r for r, v in enumerate(sorted(vals), 1)}
    return tuple(ranks[v] for v in vals)


def subpatterns(p: CentredPerm) -> set[CentredPerm]:
    """All centred patterns of origin-containing point subsets of p."""
    p = as_perm(p)
    positions = [i for i in range(1, len(p.filled) + 1) if i != p.origin_index]
    origin = p.origin_point()
    out = set()
    for size in range(len(positions) + 1):
        for chosen in combinations(positions, size):
            pts = [(i, p.filled[i - 1]) for i in chosen] + [origin]
            out.add(centred_pattern(pts, origin))
    return out
