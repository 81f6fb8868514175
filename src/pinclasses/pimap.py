"""The pi-map: realizing pin words as centred permutations.

Points are placed on an integer rank grid.  The origin p0 sits at (0,0); p1
goes one step diagonally into its numeral's quadrant; every later point p_k
takes a fresh extreme rank in its letter's direction while its perpendicular
coordinate is inserted strictly between the bounding rectangle of
{p0..p_{k-2}} and p_{k-1}, on p_{k-1}'s side.  Insertion shifts existing
ranks up by one, so no real coordinates are ever needed.  `diagram_points`
keeps each axis's order as a doubly linked list over point indices: a new
point goes at one end of its letter's axis and next to p_{k-1} on the
other, so placing it costs O(1) and the whole word O(n), with the ranks
read once at the end.  `pi_map` standardizes the points by sorting: the
point route, which `PinDiagram` draws.

Growing diagrams take the image route instead: `_grow` applies the same
rule to a word's image, one insertion per point.  It carries the image's
proper ∘-intervals (so its ⊞-indecomposability) and its quadrant set from
the parent, in one pass over the parent's intervals: each one the new
point P = (p, v) does not split is kept, shifted past P, and each one P
extends is joined with P.  The bare origin is tried after the pass, and
P's quadrant is read against the child's origin.  So the intervals through
P come from the parent's in O(#intervals), by the extension rule: they are
the blocks B = (a, b, lo, hi) with a <= p <= b + 1 and lo <= v <= hi + 1,
each joined with P into (a, b + 1, lo, hi + 1), for B a parent interval
or the bare origin.  Proof: in the child, B's positions are a..b with
those at or past p moved up one, so with p they fill a run exactly when
a <= p <= b + 1, and that run is a..b + 1; values likewise.  Conversely, a
proper child interval through P, less P and re-standardised, is a block
of the parent around the origin that is not the whole parent, so a parent
interval or the bare origin.  `trie_images` grows every word of the
pin-word trie, or of a nested-dict trie it is given, at one step per word,
and yields each image as its raw (filled, origin index) pair, which its
callers, the verify-tables walk and a spec's factor counts, only hash;
`check_node` checks a walked word against the point route.  The two routes
share no placement code.
"""

from __future__ import annotations

from ._value import Value
from .cperm import (
    QUADRANT_POINT,
    QUADRANT_SIGNS,
    CentredPerm,
    box_sum,
    centred_pattern,
    is_box_indecomposable,
    quadrant_of,
)
from .errors import CrossCheckMismatch, IndexOutOfRange, NotInterior
from .pinword import NEXT_LETTERS, PinWord, as_word


def _axis(sign: int, letters: str, high: str, low: str) -> list[int]:
    """One coordinate of p0..p_n, with p1 at ``sign`` beside the origin.

    The points' order along the axis is a doubly linked list over point
    indices.  A point for ``high`` (``low``) takes the high (low) end; any
    other goes beside p_{t-1}, on the inner side: just below it if p_{t-1}
    holds the high end, else just above it.  The ranks are read once at the
    end, from min(0, sign) minus the number of ``low`` letters upwards, as
    each ``low`` point lowers the minimum by one and no other point moves it."""
    n = len(letters) + 2
    up = [-1] * n  # the next point up the axis
    down = [-1] * n
    lo, hi = (0, 1) if sign > 0 else (1, 0)
    up[lo], down[hi] = hi, lo
    for t, c in enumerate(letters, 2):
        if c == high:
            up[hi], down[t], hi = t, hi, t
        elif c == low:
            down[lo], up[t], lo = t, lo, t
        else:
            q = t - 1 if t - 1 != hi else down[hi]  # the new point goes just above q
            r = up[q]
            up[q], down[t], up[t], down[r] = t, q, r, t
    start = min(0, sign) - letters.count(low)
    out = [0] * n
    t = lo
    for v in range(start, start + n):
        out[t] = v
        t = up[t]
    return out


def diagram_points(w) -> list[tuple[int, int]]:
    """Integer-rank coordinates of p0..p_n for the word w, in placement
    order; O(n), one linked list per axis (`_axis`)."""
    w = as_word(w)
    sx, sy = QUADRANT_SIGNS[w.numeral]
    return list(zip(_axis(sx, w.letters, "r", "l"), _axis(sy, w.letters, "u", "d")))


def _seed(numeral: int):
    """The node of a bare numeral: its one-point image, whose point is the
    entry beside the origin, no proper ∘-interval, one quadrant."""
    p = QUADRANT_POINT[numeral]
    return p.filled, p.origin_index, 3 - p.origin_index, (), frozenset((numeral,))


def _grow(node, letter: str):
    """The image-level placement step: the node of a word's image after
    one more point for ``letter``.

    A node is (filled, origin index, position of the last point, proper
    non-trivial ∘-intervals as (a, b, lo, hi) for positions a..b and
    values lo..hi, quadrant set).  The last point is extreme on the axis
    the letter does not move along, so the new point P = (p, v) takes the
    extreme value (u/d) or position (r/l), and its other coordinate goes
    just inside the last point's: one insertion into a list copy of the
    image, whose values above the new one are shifted by one as it is
    copied.

    The child's intervals are the parent's that P does not split, shifted
    past P, and, for each block B = (a, b, lo, hi) that is a parent
    interval or the bare origin (k, k, vo, vo) with a <= p <= b + 1 and
    lo <= v <= hi + 1, B joined with P as (a, b + 1, lo, hi + 1).  Proof:
    B's shifted positions and values, with P's, are runs exactly then; and a
    proper child interval through P, less P, is a block of the parent
    around the origin short of the whole parent, so one of the B.

    One pass over the parent's intervals keeps each unsplit one and joins
    each one P extends.  The bare origin is tried after the pass, at the
    parent's index k and value vo, which is the child's origin value less
    one if that is above v.  P's quadrant is read inline, against the
    child's origin."""
    f, k, last, intervals, quadrants = node
    m = len(f)
    if letter in "ud":
        p = last if last == m else last + 1
        if letter == "u":
            v = m + 1
            g = list(f)
        else:
            v = 1
            g = [x + 1 for x in f]
    else:
        p = m + 1 if letter == "r" else 1
        if f[last - 1] == m:  # the last point is on top: the new one goes just below
            v = m
            g = list(f)
            g[last - 1] = m + 1
        else:  # the last point is at the bottom: the new one goes just above
            v = 2
            g = [x + 1 for x in f]
            g[last - 1] = 1
    g.insert(p - 1, v)
    g = tuple(g)
    found = []
    for a, b, lo, hi in intervals:
        if not (a < p <= b or lo < v <= hi):
            found.append((a + (a >= p), b + (b >= p), lo + (lo >= v), hi + (hi >= v)))
        if a <= p <= b + 1 and lo <= v <= hi + 1:
            found.append((a, b + 1, lo, hi + 1))
    j = k + (k >= p)  # the child's origin index
    vo = g[j - 1]
    if vo > v:  # P is below the origin
        vo -= 1
        q = 4 if p > j else 3
    else:
        q = 1 if p > j else 2
    if k <= p <= k + 1 and vo <= v <= vo + 1:
        found.append((k, k + 1, vo, vo + 1))
    if q not in quadrants:
        quadrants = quadrants | {q}
    return g, j, p, found, quadrants


# The (letter, None) children of a word by its last letter, in reverse
# LETTERS order, so that a stack pops them in LETTERS order.
_CHILDREN = {last: tuple((c, None) for c in reversed(cs)) for last, cs in NEXT_LETTERS.items()}


def trie_images(root, n_max: int, trie=None):
    """Yield (word text, image as its (filled, origin index) pair,
    ⊞-indecomposable?, quadrant set) for root and every extension of it up
    to length n_max, depth first.  Each word's node is its parent's plus
    one `_grow` step, so a word costs one placement and one pass over its
    parent's ∘-intervals.  ``trie``, if given, is a nested dict from each
    letter that may follow the root to its own such dict, and the walk
    keeps to the words it spells, in the trie's insertion order; without
    it, every letter that may follow a word extends it, in LETTERS order.
    A word's children are pushed in one plain loop, in reverse, from
    `_CHILDREN` or the reversed trie items; `_grow` is looked up at each
    step."""
    root = as_word(root)
    node = _seed(root.numeral)
    for letter in root.letters:
        node = _grow(node, letter)
    stack = [(str(root), root.letters[-1:], trie, node)]
    pop, push = stack.pop, stack.append
    while stack:
        text, last, sub, node = pop()
        f, k, _, intervals, quadrants = node
        yield text, (f, k), not intervals, quadrants
        if len(f) <= n_max:  # the word has len(f) - 1 points
            for c, below in _CHILDREN[last] if sub is None else reversed(sub.items()):
                push((text + c, c, below, _grow(node, c)))


def check_node(w, image: tuple, indecomposable: bool) -> CentredPerm:
    """Check a `trie_images` node of the word w (or its text) against the
    routes built from scratch: its image pair against `pi_map`, its flag
    against `is_box_indecomposable`.  Returns the image built from scratch."""
    fresh = pi_map(w)
    if image != (fresh.filled, fresh.origin_index):
        raise CrossCheckMismatch(f"walked image {image} of {w} differs from its pi-map {fresh}")
    if indecomposable != is_box_indecomposable(fresh):
        raise CrossCheckMismatch(
            f"carried ⊞-indecomposability {indecomposable} of {w} differs from its image {fresh}"
        )
    return fresh


class PinDiagram(Value, args=("word",)):
    """A realized pin word: placement-ordered points plus the derived permutation."""

    __slots__ = ("word", "points")

    def __init__(self, word: PinWord):
        word = as_word(word)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "points", tuple(diagram_points(word)))

    def __repr__(self) -> str:
        return f"PinDiagram(word={self.word!r})"

    @property
    def perm(self) -> CentredPerm:
        return centred_pattern(self.points, self.points[0])

    def quadrant(self, k: int) -> int:
        if not 1 <= k <= self.word.length:
            raise IndexOutOfRange(f"point index {k} outside 1..{self.word.length}")
        return quadrant_of(self.points[k], self.points[0])

    def to_svg(self, scale: int = 32) -> str:
        """Standalone SVG: axes through the origin, pins, hollow origin dot."""
        pts = self.points
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        pad = scale

        def px(x):
            return pad + (x - min(xs)) * scale

        def py(y):
            return pad + (max(ys) - y) * scale

        width = px(max(xs)) + pad
        height = py(min(ys)) + pad
        x0, y0 = pts[0]
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<line x1="{px(x0)}" y1="0" x2="{px(x0)}" y2="{height}" '
            'stroke="#bbbbbb" stroke-dasharray="4 3"/>',
            f'<line x1="0" y1="{py(y0)}" x2="{width}" y2="{py(y0)}" '
            'stroke="#bbbbbb" stroke-dasharray="4 3"/>',
        ]
        half = scale // 2
        for k, letter in enumerate(self.word.letters, 2):
            x, y = pts[k]
            qx, qy = pts[k - 1]
            if letter == "l":
                end = (px(qx) + half, py(y))
            elif letter == "r":
                end = (px(qx) - half, py(y))
            elif letter == "u":
                end = (px(x), py(qy) + half)
            else:
                end = (px(x), py(qy) - half)
            out.append(
                f'<line x1="{px(x)}" y1="{py(y)}" x2="{end[0]}" y2="{end[1]}" '
                'stroke="black" stroke-width="2"/>'
            )
        for k, (x, y) in enumerate(pts):
            if k == 0:
                out.append(
                    f'<circle cx="{px(x)}" cy="{py(y)}" r="5" fill="white" '
                    'stroke="black" stroke-width="2"/>'
                )
            else:
                out.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="4" fill="black"/>')
            label = "p0" if k == 0 else f"p{k}"
            out.append(
                f'<text x="{px(x) + 7}" y="{py(y) - 7}" font-size="{scale // 3}" '
                f'font-family="sans-serif">{label}</text>'
            )
        out.append("</svg>")
        return "\n".join(out)

    def to_ascii(self) -> str:
        """Plain-text grid: 'o' origin, points labelled by placement order (base 36)."""
        pts = self.points
        xs = sorted({x for x, _ in pts})
        ys = sorted({y for _, y in pts})
        col = {x: i for i, x in enumerate(xs)}
        row = {y: len(ys) - 1 - i for i, y in enumerate(ys)}
        grid = [["."] * len(xs) for _ in range(len(ys))]
        x0, y0 = pts[0]
        for x in xs:
            grid[row[y0]][col[x]] = "-"
        for y in ys:
            grid[row[y]][col[x0]] = "|"
        digits = "0123456789abcdefghijklmnopqrstuvwxyz"
        for k, (x, y) in enumerate(pts):
            grid[row[y]][col[x]] = "o" if k == 0 else digits[k % 36]
        return "\n".join(" ".join(line) for line in grid)


def pi_map(w) -> CentredPerm:
    """The centred pin permutation of a pin word."""
    return PinDiagram(w).perm


def point_quadrant(w, k: int) -> int:
    """Quadrant of p_k relative to the origin in the diagram of w."""
    return PinDiagram(w).quadrant(k)


def all_point_quadrants(w) -> dict[int, int]:
    """Quadrants of every placed point, keyed by 1-based placement index."""
    d = PinDiagram(w)
    return {k: d.quadrant(k) for k in range(1, d.word.length + 1)}


def remove_interior_point(w, k: int) -> tuple[CentredPerm, CentredPerm]:
    """Split at an interior point: pi(w) - {p_k} = pi(w_{1,k-1}) ⊞ pi(w_{k+1,n}).

    Returns the two summands and asserts their box sum equals the literal
    deletion of p_k from the diagram.
    """
    w = as_word(w)
    n = w.length
    if not 2 <= k <= n - 1:
        raise NotInterior(f"point {k} is not interior to a length-{n} word")
    d = PinDiagram(w)
    left = pi_map(PinWord(w.numeral, w.letters[: k - 2]))
    right = pi_map(PinWord(d.quadrant(k + 1), w.letters[k:]))
    remaining = [p for i, p in enumerate(d.points) if i != k]
    deleted = centred_pattern(remaining, d.points[0])
    summed = box_sum(left, right)
    if summed != deleted:
        raise CrossCheckMismatch(
            f"box sum {summed} does not match deletion {deleted} for {w}, k={k}"
        )
    return left, right


def compose_representation(words) -> CentredPerm:
    """Left-fold of the box sum over the pi-maps of a pin representation."""
    words = [as_word(w) for w in words]
    if not words:
        raise IndexOutOfRange("a pin representation needs at least one word")
    acc = pi_map(words[0])
    for w in words[1:]:
        acc = box_sum(acc, pi_map(w))
    return acc

