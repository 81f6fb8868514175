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
rule to a word's image, one insertion per point.  The image is its m
one-line values in 16-bit lanes of one int, the first value in the top
lane, which holds every walk to depth 65534.  Every value moving up one is
one add of a repunit, the top point moving up one is one add of a lane
unit, and the new point goes in with a mask, a shift and two adds; the node
carries the origin value and whether the last point is on top, so no value
is decoded.  The step carries the image's proper ∘-intervals (so its
⊞-indecomposability) and its quadrant set from the parent, and reads the
new point P = (p, v)'s quadrant against the child's origin.

Lemma: an interval of a pin image that holds the origin and p_k holds
p_{k+1}.  For p_{k+1} lies strictly between p_k and the bounding box of
{p0..p_{k-1}}, so between p_k and the origin, on one axis (the pin
separation condition; Brignall, Huczynska & Vatter, "Decomposing simple
permutations, with enumerative consequences", Combinatorica 2008), and an
interval holds each point between two of its own on an axis.  So every
∘-interval is the origin plus a suffix p_j..p_n, and every child interval
holds P.  The child's are then, by the extension rule, the blocks
B = (a, b, lo, hi) with a <= p <= b + 1 and lo <= v <= hi + 1, each joined
with P into (a, b + 1, lo, hi + 1), for B a parent interval or the bare
origin: O(#intervals).  Proof: in the child, B's positions are a..b with
those at or past p moved up one, so with p they fill a run exactly when
a <= p <= b + 1, and that run is a..b + 1; values likewise.  Conversely, a
proper child interval, less P and re-standardised, is a block of the parent
around the origin that is not the whole parent, so a parent interval or the
bare origin.  Two walks take one `_grow` step a word: `classify._walk`
(every word under a root, depth first, for verify-tables) and
`prefix_levels` (given texts' prefixes, one length at a time, for a spec's
factors); their callers only hash an image.  `check_node` checks a walked
word against the point route.  The two routes share no placement code.
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
from .errors import CrossCheckMismatch, IndexOutOfRange, NotInterior, ParameterOutOfRange
from .pinword import PinWord, as_word


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


# A word of n points has n + 1 values, each at most n + 1, so a 16-bit
# lane holds every value of a walk to this depth.
_MAX_DEPTH = 0xFFFF - 1


def _lanes(depth: int):
    """The lane tables of a walk to ``depth``, by lane count j = 0..depth:
    units[j] = 2^(16j), the unit of lane j; masks[j] = units[j] - 1, which
    keeps the low j lanes; repunits[j], 1 in each of the low j lanes, which
    added to a j-value image adds one to every value."""
    if depth > _MAX_DEPTH:
        raise ParameterOutOfRange(f"the image walk reaches depth {_MAX_DEPTH}, asked for {depth}")
    units = [1 << 16 * j for j in range(depth + 1)]
    masks = [u - 1 for u in units]
    return units, masks, [mask // 0xFFFF for mask in masks]


def _encode(values) -> int:
    """One-line values as 16-bit lanes of one int, the first value on top."""
    out = 0
    for v in values:
        out = out << 16 | v
    return out


def _decode(image: int) -> list[int]:
    """The one-line values of a lane image."""
    m = image.bit_length() + 15 >> 4
    return [image >> 16 * i & 0xFFFF for i in reversed(range(m))]


def _seed(numeral: int, depth: int):
    """The node of a bare numeral in a walk to ``depth``: its one-point
    image, whose point is the entry beside the origin, no proper
    ∘-interval, one quadrant, and the walk's lane tables."""
    p = QUADRANT_POINT[numeral]
    f, k = p.filled, p.origin_index
    last = 3 - k
    return _encode(f), k, f[k - 1], last, f[last - 1] == 2, (), frozenset((numeral,)), _lanes(depth)


def _grow(node, letter: str):
    """The image-level placement step: the node of a word's image after
    one more point for ``letter``.

    A node is (image, origin index, origin value, position of the last
    point, is the last point on top?, proper non-trivial ∘-intervals as
    (a, b, lo, hi) for positions a..b and values lo..hi, quadrant set, lane
    tables).  The image holds the m one-line values in 16-bit lanes of one
    int, position p in lane m - p.  The last point is extreme on the axis
    the letter does not move along, so the new point P = (p, v) takes the
    extreme value (u/d) or position (r/l), and its other coordinate goes
    just inside the last point's: for r/l, just below a last point on top,
    which moves up one (one lane-unit add), or just above one at the bottom,
    which stays at 1 while the values above it move up one (a repunit add
    less that lane unit).  P goes in between positions p - 1 and p: the
    lanes of positions p..m stay, those above move up one lane, and v fills
    the lane between, so no value is decoded.

    Every child interval holds P (the lemma in the module docstring), so
    one pass joins with P each parent interval, and then the bare origin
    (k, k, vo, vo), that P extends (a <= p <= b + 1, lo <= v <= hi + 1), as
    (a, b + 1, lo, hi + 1).  P's quadrant is read against the child's origin."""
    f, k, vo, last, top, intervals, quadrants, lanes = node
    units, masks, repunits = lanes
    m = f.bit_length() + 15 >> 4
    if letter in "ud":
        p = last if last == m else last + 1
        if letter == "u":
            v = m + 1
        else:
            v = 1
            f += repunits[m]
    else:
        p = m + 1 if letter == "r" else 1
        if top:
            v = m
            f += units[m - last]
        else:
            v = 2
            f += repunits[m] - units[m - last]
    t = m + 1 - p  # the lanes of positions p..m
    low = f & masks[t]
    g = (f - low << 16) + v * units[t] + low
    found = []
    for a, b, lo, hi in intervals:
        if a <= p <= b + 1 and lo <= v <= hi + 1:
            found.append((a, b + 1, lo, hi + 1))
    if k <= p <= k + 1 and vo <= v <= vo + 1:
        found.append((k, k + 1, vo, vo + 1))
    j = k + (k >= p)  # the child's origin index
    if vo >= v:  # P is below the origin
        vo += 1
        q = 4 if p > j else 3
    else:
        q = 1 if p > j else 2
    if q not in quadrants:
        quadrants = quadrants | {q}
    return g, j, vo, p, letter == "u", found, quadrants, lanes


def prefix_levels(texts):
    """Yield, for n = 1 up to the length of the pin word ``texts`` (all of
    one length), their distinct length-n prefixes as (text, image as its
    (lane int, origin index) pair, ⊞-indecomposable?, quadrant set), one
    list a length, in sorted order.  Sorted, a text that first differs
    from the one before at position j starts a run of texts with one prefix
    at length j + 1, grown from the run before it: one `_grow` per prefix."""
    texts = sorted(set(texts))
    depth = len(texts[0]) if texts else 0
    born = [[] for _ in range(depth)]  # run starts, by the position they differ at
    for i, (before, text) in enumerate(zip(["", *texts], texts)):
        born[next((j for j, (a, b) in enumerate(zip(before, text)) if a != b), 0)].append(i)
    level: dict = {}
    for n in range(depth):
        grow, node, parents, level = _grow, None, level, {}
        for i in sorted([*parents, *born[n]]):
            node = parents.get(i, node)
            level[i] = grow(node, texts[i][n]) if n else _seed(int(texts[i][0]), depth)
        yield [
            (texts[i][: n + 1], (f, k), not intervals, quadrants)
            for i, (f, k, _, _, _, intervals, quadrants, _) in level.items()
        ]


def check_node(w, image: tuple, indecomposable: bool, quadrants) -> None:
    """Check a walked node of the word w (or its text) against the routes
    built from scratch: its image pair against `pi_map`'s, in lanes, its
    flag against `is_box_indecomposable` and its quadrant set against the
    image's."""
    fresh = pi_map(w)
    f, k = image
    if f != _encode(fresh.filled) or k != fresh.origin_index:
        raise CrossCheckMismatch(
            f"walked image {_decode(f)} with origin index {k} of {w} "
            f"differs from its pi-map {fresh}"
        )
    if indecomposable != is_box_indecomposable(fresh):
        raise CrossCheckMismatch(
            f"carried ⊞-indecomposability {indecomposable} of {w} differs from its image {fresh}"
        )
    if quadrants != fresh.quadrants():
        raise CrossCheckMismatch(f"carried quadrants {set(quadrants)} of {w} differ from {fresh}")


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

