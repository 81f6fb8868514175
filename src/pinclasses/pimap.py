"""The pi-map: realizing pin words as centred permutations.

Points are placed on an integer rank grid.  The origin p0 sits at (0,0); p1
goes one step diagonally into its numeral's quadrant; every later point p_k
takes a fresh extreme rank in its letter's direction while its perpendicular
coordinate is inserted strictly between the bounding rectangle of
{p0..p_{k-2}} and p_{k-1}, on p_{k-1}'s side.  Insertion shifts existing
ranks up by one, so no real coordinates are ever needed, and each axis's
coordinates always form a contiguous range: a diagram's image is read off
in O(n) (`diagram_image`).  Growing diagrams share one placement step,
`_place`, and one walker, `trie_images`: it grows every word of a trie, or
of the sub-trie its child filter keeps, at one placement per word.  The
verify-tables walk and the factor images of a spec both use it.  `pi_map`
builds each diagram from scratch and standardizes it by sorting: it is the
independent route the walker is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cperm import QUADRANT_SIGNS, CentredPerm, box_sum, centred_pattern, quadrant_of
from .errors import CrossCheckMismatch, IndexOutOfRange, NotInterior
from .pinword import NEXT_LETTERS, PinWord, as_word


def _first_points(numeral: int) -> list[tuple[int, int]]:
    return [(0, 0), QUADRANT_SIGNS[numeral]]


def _place(pts: list[tuple[int, int]], letter: str) -> list[tuple[int, int]]:
    """The points after placing one more point for ``letter``; the step of
    every diagram.  ``pts`` itself is left unchanged."""
    px, py = pts[-1]
    if letter in "ud":
        ynew = max(y for _, y in pts) + 1 if letter == "u" else min(y for _, y in pts) - 1
        rxmax = max(x for x, _ in pts[:-1])
        xnew = rxmax + 1 if px > rxmax else px + 1
        out = [(x + 1 if x >= xnew else x, y) for x, y in pts]
    else:
        xnew = max(x for x, _ in pts) + 1 if letter == "r" else min(x for x, _ in pts) - 1
        rymax = max(y for _, y in pts[:-1])
        ynew = rymax + 1 if py > rymax else py + 1
        out = [(x, y + 1 if y >= ynew else y) for x, y in pts]
    out.append((xnew, ynew))
    return out


def diagram_points(w) -> list[tuple[int, int]]:
    """Integer-rank coordinates of p0..p_n for the word w, in placement order."""
    w = as_word(w)
    pts = _first_points(w.numeral)
    for letter in w.letters:
        pts = _place(pts, letter)
    return pts


def diagram_image(pts) -> CentredPerm:
    """The image of a diagram's points, origin first.  Placement keeps each
    axis's coordinates a contiguous range, so a coordinate's rank is its
    offset from the minimum: O(n), no sorting.  The result is therefore a
    permutation by construction and skips validation; `pi_map` is the
    validated route it is checked against."""
    xmin = min(x for x, _ in pts)
    ymin = min(y for _, y in pts)
    filled = [0] * len(pts)
    for x, y in pts:
        filled[x - xmin] = y - ymin + 1
    return CentredPerm._trusted(tuple(filled), pts[0][0] - xmin + 1)


def trie_images(root, n_max: int, children=None):
    """Yield (word text, image) for root and every extension of it up to
    length n_max, depth first.  Each word's diagram is its parent's plus one
    placed point, so a word costs one placement.  ``children(text)``, if
    given, returns the letters, each one that may follow the word, to extend
    a word shorter than n_max by; without it, every such letter in LETTERS
    order."""
    root = as_word(root)
    stack = [(str(root), root.letters[-1:], diagram_points(root))]
    while stack:
        text, last, pts = stack.pop()
        yield text, diagram_image(pts)
        if len(pts) <= n_max:  # the word has len(pts) - 1 points
            letters = NEXT_LETTERS[last] if children is None else children(text)
            stack.extend((text + c, c, _place(pts, c)) for c in reversed(letters))


@dataclass(frozen=True, slots=True)
class PinDiagram:
    """A realized pin word: placement-ordered points plus the derived permutation."""

    word: PinWord
    points: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        word = as_word(self.word)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "points", tuple(diagram_points(word)))

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
    """Quadrant of p_k relative to the origin in the diagram of w.

    This is the authority consulted by pin_factor and left_truncate for
    numeral reconstruction.
    """
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


def one_point_extension_candidates(rep) -> set[tuple[PinWord, ...]]:
    """All representations reachable by one extension step.

    Either a legal letter is appended to the last word, or a fresh
    single-numeral word is appended.  Dedup by permutation is left to the
    caller; the distinct images number at most 12.
    """
    rep = tuple(as_word(w) for w in rep)
    if not rep:
        raise IndexOutOfRange("a pin representation needs at least one word")
    out = {rep[:-1] + (w,) for w in rep[-1].extensions()}
    for q in (1, 2, 3, 4):
        out.add(rep + (PinWord(q),))
    return out
