"""The tuple image walk, kept as the reference for the lane one in
`pinclasses.pimap`.

A node is (filled, origin index, position of the last point, proper
non-trivial ∘-intervals as (a, b, lo, hi), quadrant set), with ``filled``
the one-line tuple.  In `_grow` each step copies the tuple into a list,
shifts every value by one where values move, inserts the new point and
rebuilds the tuple.  `trie_images` walks them depth first, as
`classify._walk` does, and yields (text, (filled, origin index), flag,
quadrant set); given a nested-dict trie (`trie_of`), it keeps to the words
the trie spells, so it walks the words whose levels `pimap.prefix_levels`
grows breadth first.  `factor_tables` counts a spec's factor images over
the trie of its longest factors, the counts `pipeline._factor_counts`
takes level by level, with none of its checks.  `lanes` and `one_line`
convert between a one-line tuple and the package's lane image.
"""

import struct
from collections import Counter

from pinclasses.cperm import QUADRANT_POINT
from pinclasses.pinword import NEXT_LETTERS, PinSpec, PinWord, as_word, enumerate_pin_factors


def lanes(values) -> int:
    """One-line values as 16-bit lanes of one int, the first on top."""
    return int.from_bytes(struct.pack(f">{len(values)}H", *values), "big")


def one_line(image: int) -> tuple:
    """The one-line values of a lane image."""
    m = -(-image.bit_length() // 16)
    return struct.unpack(f">{m}H", image.to_bytes(2 * m, "big"))


def _seed(numeral: int):
    p = QUADRANT_POINT[numeral]
    return p.filled, p.origin_index, 3 - p.origin_index, (), frozenset((numeral,))


def _grow(node, letter: str):
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


def trie_images(root, n_max: int, trie=None):
    """A depth-first walk on one-line tuples; with ``trie``, a nested dict
    from each letter that may follow the root to its own such dict, only
    the words it spells, in its insertion order."""
    root = as_word(root)
    node = _seed(root.numeral)
    for letter in root.letters:
        node = _grow(node, letter)
    stack = [(str(root), root.letters[-1:], trie, node)]
    while stack:
        text, last, sub, node = stack.pop()
        f, k, _, intervals, quadrants = node
        yield text, (f, k), not intervals, quadrants
        if len(f) <= n_max:
            children = NEXT_LETTERS[last] if sub is None else sub
            for c in reversed(list(children)):
                below = None if sub is None else sub[c]
                stack.append((text + c, c, below, _grow(node, c)))


def trie_of(texts) -> dict:
    """The nested-dict trie of the strings ``texts``."""
    trie: dict = {}
    for text in texts:
        node = trie
        for c in text:
            node = node.setdefault(c, {})
    return trie


def factor_trie(spec: PinSpec, window: int, mode: str) -> dict:
    """The trie of the texts of a spec's longest factors, of length
    ``window``: its words are the factors `pipeline._factor_counts`
    counts."""
    return trie_of(str(w) for w in enumerate_pin_factors(spec, window, mode))


def factor_tables(spec: PinSpec, mode: str) -> dict[int, tuple[int, ...]]:
    """`pipeline._factor_counts` over the tuple walk: per length, the
    distinct ⊞-indecomposable factor images, in all and by the one quadrant
    each lies in."""
    window = spec.prefix_length + 3 * spec.cycle_length + 2
    images: dict[int, dict] = {n: {} for n in range(1, window + 1)}
    for numeral, sub in factor_trie(spec, window, mode).items():
        for text, img, indec, quadrants in trie_images(PinWord(int(numeral)), window, sub):
            one = next(iter(quadrants)) if len(quadrants) == 1 else None
            images[len(text)][img] = indec, one
    table = {}
    for n, found in images.items():
        tally = Counter(found.values())
        by_quadrant = [tally[True, q] for q in (1, 2, 3, 4)]
        table[n] = (tally[True, None] + sum(by_quadrant), *by_quadrant)
    return table
