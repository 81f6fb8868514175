"""Classification of ⊞-decomposable and colliding pin words, as family data.

Both tables are families of words that grow by a letter pair put in after
the numeral, and their images under the eight symmetries of the square.
Every count over them repeats with period 2 from `PERIODIC_FROM`, the
longest family's first length plus 4, past every single-member family: a
symmetry commutes with pair insertion, and from its third member on a family
keeps one numeral, first letter and set of adjacent letter pairs, which fix
its quadrants (`pipeline._word_quadrants`) and tell distinct images apart.

Words here are valid by construction, so the tables and the verifier hold
word texts (``"1ldr"``); `PinWord` validates only input from outside, and
this module builds one only in `all_pin_words`.  The lookups accept a
PinWord or its text.  `SYMMETRIES` writes the eight sign matrices out; each
translates a word's text with one table (rotations permute the quadrant
numerals cyclically and the letters r, u, l, d likewise; reflections swap a
letter pair and two numeral pairs).  An exhaustive verifier re-derives both
tables from scratch and reports any disagreement.  It walks the pin-word
trie once for every length up to its bound (at most _VERIFY_GUARD), depth
first from the words of length _ROOT_LENGTH: each word's image and
⊞-indecomposability are its parent's plus one placed point (one
`pimap._grow` step), and each word goes straight into its length's tables,
keyed by its image as one int: the first word text of each image, every
text of an image that repeats, and the decomposable texts.  Under each
root, the first deepest leaf and the first word flagged decomposable are
checked against the routes built from scratch (`pimap.check_node`).  The
verifier returns one JSON-ready dict a length, which `verify-tables` prints
as it is: the derived decomposable words and collision groups as sorted
lists, whether both match the tables, and a message for each that does not.
"""

from __future__ import annotations

from functools import lru_cache

from . import pimap
from .cperm import QUADRANT_SIGNS, CentredPerm, centred_pattern, quadrant_of
from .errors import CensusTooLarge, ParameterOutOfRange
from .pimap import check_node
from .pinword import NEXT_LETTERS, PinWord

_LETTER_VEC = {"r": (1, 0), "u": (0, 1), "l": (-1, 0), "d": (0, -1)}
_VEC_LETTER = {v: k for k, v in _LETTER_VEC.items()}


class Symmetry:
    """One of the eight symmetries of the square, as a 2x2 sign matrix."""

    __slots__ = ("name", "matrix", "_table")

    def __init__(self, name: str, matrix):
        self.name = name
        self.matrix = matrix
        self._table = {ord(c): _VEC_LETTER[self.apply_xy(*v)] for c, v in _LETTER_VEC.items()}
        self._table.update({ord(str(q)): str(self.numeral(q)) for q in QUADRANT_SIGNS})

    def apply_xy(self, x, y):
        (a, b), (c, d) = self.matrix
        return (a * x + b * y, c * x + d * y)

    def numeral(self, q: int) -> int:
        return quadrant_of(self.apply_xy(*QUADRANT_SIGNS[q]), (0, 0))

    def word(self, w) -> str:
        """The image of a word (a PinWord or its text) as text: one table
        maps its numeral as `numeral` does and each letter's unit step as
        `apply_xy` does."""
        return str(w).translate(self._table)

    def perm(self, p: CentredPerm) -> CentredPerm:
        pts = [self.apply_xy(i, v) for i, v in p.points()]
        origin = self.apply_xy(*p.origin_point())
        return centred_pattern(pts, origin)

    def __repr__(self) -> str:
        return f"Symmetry({self.name})"


SYMMETRIES = (
    Symmetry("id", ((1, 0), (0, 1))),
    Symmetry("rot90", ((0, -1), (1, 0))),
    Symmetry("rot180", ((-1, 0), (0, -1))),
    Symmetry("rot270", ((0, 1), (-1, 0))),
    Symmetry("refl_y", ((-1, 0), (0, 1))),
    Symmetry("refl_x", ((1, 0), (0, -1))),
    Symmetry("diag", ((0, 1), (1, 0))),
    Symmetry("antidiag", ((0, -1), (-1, 0))),
)


_DECOMPOSABLE_FAMILIES = ((("1l", "ld"),), (("1ld", "ld"),), (("1uld", "ur"),), (("1ruld", "ru"),))
_COLLISION_FAMILIES = (
    (("1u", ""), ("1r", "")),
    (("1ul", ""), ("2ru", "")),
    (("1ldr", ""), ("2dru", ""), ("3rul", ""), ("4uld", "")),
    (("1uldl", ""), ("3luru", "")),
    (("1ldlu", ""), ("2dlur", "")),
    (("1ldldr", "ld"), ("2dldru", "dl")),
    (("1ldldlu", "ld"), ("2dldlur", "dl")),
)
PERIODIC_FROM = 4 + max(len(f[0][0]) for f in _DECOMPOSABLE_FAMILIES + _COLLISION_FAMILIES)


def _groups(families, n: int):
    """The groups of length n of a table of families, before the symmetries.
    A word family (text, pair) holds text[0] + pair*k + text[1:] for k >= 0,
    or text alone if the pair is empty; a table family is a tuple of word
    families, whose members of one length form one group."""
    for family in families:
        k, odd = divmod(n - len(family[0][0]), 2)
        if k >= 0 and not odd and (k == 0 or family[0][1]):
            yield [text[0] + pair * k + text[1:] for text, pair in family]


@lru_cache(maxsize=None)
def decomposable_words(n: int) -> frozenset[str]:
    """All ⊞-decomposable pin word texts of length n, from the family table."""
    groups = _groups(_DECOMPOSABLE_FAMILIES, n)
    return frozenset(s.word(w) for group in groups for w in group for s in SYMMETRIES)


def is_decomposable_word(w) -> bool:
    """True iff pi_map(w) is ⊞-decomposable, by table lookup (w: PinWord or text)."""
    text = str(w)
    return text in decomposable_words(len(text))


@lru_cache(maxsize=None)
def collision_groups_at(n: int) -> frozenset[frozenset[str]]:
    """All collision groups (size >= 2) among pin word texts of length n."""
    groups = _groups(_COLLISION_FAMILIES, n)
    return frozenset(frozenset(map(s.word, group)) for group in groups for s in SYMMETRIES)


def collision_group(w) -> frozenset[str]:
    """The full colliding set of texts containing w (a PinWord or its
    text); {w's text} when w collides with nothing."""
    text = str(w)
    for group in collision_groups_at(len(text)):
        if text in group:
            return group
    return frozenset({text})


def all_pin_words(n: int) -> list[PinWord]:
    """Every valid pin word of length n (4 at n=1, 2^(n+2) for n >= 2), in
    LETTERS extension order.  The letter strings are built down the trie
    first, so each word is built and validated once."""
    if n < 1:
        return []
    strings = [""]
    for _ in range(n - 1):
        strings = [s + c for s in strings for c in NEXT_LETTERS[s[-1:]]]
    return [PinWord(q, s) for q in (1, 2, 3, 4) for s in strings]


# Words of this length root the trie walk.
_ROOT_LENGTH = 2
# The walk holds every word's image up to n_max, 2^(n+2) words of length n;
# pipeline._TAIL_WINDOW reads the tables up to this length.
_VERIFY_GUARD = 16


def _walk(root: PinWord, n_max: int, tables: dict[int, tuple[dict, dict, list]]) -> None:
    """Add root and its extensions up to length n_max to tables, which
    holds per length: image key -> first word text, image key -> every
    word text for a key that repeats, and the decomposable word texts.

    The walk is depth first in LETTERS order, one `pimap._grow` step a
    word.  An image's key is its lane int with the origin index as one
    more 16-bit lane below, f << 16 | k, one-to-one as k <= m <= 0xFFFF.
    The first deepest leaf and the first word flagged decomposable are
    checked against the routes built from scratch (`check_node`)."""
    grow = pimap._grow
    node = pimap._seed(root.numeral, n_max)
    for letter in root.letters:
        node = grow(node, letter)
    leaf = decomposable = None
    stack = [(str(root), root.letters[-1:], node)]
    pop, push = stack.pop, stack.append
    while stack:
        text, last, node = pop()
        f, k, _, _, _, intervals, _, _ = node
        n = len(text)
        firsts, groups, decs = tables[n]
        key = f << 16 | k
        first = firsts.setdefault(key, text)
        if first is not text:  # the key is a repeat: its group gets text
            groups.setdefault(key, [first]).append(text)
        if intervals:
            decs.append(text)
            if decomposable is None:
                decomposable = text, node
        if n < n_max - 1:
            for c in reversed(NEXT_LETTERS[last]):  # so the stack pops LETTERS order
                push((text + c, c, grow(node, c)))
        elif n < n_max:  # the children are leaves: tabulate them here, in LETTERS order
            firsts, groups, decs = tables[n_max]
            for c in NEXT_LETTERS[last]:
                word, child = text + c, grow(node, c)
                f, k, _, _, _, intervals, _, _ = child
                key = f << 16 | k
                first = firsts.setdefault(key, word)
                if first is not word:
                    groups.setdefault(key, [first]).append(word)
                if intervals:
                    decs.append(word)
                    if decomposable is None:
                        decomposable = word, child
                if leaf is None:
                    leaf = word, child
        elif leaf is None:
            leaf = text, node
    for found in (leaf, decomposable):
        if found is not None:
            text, (f, k, _, _, _, intervals, quadrants, _) = found
            check_node(text, (f, k), not intervals, quadrants)


def _derive(n_max: int) -> dict[int, tuple[set, set]]:
    """Per length 1..n_max: the decomposable words and the collision groups,
    from one walk of the pin-word trie.  Words shorter than the roots are
    walked on their own, each to its own length."""
    tables = {n: ({}, {}, []) for n in range(1, n_max + 1)}
    for n in range(1, _ROOT_LENGTH + 1):
        for root in all_pin_words(n):
            _walk(root, n_max if n == _ROOT_LENGTH else n, tables)
    return {
        n: (set(decs), set(map(frozenset, groups.values())))
        for n, (_, groups, decs) in tables.items()
    }


def verify_tables(n_max: int = 12) -> list[dict]:
    """Re-derive both tables exhaustively for every n <= n_max and compare.

    One JSON-ready record per length n = 1..n_max: its `length`, the
    derived `decomposable_words` sorted, the derived `collision_groups`
    each sorted and then sorted as a list, `table_match`, and the
    `discrepancies`, one message for each table that disagrees.  A
    disagreement is reported in the record, never raised.
    """
    if n_max < 2:
        raise ParameterOutOfRange(f"n_max must be at least 2, got {n_max}")
    if n_max > _VERIFY_GUARD:
        raise CensusTooLarge(f"verify-tables depth {n_max} exceeds the guard {_VERIFY_GUARD}")
    reports = []
    for n, (decs, groups) in _derive(n_max).items():
        report = {"length": n}
        discrepancies = []
        # a word sorts as itself (str), a group as its sorted list of texts
        for field, kind, form, derived, tabled in (
            ("decomposable_words", "decomposables", str, decs, decomposable_words(n)),
            ("collision_groups", "collision groups", sorted, groups, collision_groups_at(n)),
        ):
            report[field] = sorted(map(form, derived))
            if derived != tabled:
                extra = sorted(map(form, derived - tabled))
                missing = sorted(map(form, tabled - derived))
                discrepancies.append(f"{kind} at n={n}: not in table {extra}, not found {missing}")
        report.update(table_match=not discrepancies, discrepancies=discrepancies)
        reports.append(report)
    return reports


def overcount_series(factor_sets_by_length: dict) -> dict[int, int]:
    """How far word counts overshoot permutation counts due to collisions.

    For each length n and its words S (PinWords or texts), sums
    max(0, |g ∩ S| - 1) over the collision groups g of length n: a fully
    present pair contributes 1, a present quadruple 3.
    """
    out: dict[int, int] = {}
    for n, words in factor_sets_by_length.items():
        texts = set(map(str, words))
        out[n] = sum(max(0, len(g & texts) - 1) for g in collision_groups_at(n))
    return out
