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
⊞-indecomposability are its parent's plus one placed point
(`pimap.trie_images`), and each word goes straight into its length's
image -> word texts map and decomposable list.  The roots are also the
``jobs`` partition.  Under each root, the first
deepest leaf and the first word flagged decomposable are checked against
the pi-map and `is_box_indecomposable` built from scratch (`pimap.check_node`).
"""

from __future__ import annotations

from functools import lru_cache

from .cperm import QUADRANT_SIGNS, CentredPerm, centred_pattern, quadrant_of
from .errors import CensusTooLarge, ParameterOutOfRange
from .pimap import check_node, trie_images
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


class ClassificationReport:
    """Outcome of the exhaustive re-derivation at one length."""

    __slots__ = (
        "length",
        "decomposable_words",
        "collision_groups",
        "table_match",
        "discrepancies",
    )

    def __init__(self, length, decomposable_words, collision_groups, table_match, discrepancies):
        self.length = length
        self.decomposable_words = frozenset(decomposable_words)
        self.collision_groups = frozenset(frozenset(g) for g in collision_groups)
        self.table_match = bool(table_match)
        self.discrepancies = list(discrepancies)

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "decomposable_words": sorted(self.decomposable_words),
            "collision_groups": sorted(sorted(g) for g in self.collision_groups),
            "table_match": self.table_match,
            "discrepancies": self.discrepancies,
        }

    def __repr__(self) -> str:
        return (
            f"ClassificationReport(n={self.length}, dec={len(self.decomposable_words)}, "
            f"groups={len(self.collision_groups)}, match={self.table_match})"
        )


# Words of this length root the trie walk and partition it for ``jobs``.
_ROOT_LENGTH = 2
# The walk holds every word's image up to n_max, 2^(n+2) words of length n;
# pipeline._TAIL_WINDOW reads the tables up to this length.
_VERIFY_GUARD = 16
# An image key's last byte, the origin index, by index: one concatenation
# instead of a tuple of the whole image.
_INDEX_BYTE = [bytes((i,)) for i in range(_VERIFY_GUARD + 2)]


def _walk(root: PinWord, n_max: int) -> dict[int, tuple[dict, list]]:
    """Worker: for root and its extensions up to length n_max, per length,
    image key -> word texts and the decomposable word texts.  The first
    deepest leaf and the first word flagged decomposable are checked
    against the pi-map and the ⊞-indecomposability built from scratch."""
    tables = {n: ({}, []) for n in range(root.length, n_max + 1)}
    leaf = decomposable = None
    for text, img, indecomposable, _ in trie_images(root, n_max):
        n = len(text)
        images, decs = tables[n]
        key = bytes(img[0]) + _INDEX_BYTE[img[1]]  # bytes((*filled, origin index))
        images[key] = images.get(key, ()) + (text,)
        if not indecomposable:
            decs.append(text)
            if decomposable is None:
                decomposable = (text, img, indecomposable)
        if n == n_max and leaf is None:
            leaf = (text, img, indecomposable)
    for node in (leaf, decomposable):
        if node is not None:
            check_node(*node)
    return tables


def _walks(roots, limits, jobs: int):
    """The _walk of each root to its limit, in a pool of fresh interpreters
    when jobs > 1; one root is one task, so the pool has at most one worker
    per root."""
    if jobs == 1:
        yield from map(_walk, roots, limits)
        return
    # imported here, as the pool's modules are a quarter of `import pinclasses`
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    workers = min(jobs, len(roots))
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        yield from pool.map(_walk, roots, limits)


def _derive(n_max: int, jobs: int) -> dict[int, tuple[set, set]]:
    """Per length 1..n_max: the decomposable words and the collision groups,
    from one walk of the pin-word trie.  Words shorter than the roots are
    walked on their own, each to its own length."""
    roots = [w for n in range(1, _ROOT_LENGTH + 1) for w in all_pin_words(n)]
    limits = [n_max if w.length == _ROOT_LENGTH else w.length for w in roots]
    images = {n: {} for n in range(1, n_max + 1)}
    decs = {n: [] for n in range(1, n_max + 1)}
    for tables in _walks(roots, limits, jobs):
        for n, (part_images, part_decs) in tables.items():
            merged = images[n]
            for key, texts in part_images.items():
                merged[key] = merged.get(key, ()) + texts
            decs[n].extend(part_decs)
    return {
        n: (set(decs[n]), {frozenset(g) for g in images[n].values() if len(g) > 1})
        for n in range(1, n_max + 1)
    }


def verify_tables(n_max: int = 12, jobs: int = 1) -> list[ClassificationReport]:
    """Re-derive both tables exhaustively for every n <= n_max and compare.

    A disagreement is reported in the ClassificationReport, never raised.
    """
    if n_max < 2:
        raise ParameterOutOfRange(f"n_max must be at least 2, got {n_max}")
    if jobs < 1:
        raise ParameterOutOfRange(f"jobs must be at least 1, got {jobs}")
    if n_max > _VERIFY_GUARD:
        raise CensusTooLarge(f"verify-tables depth {n_max} exceeds the guard {_VERIFY_GUARD}")
    derived = _derive(n_max, jobs)
    reports = []
    for n in range(1, n_max + 1):
        derived_decs, derived_groups = derived[n]
        table_decs = set(decomposable_words(n))
        table_groups = set(collision_groups_at(n))
        discrepancies = []
        if derived_decs != table_decs:
            extra = sorted(derived_decs - table_decs)
            missing = sorted(table_decs - derived_decs)
            discrepancies.append(
                f"decomposables at n={n}: not in table {extra}, not found {missing}"
            )
        if derived_groups != table_groups:
            extra = sorted(sorted(g) for g in derived_groups - table_groups)
            missing = sorted(sorted(g) for g in table_groups - derived_groups)
            discrepancies.append(
                f"collision groups at n={n}: not in table {extra}, not found {missing}"
            )
        reports.append(
            ClassificationReport(
                length=n,
                decomposable_words=derived_decs,
                collision_groups=derived_groups,
                table_match=not discrepancies,
                discrepancies=discrepancies,
            )
        )
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
