"""Closed-form classification of ⊞-decomposable and colliding pin words.

Both tables are stored as one representative pattern per family; the other
members are generated by the eight symmetries of the square acting on words
(rotations permute the quadrant numerals cyclically and the letters r, u, l,
d likewise; reflections swap a letter pair and two numeral pairs).  An
exhaustive verifier re-derives both tables from scratch by brute pi-map
enumeration and reports any disagreement.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

from .cperm import (
    QUADRANT_SIGNS,
    CentredPerm,
    centred_pattern,
    is_box_indecomposable,
    quadrant_of,
)
from .errors import ParameterOutOfRange
from .pimap import pi_map
from .pinword import PinWord

_LETTER_VEC = {"r": (1, 0), "u": (0, 1), "l": (-1, 0), "d": (0, -1)}
_VEC_LETTER = {v: k for k, v in _LETTER_VEC.items()}


class Symmetry:
    """One of the eight symmetries of the square, as a 2x2 sign matrix."""

    __slots__ = ("name", "matrix")

    def __init__(self, name: str, matrix):
        self.name = name
        self.matrix = matrix

    def apply_xy(self, x, y):
        (a, b), (c, d) = self.matrix
        return (a * x + b * y, c * x + d * y)

    def letter(self, letter: str) -> str:
        return _VEC_LETTER[self.apply_xy(*_LETTER_VEC[letter])]

    def numeral(self, q: int) -> int:
        return quadrant_of(self.apply_xy(*QUADRANT_SIGNS[q]), (0, 0))

    def word(self, w: PinWord) -> PinWord:
        return PinWord(self.numeral(w.numeral), "".join(self.letter(c) for c in w.letters))

    def perm(self, p: CentredPerm) -> CentredPerm:
        pts = [self.apply_xy(i, v) for i, v in p.points()]
        origin = self.apply_xy(*p.origin_point())
        return centred_pattern(pts, origin)

    def compose(self, other: "Symmetry") -> "Symmetry":
        (a, b), (c, d) = self.matrix
        (e, f), (g, h) = other.matrix
        m = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
        return Symmetry(f"{self.name}*{other.name}", m)

    def __repr__(self) -> str:
        return f"Symmetry({self.name})"


def _build_symmetries() -> tuple[Symmetry, ...]:
    ident = Symmetry("id", ((1, 0), (0, 1)))
    rot = Symmetry("rot90", ((0, -1), (1, 0)))
    refl = Symmetry("refl_y", ((-1, 0), (0, 1)))
    out = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for s in frontier:
            for gen in (rot, refl):
                t = gen.compose(s)
                if t.matrix not in out:
                    out[t.matrix] = t
                    nxt.append(t)
        frontier = nxt
    return tuple(out.values())


SYMMETRIES = _build_symmetries()


def _orbit_words(w: PinWord) -> set[PinWord]:
    return {s.word(w) for s in SYMMETRIES}


def _orbit_groups(group: frozenset[PinWord]) -> set[frozenset[PinWord]]:
    return {frozenset(s.word(w) for w in group) for s in SYMMETRIES}


@lru_cache(maxsize=None)
def decomposable_words(n: int) -> frozenset[PinWord]:
    """All ⊞-decomposable pin words of length n, from the closed-form table."""
    reps = []
    if n >= 2 and n % 2 == 0:
        reps.append(PinWord(1, "l" + "dl" * ((n - 2) // 2)))
    if n >= 3 and n % 2 == 1:
        reps.append(PinWord(1, "ld" * ((n - 1) // 2)))
    if n >= 4 and n % 2 == 0:
        reps.append(PinWord(1, "ur" * ((n - 4) // 2) + "uld"))
    if n >= 5 and n % 2 == 1:
        reps.append(PinWord(1, "ru" * ((n - 3) // 2) + "ld"))
    out: set[PinWord] = set()
    for rep in reps:
        out |= _orbit_words(rep)
    return frozenset(out)


def is_decomposable_word(w: PinWord) -> bool:
    """True iff pi_map(w) is ⊞-decomposable, by table lookup."""
    return w in decomposable_words(w.length)


@lru_cache(maxsize=None)
def collision_groups_at(n: int) -> frozenset[frozenset[PinWord]]:
    """All collision groups (size >= 2) among pin words of length n."""
    reps: list[frozenset[PinWord]] = []
    if n == 2:
        reps.append(frozenset({PinWord(1, "u"), PinWord(1, "r")}))
    elif n == 3:
        reps.append(frozenset({PinWord(1, "ul"), PinWord(2, "ru")}))
    elif n == 4:
        reps.append(
            frozenset(
                {PinWord(1, "ldr"), PinWord(2, "dru"), PinWord(3, "rul"), PinWord(4, "uld")}
            )
        )
    elif n == 5:
        reps.append(frozenset({PinWord(1, "uldl"), PinWord(3, "luru")}))
        reps.append(frozenset({PinWord(1, "ldlu"), PinWord(2, "dlur")}))
    elif n >= 6 and n % 2 == 0:
        a, b = (n - 2) // 2, (n - 4) // 2
        reps.append(frozenset({PinWord(1, "ld" * a + "r"), PinWord(2, "dl" * b + "dru")}))
    elif n >= 7:
        k = (n - 3) // 2
        reps.append(frozenset({PinWord(1, "ld" * k + "lu"), PinWord(2, "dl" * k + "ur")}))
    out: set[frozenset[PinWord]] = set()
    for rep in reps:
        out |= _orbit_groups(rep)
    return frozenset(out)


def collision_group(w: PinWord) -> frozenset[PinWord]:
    """The full colliding set containing w; {w} when w collides with nothing."""
    for group in collision_groups_at(w.length):
        if w in group:
            return group
    return frozenset({w})


def all_pin_words(n: int) -> list[PinWord]:
    """Every valid pin word of length n (4 at n=1, 2^(n+2) for n >= 2)."""
    if n < 1:
        return []
    words = [PinWord(q) for q in (1, 2, 3, 4)]
    for _ in range(n - 1):
        words = [v for w in words for v in w.extensions()]
    return words


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
            "decomposable_words": sorted(str(w) for w in self.decomposable_words),
            "collision_groups": sorted(
                sorted(str(w) for w in g) for g in self.collision_groups
            ),
            "table_match": self.table_match,
            "discrepancies": self.discrepancies,
        }

    def __repr__(self) -> str:
        return (
            f"ClassificationReport(n={self.length}, dec={len(self.decomposable_words)}, "
            f"groups={len(self.collision_groups)}, match={self.table_match})"
        )


def _scan_partition(words) -> list[tuple[PinWord, tuple, bool]]:
    """Worker: map each word to (word, image key, indecomposable?)."""
    out = []
    for w in words:
        img = pi_map(w)
        out.append((w, (img.filled, img.origin_index), is_box_indecomposable(img)))
    return out


def _derive_at_length(n: int, jobs: int = 1):
    words = all_pin_words(n)
    if jobs > 1 and len(words) >= 64:
        chunks: dict[tuple, list[PinWord]] = {}
        for w in words:
            key = (w.numeral, w.letters[:1])
            chunks.setdefault(key, []).append(w)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(_scan_partition, chunks.values())
        triples = [t for part in results for t in part]
    else:
        triples = _scan_partition(words)
    by_image: dict[tuple, list[PinWord]] = {}
    decs: set[PinWord] = set()
    for w, key, indec in triples:
        by_image.setdefault(key, []).append(w)
        if not indec:
            decs.add(w)
    groups = {frozenset(g) for g in by_image.values() if len(g) > 1}
    return decs, groups


def verify_tables(n_max: int = 12, jobs: int = 1) -> list[ClassificationReport]:
    """Re-derive both tables exhaustively for every n <= n_max and compare.

    A disagreement is reported in the ClassificationReport, never raised.
    """
    if n_max < 2:
        raise ParameterOutOfRange(f"n_max must be at least 2, got {n_max}")
    reports = []
    for n in range(1, n_max + 1):
        derived_decs, derived_groups = _derive_at_length(n, jobs=jobs)
        table_decs = set(decomposable_words(n))
        table_groups = set(collision_groups_at(n))
        discrepancies = []
        if derived_decs != table_decs:
            extra = sorted(str(w) for w in derived_decs - table_decs)
            missing = sorted(str(w) for w in table_decs - derived_decs)
            discrepancies.append(
                f"decomposables at n={n}: not in table {extra}, not found {missing}"
            )
        if derived_groups != table_groups:
            extra = sorted(
                sorted(str(w) for w in g) for g in derived_groups - table_groups
            )
            missing = sorted(
                sorted(str(w) for w in g) for g in table_groups - derived_groups
            )
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

    For each length, sums max(0, |group ∩ S| - 1) over collision groups: a
    fully present pair contributes 1, a present quadruple 3.
    """
    out: dict[int, int] = {}
    for n, words in factor_sets_by_length.items():
        words = set(words)
        seen: dict[frozenset, int] = {}
        for w in words:
            g = collision_group(w)
            if len(g) > 1:
                seen[g] = seen.get(g, 0) + 1
        out[n] = sum(c - 1 for c in seen.values() if c >= 2)
    return out
