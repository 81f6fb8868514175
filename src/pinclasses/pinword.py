"""Pin words and eventually periodic pin sequences.

A pin word is a quadrant numeral (1-4) followed by direction letters that
alternate between horizontal (l, r) and vertical (u, d) alignment.  A pin
spec ``prefix(cycle)*`` describes the infinite eventually periodic sequence
``prefix cycle cycle ...``; cycles therefore have even length.

Positions are 1-based: position 1 is the numeral, position t >= 2 is a
letter.  The numeral of a factor w_{i,j} with i >= 2 is the quadrant of the
i-th placed point, obtained from the pi-map geometry, never from a lookup
table keyed on letter pairs.  Every such numeral comes through
`_start_numeral`, which reads one cached diagram per spec.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache

from ._value import Value
from .errors import (
    AlignmentViolation,
    EmptyInput,
    IndexOutOfRange,
    MalformedSyntax,
    NonAlternatingCycle,
    ParameterOutOfRange,
)

LETTERS = "udlr"


def same_axis(a: str, b: str) -> bool:
    """True iff two letters share an axis: both vertical (u, d) or both
    horizontal (l, r).  Consecutive letters of a pin word never do."""
    return (a in "ud") == (b in "ud")


# The letters that may follow a word's last letter ("" for a bare numeral),
# in LETTERS order.
NEXT_LETTERS = {
    last: "".join(c for c in LETTERS if not (last and same_axis(last, c)))
    for last in ("", *LETTERS)
}


class PinWord(Value):
    """Immutable finite pin word: numeral plus alternating letters."""

    __slots__ = ("numeral", "letters")

    def __init__(self, numeral: int, letters: str = ""):
        try:
            numeral = operator.index(numeral)
        except TypeError:
            raise MalformedSyntax(
                f"initial numeral must be an integer, got {numeral!r}"
            ) from None
        if numeral not in (1, 2, 3, 4):
            raise MalformedSyntax(f"initial numeral must be 1-4, got {numeral}")
        letters = str(letters)
        bad = set(letters) - set(LETTERS)
        if bad:
            raise MalformedSyntax(f"invalid letters {sorted(bad)!r}")
        for a, b in zip(letters, letters[1:]):
            if same_axis(a, b):
                raise AlignmentViolation(f"letters {a!r}{b!r} share an axis")
        object.__setattr__(self, "numeral", numeral)
        object.__setattr__(self, "letters", letters)

    @property
    def length(self) -> int:
        """Number of points placed (numeral counts as one symbol)."""
        return 1 + len(self.letters)

    def symbol(self, t: int) -> str:
        """Symbol at 1-based position t."""
        if t == 1:
            return str(self.numeral)
        if 2 <= t <= self.length:
            return self.letters[t - 2]
        raise IndexOutOfRange(f"position {t} outside 1..{self.length}")

    def extensions(self) -> list["PinWord"]:
        """Every pin word that extends this one by one letter, in LETTERS order."""
        return [
            PinWord(self.numeral, self.letters + c) for c in NEXT_LETTERS[self.letters[-1:]]
        ]

    def __str__(self) -> str:
        return f"{self.numeral}{self.letters}"

    def __repr__(self) -> str:
        return f"PinWord({str(self)!r})"


_WORD_RE = re.compile(r"([1-4])([udlr]*)\Z")
_SPEC_RE = re.compile(r"([1-4])([udlr]*)\(([udlr]+)\)\*\Z")


def _normalize(text: str) -> str:
    if not isinstance(text, str):
        raise MalformedSyntax(f"expected pin word or spec text, got {text!r}")
    s = re.sub(r"\s+", "", text).lower()
    if not s:
        raise EmptyInput("empty pin word text")
    return s


def parse_pin_word(text: str) -> PinWord:
    """Parse e.g. ``2lurdld`` (whitespace- and case-insensitive)."""
    s = _normalize(text)
    m = _WORD_RE.match(s)
    if not m:
        raise MalformedSyntax(f"cannot parse {text!r} as a pin word")
    return PinWord(int(m.group(1)), m.group(2))


class PinSpec(Value, args=("prefix", "cycle"), compare=("_canon",)):
    """Eventually periodic pin sequence: finite prefix + repeating cycle.

    ``prefix`` is a PinWord or its text (at least the numeral); ``cycle``
    is a non-empty letter string repeated forever after the prefix.  The
    text as given is preserved for display; equality uses the normal form of
    the infinite word (minimal period, maximal pull-back of prefix letters
    into the cycle), so ``1r(ur)*`` equals ``1(ru)*`` while ``1(ru)*`` and
    ``1(ur)*`` stay distinct.
    """

    __slots__ = ("prefix", "cycle", "_canon")

    def __init__(self, prefix: PinWord, cycle: str):
        prefix = as_word(prefix)
        cycle = str(cycle)
        if not cycle:
            raise MalformedSyntax("cycle must be non-empty")
        bad = set(cycle) - set(LETTERS)
        if bad:
            raise MalformedSyntax(f"invalid letters {sorted(bad)!r} in cycle")
        # alternation inside the cycle, at the wrap-around, and at the junction
        for a, b in zip(cycle, cycle[1:]):
            if same_axis(a, b):
                raise NonAlternatingCycle(f"cycle letters {a!r}{b!r} share an axis")
        if same_axis(cycle[-1], cycle[0]):
            raise NonAlternatingCycle(
                f"cycle {cycle!r} fails alternation at the wrap-around"
            )
        junction = prefix.letters[-1:]
        if junction and same_axis(junction, cycle[0]):
            raise NonAlternatingCycle(
                f"prefix ending {junction!r} fails alternation into cycle {cycle!r}"
            )
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)
        # normal form: minimal period, then prefix letters pulled into the cycle
        for d in range(1, len(cycle) + 1):
            if len(cycle) % d == 0 and cycle == cycle[:d] * (len(cycle) // d):
                cyc = cycle[:d]
                break
        pre = prefix.letters
        while pre and pre[-1] == cyc[-1]:
            pre = pre[:-1]
            cyc = cyc[-1] + cyc[:-1]
        object.__setattr__(self, "_canon", (prefix.numeral, pre, cyc))

    @property
    def prefix_length(self) -> int:
        """Symbols in the prefix, numeral included."""
        return self.prefix.length

    @property
    def cycle_length(self) -> int:
        return len(self.cycle)

    def symbol(self, t: int) -> str:
        """Symbol of the infinite word at 1-based position t."""
        if t < 1:
            raise IndexOutOfRange(f"position {t} < 1")
        p = self.prefix_length
        if t <= p:
            return self.prefix.symbol(t)
        return self.cycle[(t - p - 1) % len(self.cycle)]

    def initial_word(self, n: int) -> PinWord:
        """The finite word w_{1,n} of the first n symbols."""
        if n < 1:
            raise IndexOutOfRange(f"length {n} < 1")
        letters = "".join(self.symbol(t) for t in range(2, n + 1))
        return PinWord(self.numeral, letters)

    @property
    def numeral(self) -> int:
        return self.prefix.numeral

    def canonical_key(self):
        """Normal form of the infinite word, for equality and caching."""
        return self._canon

    def __str__(self) -> str:
        return f"{self.prefix}({self.cycle})*"

    def __repr__(self) -> str:
        return f"PinSpec({str(self)!r})"


def parse_pin_spec(text: str) -> PinSpec:
    """Parse e.g. ``1(ru)*`` or ``2ru ld (lu)*`` (whitespace/case-insensitive)."""
    s = _normalize(text)
    m = _SPEC_RE.match(s)
    if not m:
        raise MalformedSyntax(f"cannot parse {text!r} as a pin spec (prefix(cycle)*)")
    return PinSpec(PinWord(int(m.group(1)), m.group(2)), m.group(3))


def as_word(w) -> PinWord:
    """A PinWord as given, or parsed from text."""
    return w if isinstance(w, PinWord) else parse_pin_word(w)


def as_spec(spec) -> PinSpec:
    """A PinSpec as given, or parsed from text."""
    return spec if isinstance(spec, PinSpec) else parse_pin_spec(spec)


def pin_factor(spec, i: int, j: int) -> PinWord:
    """The pin factor w_{i,j}: letters i+1..j with the numeral of point p_i.

    The numeral is the quadrant of p_i in the pi-map diagram, read through
    `_start_numeral`; for i = 1 that is the spec's own numeral.
    """
    spec = as_spec(spec)
    if i < 1:
        raise IndexOutOfRange(f"start position {i} < 1")
    if j < i:
        raise IndexOutOfRange(f"end position {j} before start {i}")
    letters = "".join(spec.symbol(t) for t in range(i + 1, j + 1))
    return PinWord(_start_numeral(spec, i), letters)


def left_truncate(spec, n: int) -> PinSpec:
    """Drop the first n-1 symbols of the realized sequence, renumbering the head.

    The new numeral is the quadrant of p_n, read through `_start_numeral`.
    """
    spec = as_spec(spec)
    if n < 1:
        raise IndexOutOfRange(f"truncation point {n} < 1")
    if n == 1:
        return spec
    p, c = spec.prefix_length, spec.cycle
    numeral = _start_numeral(spec, n)
    if n <= p:
        rest = "".join(spec.symbol(t) for t in range(n + 1, p + 1))
        return PinSpec(PinWord(numeral, rest), c)
    offset = (n - p - 1) % len(c)
    rotated = c[offset + 1 :] + c[: offset + 1]
    return PinSpec(PinWord(numeral), rotated)


def _factor_windows(spec: PinSpec) -> tuple[int, int]:
    """(first recurrent start, last start needed): factors starting at or
    beyond prefix_length+2 sit in the pure-cycle era and recur with period
    |cycle|; one extra cycle of starts is scanned as insurance."""
    p, c = spec.prefix_length, spec.cycle_length
    return p + 2, p + 2 * c + 1


@lru_cache(maxsize=128)
def _start_numerals(prefix: PinWord, cycle: str) -> tuple[int, ...]:
    """Numerals of the factors starting at positions 1..hi: the quadrants of
    p_1..p_hi, read off one diagram of w_{1,hi}.  Placing a point shifts
    every rank above a threshold, which keeps their order, so a point's
    quadrant never changes as the diagram grows.  Keyed by the written
    prefix and cycle, since hi depends on the written prefix length."""
    from . import pimap

    spec = PinSpec(prefix, cycle)
    _, hi = _factor_windows(spec)
    quads = pimap.all_point_quadrants(spec.initial_word(hi))
    return tuple(quads[i] for i in range(1, hi + 1))


def _start_numeral(spec: PinSpec, i: int) -> int:
    """Numeral of the factors starting at position i: the quadrant of p_i.
    Past the cached starts, quadrants recur with the cycle from the first
    recurrent start on, so i folds into that first cycle of starts."""
    lo, hi = _factor_windows(spec)
    if i > hi:
        i = lo + (i - lo) % spec.cycle_length
    return _start_numerals(spec.prefix, spec.cycle)[i - 1]


def enumerate_pin_factors(spec, n: int, mode: str = "all") -> set[PinWord]:
    """Distinct pin factors of length n; mode 'all' or 'recurrent'."""
    spec = as_spec(spec)
    if mode not in ("all", "recurrent"):
        raise ParameterOutOfRange(f"mode must be 'all' or 'recurrent', got {mode!r}")
    if n < 1:
        raise IndexOutOfRange(f"factor length {n} < 1")
    lo, hi = _factor_windows(spec)
    first = 1 if mode == "all" else lo
    numerals = _start_numerals(spec.prefix, spec.cycle)
    letters = spec.initial_word(hi + n - 1).letters  # position t is letters[t - 2]
    return {PinWord(numerals[i - 1], letters[i - 1 : i + n - 2]) for i in range(first, hi + 1)}


def is_recurrent(spec) -> bool:
    """True iff every pin factor occurs infinitely often.

    Decided by comparing all-mode and recurrent-mode factor sets at length
    |prefix| + 2|cycle| + 2 alone: a shorter factor is the prefix of the
    longer one at its start, and the starts do not depend on the length, so
    agreement there is agreement at every shorter length.  Beyond that
    window the comparison is forced by periodicity on both sides.
    """
    spec = as_spec(spec)
    limit = spec.prefix_length + 2 * spec.cycle_length + 2
    return enumerate_pin_factors(spec, limit, "all") == enumerate_pin_factors(
        spec, limit, "recurrent"
    )
