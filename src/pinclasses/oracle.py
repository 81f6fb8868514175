"""Brute-force enumeration oracles, independent of the generating-function
pipeline.

Three routes produce censuses of centred-permutation classes: the
origin-containing subpatterns of the whole infinite pin diagram, found by a
finite state walk (subset), composing factor images directly (composition),
and composing images of arbitrary pin words (representation, for the
complete class).  The subset route applies to every spec and is exact: its
walk ends when every reachable state has been visited, with no empirical
stopping rule.  The composition route applies to recurrent specs.  Each
census checks its depth in one place, `_check_depth`: a negative depth is
out of range, and a depth above the census's guard is too large; the memory
guard then bounds what a census may retain.

The composition censuses (composition, representation and finite closure)
build each length from the pieces of shorter lengths that they keep, and
drop every piece that those already generate.  This is exact because ⊞ is
associative with the empty permutation as its identity: a sum with a
dropped piece is a sum with shorter kept pieces.  The argument needs no
theorem about pin classes, so the census stays independent of the pipeline.
"""

from __future__ import annotations

from . import _patterns
from .classify import all_pin_words
from .cperm import (
    EMPTY,
    CentredPerm,
    adjacency_condition,
    as_generators,
    box_sum_level,
    check_split,
    expand_level,
    in_level,
    level_size,
    strip_origin,
    subpatterns,
)
from .errors import (
    CensusTooLarge,
    CrossCheckMismatch,
    NotRecurrent,
    ParameterOutOfRange,
)
from .pimap import diagram_points, pi_map
from .pinword import as_spec, check_spec_size, enumerate_pin_factors, is_recurrent

MEMORY_GUARD = 10**7
_SUBSET_GUARD = 10
_COMPOSITION_GUARD = 10
_REPRESENTATION_GUARD = 8
# The levels hold one-line values 1..n + 1 in bytes (`cperm`), so no census
# may go deeper than 254; only the finite closure has no smaller guard.
_CLOSURE_GUARD = 254
_REFERENCE_SYMBOLS = 12
_REFERENCE_DEPTH = 3


class ClassCensus:
    """Counts (and retained members) of a centred class, per length.

    ``levels`` maps each length to a dict from one-line key (`bytes`) to the
    bitmask of its origin indices, the form `cperm.box_sum_level` and
    `_patterns.walk_patterns` return; the counts are its popcounts, passed
    in by a census that has counted them already.  The members are built on
    first read of `perms` (or `members`), through `cperm.expand_level`."""

    __slots__ = ("description", "method", "n_max", "counts", "_levels", "_perms")

    def __init__(self, description: str, method: str, n_max: int, levels, counts=None):
        self.description = description
        self.method = method
        self.n_max = n_max
        self._levels = {n: levels.get(n, {}) for n in range(n_max + 1)}
        self._perms = None
        if counts is None:
            counts = [level_size(self._levels[n]) for n in range(n_max + 1)]
        self.counts = counts

    @property
    def perms(self) -> dict[int, frozenset[CentredPerm]]:
        if self._perms is None:
            self._perms = {n: expand_level(level) for n, level in self._levels.items()}
        return self._perms

    def to_json(self) -> dict:
        return {"method": self.method, "counts": self.counts, "n_max": self.n_max}

    def members(self, n: int) -> list[CentredPerm]:
        return sorted(self.perms[n], key=lambda p: p.one_line())

    def __repr__(self) -> str:
        return f"ClassCensus({self.description!r}, counts={self.counts})"


def _check_depth(n_max: int, guard: int, kind: str) -> None:
    if n_max < 0:
        raise ParameterOutOfRange(f"census depth must be non-negative, got {n_max}")
    if n_max > guard:
        raise CensusTooLarge(f"{kind} census depth {n_max} exceeds the guard {guard}")


def _guard(total: int, description: str) -> None:
    if total > MEMORY_GUARD:
        raise CensusTooLarge(
            f"{description} would retain more than {MEMORY_GUARD} permutations"
        )


def enumerate_class_subset(spec, n_max: int) -> ClassCensus:
    """Census of the pin class: the patterns of every finite, origin-containing
    subset of the infinite pin diagram, found by `_patterns.walk_patterns`.

    The walk is checked once from scratch: every pattern of up to
    _REFERENCE_DEPTH points that brute force finds in the diagram of the
    first P + 2c symbols (at most _REFERENCE_SYMBOLS) must be in its table.
    """
    spec = as_spec(spec)
    check_spec_size(spec)
    _check_depth(n_max, _SUBSET_GUARD, "subset")
    table = _patterns.walk_patterns(spec, n_max)
    description = f"subset census of {spec}"
    counts = [level_size(table[n]) for n in range(n_max + 1)]
    _guard(sum(counts), description)
    symbols = min(spec.prefix_length + 2 * spec.cycle_length, _REFERENCE_SYMBOLS)
    pts = diagram_points(spec.initial_word(symbols))
    reference = _patterns.subset_patterns(pts, pts[0], min(n_max, _REFERENCE_DEPTH))
    for k, pats in reference.items():
        missing = [p for p in pats if not in_level(table[k], p)]
        if missing:
            raise CrossCheckMismatch(
                f"the state walk of {spec} misses {min(missing, key=str)}, a pattern "
                f"of the diagram of its first {symbols} symbols"
            )
    return ClassCensus(f"{description} (exact state walk)", "subset", n_max, table, counts)


def _compose_census(parts, n_max: int, description: str, method: str) -> ClassCensus:
    """All ⊞-compositions with total length <= n_max of the given pieces.

    Each length n is built from the kept pieces of the lengths below n
    (`box_sum_level`); a piece of ``parts[n]`` that this level already holds
    is dropped, and the others are kept and join the level (the pieces of
    one length are distinct, so one that joins drops no other).  Dropping
    loses nothing: ⊞ is associative with identity EMPTY, so if Q = L ⊞ K
    then left ⊞ Q = (left ⊞ L) ⊞ K, a sum formed from K.  The first dropped
    piece of each length is checked from scratch by `cperm.check_split`."""
    levels = {0: {bytes(EMPTY.filled): 1 << EMPTY.origin_index}}
    counts = [1]
    kept: dict[int, list[CentredPerm]] = {}
    for n in range(1, n_max + 1):
        level = box_sum_level(levels, kept, n)
        kept[n] = []
        dropped = None
        for piece in parts.get(n, ()):
            key, bit = bytes(piece.filled), 1 << piece.origin_index
            mask = level.get(key, 0)
            if not mask & bit:
                kept[n].append(piece)
                level[key] = mask | bit
            elif dropped is None:
                dropped = piece
        if dropped is not None:
            check_split(dropped, levels)
        levels[n] = level
        counts.append(level_size(level))
        _guard(sum(counts), description)
    return ClassCensus(description, method, n_max, levels, counts)


def enumerate_class_composition(spec, n_max: int) -> ClassCensus:
    """Census of a recurrent pin class by composing factor images."""
    spec = as_spec(spec)
    check_spec_size(spec)
    _check_depth(n_max, _COMPOSITION_GUARD, "composition")
    if not is_recurrent(spec):
        raise NotRecurrent(
            f"{spec} is not recurrent, so its pin class is not ⊞-closed and "
            "the composition oracle does not apply"
        )
    parts = {
        n: {pi_map(v) for v in enumerate_pin_factors(spec, n, "all")}
        for n in range(1, n_max + 1)
    }
    return _compose_census(
        parts, n_max, f"composition census of {spec}", "composition"
    )


def enumerate_pin_permutations(n_max: int) -> ClassCensus:
    """Census of the complete class: compositions of all pin-word images."""
    _check_depth(n_max, _REPRESENTATION_GUARD, "representation")
    parts = {
        n: {pi_map(w) for w in all_pin_words(n)} for n in range(1, n_max + 1)
    }
    return _compose_census(
        parts, n_max, "complete pin-permutation census", "representation"
    )


def enumerate_closure_composition(generators, n_max: int) -> ClassCensus:
    """Census of the ⊞-closure of finitely many centred permutations."""
    _check_depth(n_max, _CLOSURE_GUARD, "finite-closure")
    gens = as_generators(generators)
    pieces: set[CentredPerm] = set()
    for gen in gens:
        pieces |= subpatterns(gen)
    parts: dict[int, set[CentredPerm]] = {}
    for p in pieces:
        if p.length >= 1:
            parts.setdefault(p.length, set()).add(p)
    label = ", ".join(sorted(g.one_line() for g in gens))
    return _compose_census(
        parts, n_max, f"finite-closure census of {{{label}}}", "composition"
    )


def census_adjacency(census: ClassCensus) -> bool:
    """Does the census's class satisfy the adjacency condition?"""
    occupied = set()
    for perms in census.perms.values():
        for p in perms:
            occupied |= p.quadrants()
            if len(occupied) == 4:
                return adjacency_condition(occupied)
    return adjacency_condition(occupied)


def property_suite(census: ClassCensus, closed: bool, adjacency: bool) -> list[str]:
    """Counting inequalities over a census; returns violations (empty = pass).

    Checks C_n <= 12*C_{n-1} always; when the class is ⊞-closed and satisfies
    the adjacency condition, also C_{m+n} >= C_{m-1}*C_{n-1} and
    C_{m+n} >= C_m*C_n/144.
    """
    counts = census.counts
    n_top = census.n_max
    violations = []
    for n in range(1, n_top + 1):
        if counts[n] > 12 * counts[n - 1]:
            violations.append(
                f"C_{n} = {counts[n]} exceeds 12*C_{n-1} = {12 * counts[n - 1]}"
            )
    if closed and adjacency:
        for m in range(1, n_top):
            for n in range(m, n_top - m + 1):
                both = counts[m + n]
                if both < counts[m - 1] * counts[n - 1]:
                    violations.append(
                        f"C_{m + n} = {both} below C_{m - 1}*C_{n - 1} = "
                        f"{counts[m - 1] * counts[n - 1]}"
                    )
                if 144 * both < counts[m] * counts[n]:
                    violations.append(
                        f"144*C_{m + n} = {144 * both} below C_{m}*C_{n} = "
                        f"{counts[m] * counts[n]}"
                    )
    return violations


def centred_uncentred_check(census: ClassCensus) -> dict:
    """Uncentred counts by origin-stripping, with sandwich bounds checked.

    For every n: C_n <= C°_n <= (n+1)^2 * C_n.
    """
    uncentred = []
    violations = []
    for n in range(census.n_max + 1):
        u = {strip_origin(p) for p in census.perms[n]}
        uncentred.append(len(u))
        low, mid, high = len(u), census.counts[n], (n + 1) ** 2 * len(u)
        if not low <= mid <= high:
            violations.append(
                f"n={n}: centred count {mid} outside [{low}, {high}]"
            )
    return {"uncentred_counts": uncentred, "violations": violations}
