"""End-to-end machinery: factor counts to generating functions to growth rates.

The primary counting path grows a spec's pin factors one length at a time,
dedupes each length's raw pi-map images and keeps only the counts of the
⊞-indecomposable ones, in all and per quadrant; the classification tables
recompute every count as an independent cross-check, and any disagreement
is a hard error.  A spec longer than MAX_SPEC_LENGTH symbols is refused.
Growth rates come from Descartes bisection (Vincent-Collins-Akritas) on the
primitive integer form of the polynomial itself: sign-variation counts of
dyadic nodes of (0, 1/2] certify that no root lies left of the node that
isolates the smallest one, so "smallest positive root" is a checked claim,
and integer Horner at dyadic midpoints then halves that node to the
tolerance.  A repeated root never counts 1, so only when a node no wider
than the tolerance still counts 2 or more does the walk restart on the
square-free part, a primitive pseudo-remainder gcd over the integers.
"""

from __future__ import annotations

from collections import Counter
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import classify
from .cperm import (
    CentredPerm,
    adjacency_condition,
    as_generators,
    is_box_indecomposable,
    one_quadrant,
    subpatterns,
)
from .errors import (
    BoundViolation,
    CrossCheckMismatch,
    DisconnectedQuadrants,
    NoRootInRange,
    NotRecurrent,
    NumericError,
    ParameterOutOfRange,
    StabilizationFailure,
)
from .pimap import check_node, point_quadrant, prefix_levels
from .pinword import (
    LETTERS,
    PinSpec,
    PinWord,
    as_spec,
    check_spec_size,
    enumerate_pin_factors,
    is_recurrent,
    left_truncate,
    same_axis,
)
from .series import (
    Poly,
    RatGF,
    from_eventually_constant,
    from_eventually_periodic,
    seq,
)

_BOUND_WINDOW = 30


def _is_power_of_one_minus_z(den: Poly) -> bool:
    """True iff den is (1 - z)^d for d its degree: its coefficients are (-1)^i·C(d, i)."""
    d = den.degree
    return den.coeffs == tuple((-1) ** i * comb(d, i) for i in range(d + 1))


class GSequence:
    """The amended G-sequence G = g - g1*g3 - g2*g4, with the bounds that
    hold for any ⊞-closure checked.

    Construction validates, on the first 30 coefficients: g and each g_q are
    non-negative integers with zero constant term, and G has a_1 in {1..4}.
    The pin-class bounds on the other a_n are checked only for pin classes,
    by `amended_G` and `complete_class_sequence` (`_check_pin_class_bounds`).
    """

    __slots__ = ("g", "g_quadrants", "G")

    def __init__(self, g: RatGF, g1: RatGF, g2: RatGF, g3: RatGF, g4: RatGF):
        quads = (g1, g2, g3, g4)
        for name, part in [("g", g)] + [(f"g{i}", q) for i, q in enumerate(quads, 1)]:
            cs = part.coeffs(_BOUND_WINDOW)
            if cs[0] != 0:
                raise BoundViolation(f"{name} has nonzero constant term")
            if any(c < 0 or c.denominator != 1 for c in cs):
                raise BoundViolation(f"{name} has a negative or non-integer coefficient")
        G = g - g1 * g3 - g2 * g4
        a1 = G.coeffs(1)[1]
        if a1 not in (1, 2, 3, 4):
            raise BoundViolation(f"G linear coefficient {a1} outside 1..4")
        self.g = g
        self.g_quadrants = quads
        self.G = G

    @property
    def f(self) -> RatGF:
        return seq(self.G)

    def __repr__(self) -> str:
        return f"GSequence(G = {self.G})"


def _check_pin_class_bounds(gs: GSequence) -> GSequence:
    """Check -8n <= a_n < 2^(n+2) on G's first 30 coefficients from n = 2,
    bounds proven for pin classes only."""
    a = gs.G.coeffs(_BOUND_WINDOW)
    for n in range(2, _BOUND_WINDOW + 1):
        if not (-8 * n <= a[n] < 2 ** (n + 2)):
            raise BoundViolation(f"G coefficient a_{n} = {a[n]} violates -8n <= a_n < 2^(n+2)")
    return gs


def _factor_counts(spec: PinSpec, mode: str) -> dict[int, tuple[int, ...]]:
    """Per length n, up to the stabilization window plus one cycle: the
    numbers of distinct ⊞-indecomposable pi-images of pin factors, in all
    and lying entirely in quadrant 1, 2, 3 and 4, as (g_n, g1_n, .., g4_n).

    A factor is the prefix of the longest factor at its start, so the
    factors are the prefixes of the longest factors' texts, grown one length
    at a time by `prefix_levels` with each image's flag and quadrant set.
    Each length is checked, then dropped: its counts against the
    classification-table route, and each longest factor's node against the
    routes built from scratch (`check_node`).  The table route subtracts
    the decomposable factors and the collision overcount from the number of
    factors: by table lookups up to `classify.PERIODIC_FROM`, and past it
    from the counts `classify.factor_corrections` takes in one pass over
    the longest factors."""
    check_spec_size(spec)
    window = spec.prefix_length + 3 * spec.cycle_length + 2
    longest = {str(w): w for w in enumerate_pin_factors(spec, window, mode)}
    corrections = classify.factor_corrections(longest)
    table = {}
    for n, level in enumerate(prefix_levels(longest), 1):
        images = {}  # each image's carried flag and one quadrant (or None)
        for text, img, indec, quadrants in level:
            carried = indec, next(iter(quadrants)) if len(quadrants) == 1 else None
            if images.setdefault(img, carried) != carried:
                raise CrossCheckMismatch(
                    f"{text} carries {carried} for an image that another factor carries "
                    f"as {images[img]}"
                )
            if n == window:
                check_node(longest[text], img, indec, quadrants)
        tally = Counter(images.values())
        by_quadrant = [tally[True, q] for q in (1, 2, 3, 4)]
        indecs = tally[True, None] + sum(by_quadrant)
        if n <= classify.PERIODIC_FROM:
            texts = [text for text, *_ in level]
            dec_words = sum(1 for v in texts if classify.is_decomposable_word(v))
            over = classify.overcount_series({n: texts})[n]
        else:
            dec_words, over = corrections.get(n, (0, 0))
        if len(level) - dec_words - over != indecs:
            raise CrossCheckMismatch(
                f"table route gives {len(level) - dec_words - over} indecomposables "
                f"at n={n} for {spec} ({mode}), direct route gives {indecs}"
            )
        if len(level) - over != len(images):
            raise CrossCheckMismatch(
                f"collision overcount {over} inconsistent with image dedup at n={n}"
            )
        table[n] = (indecs, *by_quadrant)
    return table


def _stabilized_gfs(spec: PinSpec, table: dict[int, tuple[int, ...]]) -> list[RatGF]:
    """The generating functions (g, g1, .., g4) of the columns of a
    `_factor_counts` table, each eventually constant: whole rows must agree
    over one cycle of lengths from prefix_length + 2·cycle_length + 2 on."""
    stable_at = spec.prefix_length + 2 * spec.cycle_length + 2
    check = range(stable_at, stable_at + spec.cycle_length + 1)
    if any(table[n] != table[stable_at] for n in check):
        raise StabilizationFailure(
            f"factor image counts for {spec} not constant over lengths "
            f"{stable_at}..{stable_at + spec.cycle_length}: "
            f"{[table[n] for n in check]}"
        )
    columns = zip(*(table[n] for n in range(1, stable_at)))
    return [
        from_eventually_constant(column, constant, stable_at)
        for column, constant in zip(columns, table[stable_at])
    ]


def indecomposable_counts(spec, mode: str = "all") -> tuple[dict[int, int], RatGF]:
    """Distinct ⊞-indecomposable pi-images of pin factors, per length, as
    explicit counts plus their generating function g(z)."""
    spec = as_spec(spec)
    table = _factor_counts(spec, mode)
    return {n: row[0] for n, row in table.items()}, _stabilized_gfs(spec, table)[0]


def amended_G(spec, mode: str = "all") -> GSequence:
    """Assemble g, g1..g4 and the amended G for a pin spec.

    For specs the counts are eventually constant, so G's denominator must be
    a power of (1 - z): its only pole is at z = 1, beyond the root search
    range.  That structural fact is asserted here.
    """
    spec = as_spec(spec)
    gs = GSequence(*_stabilized_gfs(spec, _factor_counts(spec, mode)))
    _check_pin_class_bounds(gs)
    if not _is_power_of_one_minus_z(gs.G.den):
        raise BoundViolation(f"G denominator {gs.G.den.quoted()} is not a power of (1 - z)")
    return gs


def _mode_sequence(spec, mode: str) -> GSequence:
    """The GSequence of a spec in mode class, closure or interior.

    Class mode is the closure of a recurrent spec's class, which is then
    ⊞-closed; the interior counts only recurrent factors.
    """
    spec = as_spec(spec)
    if mode not in ("class", "closure", "interior"):
        raise ParameterOutOfRange(f"mode must be class, closure, or interior, got {mode!r}")
    check_spec_size(spec)
    if mode == "class" and not is_recurrent(spec):
        raise NotRecurrent(
            f"{spec} is not recurrent, so its pin class is not ⊞-closed; "
            "use closure mode for the ⊞-closure or interior mode for the ⊞-interior"
        )
    return amended_G(spec, "recurrent" if mode == "interior" else "all")


def class_gf(spec) -> RatGF:
    """Exact generating function of the pin class of a recurrent spec."""
    return _mode_sequence(spec, "class").f


def closure_gf(spec) -> RatGF:
    """Generating function of the ⊞-closure of the pin class."""
    return _mode_sequence(spec, "closure").f


def interior_gf(spec) -> RatGF:
    """Generating function of the ⊞-interior (closure of recurrent factors)."""
    return _mode_sequence(spec, "interior").f


def finite_closure_sequence(generators) -> GSequence:
    """GSequence of the ⊞-closure of the downward closure of a finite set.

    A generator with L non-origin points has at most C(L, n) patterns of n,
    so g_n <= Σ_i C(L_i, n) over the generators, which is checked."""
    gens = as_generators(generators)
    closure: set[CentredPerm] = set()
    for gen in gens:
        closure |= subpatterns(gen)
    indecs = [p for p in closure if p.length >= 1 and is_box_indecomposable(p)]
    # per length: g, then g1..g4 for the indecomposables in one quadrant
    counts = [[0] * (max((p.length for p in indecs), default=0) + 1) for _ in range(5)]
    for p in indecs:
        counts[0][p.length] += 1
        q = one_quadrant(p)
        if q is not None:
            counts[q][p.length] += 1
    for n, g_n in enumerate(counts[0]):
        bound = sum(comb(gen.length, n) for gen in gens)
        if g_n > bound:
            raise BoundViolation(f"g_{n} = {g_n} exceeds Σ_i C(L_i, {n}) = {bound}")
    return GSequence(*(RatGF(Poly(cs)) for cs in counts))


def finite_closure_gf(generators) -> RatGF:
    """Generating function of the ⊞-closure of finitely many generators."""
    return finite_closure_sequence(generators).f


@lru_cache(maxsize=1)
def _pair_quadrant_table() -> dict[tuple[str, str], int]:
    """Quadrant of p_k (k >= 3) from the letter pair (k-1, k), derived by
    probing the pi-map with every numeral and asserting independence."""
    table = {}
    for a in LETTERS:
        for b in LETTERS:
            if same_axis(a, b):
                continue
            quads = {point_quadrant(PinWord(q, a + b), 3) for q in (1, 2, 3, 4)}
            if len(quads) != 1:
                raise CrossCheckMismatch(
                    f"pair ({a},{b}) quadrant depends on the numeral: {quads}"
                )
            table[(a, b)] = quads.pop()
    return table


@lru_cache(maxsize=1)
def _second_point_table() -> dict[tuple[int, str], int]:
    """Quadrant of p_2 from (numeral, first letter), probed from the pi-map."""
    return {
        (q, a): point_quadrant(PinWord(q, a), 2)
        for q in (1, 2, 3, 4)
        for a in LETTERS
    }


def _confined_word_count_gf(quadrants: frozenset[int]) -> RatGF:
    """h(z): pin words of each length all of whose points lie in the given
    quadrants, via a transfer matrix over last letters.

    The words of length 1 count |quadrants|·z.  For a letter b, x_b(z)
    counts the longer words ending in b; they solve (I - zM)x = z²v, where
    M[b][a] = 1 when b may follow a and places its point in the set, and v_b
    counts the two-point words ending in b.  Fraction-free Gauss-Jordan
    elimination over Poly solves it with no pivoting: the matrix is I at
    z = 0 and each step keeps it so, so every pivot has constant term 1.
    """
    pair = _pair_quadrant_table()
    second = _second_point_table()
    rows = [
        [
            Poly([int(a == b), -int(not same_axis(a, b) and pair[(a, b)] in quadrants)])
            for a in LETTERS
        ]
        + [Poly([0, 0, sum(1 for q in quadrants if second[(q, b)] in quadrants)])]
        for b in LETTERS
    ]
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k and not row[k].is_zero():
                rows[i] = [pivot * x - row[k] * y for x, y in zip(row, pivot_row)]
    head = RatGF(Poly([0, len(quadrants)]))
    return sum((RatGF(row[-1], row[k]) for k, row in enumerate(rows)), head)


# The confined counts' period is checked up to the longest verified length.
_TAIL_WINDOW = classify._VERIFY_GUARD


def _word_quadrants(w) -> set[int]:
    """Quadrants of every point of w (a PinWord or its text) without its
    diagram: p_1's is the numeral, p_2's comes from the second-point table
    and every later point's from the letter pair that placed it."""
    pair = _pair_quadrant_table()
    text = str(w)
    numeral, letters = int(text[0]), text[1:]
    out = {numeral}
    if letters:
        out.add(_second_point_table()[(numeral, letters[0])])
    out.update(pair[ab] for ab in zip(letters, letters[1:]))
    return out


def _confined_correction_gfs(quadrants: frozenset[int]) -> tuple[RatGF, RatGF]:
    """(decomposable-word GF, collision-overcount GF) restricted to words
    confined to the given quadrants.  classify proves that both counts repeat
    with period 2 from classify.PERIODIC_FROM, so each GF is its counts below
    that length and the two-term block that starts there.  The counts on to
    _TAIL_WINDOW check the period; the shorter ones are exact."""

    def confined(w: str) -> bool:
        return _word_quadrants(w) <= quadrants

    dec, over = [0] * (_TAIL_WINDOW + 1), [0] * (_TAIL_WINDOW + 1)
    for n in range(1, _TAIL_WINDOW + 1):
        dec[n] = sum(map(confined, classify.decomposable_words(n)))
        for group in classify.collision_groups_at(n):
            flags = {confined(w) for w in group}
            if len(flags) != 1:
                raise CrossCheckMismatch(
                    f"collision group {sorted(group)} splits on confinement"
                )
            if flags.pop():
                over[n] += len(group) - 1
    start = classify.PERIODIC_FROM
    for counts, label in ((dec, "decomposable"), (over, "overcount")):
        if counts[start:-2] != counts[start + 2 :]:
            raise CrossCheckMismatch(
                f"{label} counts not 2-periodic on {start}..{_TAIL_WINDOW} "
                f"for quadrants {sorted(quadrants)}: {counts[start:]}"
            )
    return tuple(
        from_eventually_periodic(counts[1:start], counts[start : start + 2], start)
        for counts in (dec, over)
    )


_OSCILLATION_GF_NUM = Poly([0, 1, 0, 1])  # z + z^3: one-quadrant counts 1,1,2,2,...


def _check_connected(quadrants: frozenset[int]) -> None:
    if not quadrants:
        raise DisconnectedQuadrants("at least one quadrant is required")
    bad = quadrants - {1, 2, 3, 4}
    if bad:
        raise ParameterOutOfRange(f"invalid quadrants {sorted(bad)}")
    # On the 4-cycle of quadrants, connected means one or an adjacent pair.
    if not adjacency_condition(quadrants):
        raise DisconnectedQuadrants(
            f"quadrants {sorted(quadrants)} are not adjacent-connected; "
            "no single pin sequence realizes them"
        )


def complete_class_sequence(quadrants=(1, 2, 3, 4)) -> GSequence:
    """GSequence for the class of all pin permutations confined to the given
    quadrants, counted via the classification tables."""
    quadrants = frozenset(quadrants)
    _check_connected(quadrants)
    h = _confined_word_count_gf(quadrants)
    dec_gf, over_gf = _confined_correction_gfs(quadrants)
    g = h - dec_gf - over_gf
    osc = RatGF(_OSCILLATION_GF_NUM, Poly([1, -1]))
    zero = RatGF.zero()
    g1, g2, g3, g4 = (osc if q in quadrants else zero for q in (1, 2, 3, 4))
    return _check_pin_class_bounds(GSequence(g, g1, g2, g3, g4))


def complete_class_gf(quadrants=(1, 2, 3, 4)) -> RatGF:
    """Generating function of the complete pin class, optionally confined."""
    return complete_class_sequence(quadrants).f


# Bisection cost grows about as the cube of the digits of 1/tol, since step m
# is one Horner on numbers of m·deg bits.  On a shared 2-core x86-64 host with
# CPython 3.11.7, 1 - 2z - z^3 takes 0.04 s at 1e-1000, 0.6 s at 1e-3000 and
# 16 s at 1e-10000; the degree-5 denominator of 1(ldru)* takes 0.11 s, 2.0 s
# and 57 s.
_MIN_TOL = Fraction(1, 10**1000)
# A growth interval at the tolerance floor fixes about a thousand digits; the
# decimal is divided out at ``digits`` precision, so a larger request would
# only cost time and memory on digits no interval fixes.
MAX_DIGITS = 1000


def _square_free(p: Poly) -> Poly:
    """A positive multiple of p over its repeated factors, with coprime
    integer coefficients: by Gauss's lemma the division by the primitive
    gcd of p and p' is exact over the integers."""
    p = p.primitive()
    g = p.gcd(p.derivative())
    return p.divmod(g.primitive())[0] if g.degree > 0 else p


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _taylor_shift(cs: list[int]) -> list[int]:
    """The coefficients of c(x + 1) from those of c(x), lowest first, by
    repeated synthetic division: d(d+1)/2 integer additions."""
    a = list(cs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _dyadic_sign(cs, k: int, m: int) -> int:
    """The sign of p(k / 2^m), read from 2^(m·deg) p(k / 2^m) by integer
    Horner on p's integer coefficients ``cs``."""
    acc = shift = 0
    for c in reversed(cs):
        acc = acc * k + (c << shift)
        shift += m
    return _sign(acc)


def _first_root_node(p: Poly, tol: Fraction | None):
    """Descartes bisection (Collins & Akritas) for the smallest root of the
    primitive integer polynomial p in (0, 1/2].

    Node (k/2^m, (k+1)/2^m] carries the integer polynomial c, a power of 2
    times p((k + x)/2^m), whose roots in (0, 1) are p's in the node.  Its
    count, the sign variations of the Taylor shift by 1 of c's reversed
    coefficients, is at least the number of those roots and of the same
    parity (Descartes' rule), and c's coefficient sum has the sign of p at
    the node's right end.  A node's left child is 2^d·c(x/2), its right
    child that shifted by 1.  The walk visits the left child first, drops a
    node that counts 0, and stops at the first node that counts 1 with no
    root at its right end, or counts 0 with one there: the zero counts to
    its left and that count or exact zero certify that it holds the
    smallest root and no other.

    A repeated root never counts 1, so once a node no wider than ``tol``
    still counts 2 or more, the walk restarts on p's square-free part with
    no such trigger; a square-free p terminates (Vincent's theorem).

    Returns (k, m, the sign of p at (k+1)/2^m, the polynomial walked), or
    None when p has no root in (0, 1/2]."""
    d = p.degree
    stack = [(0, 1, [c << (d - i) for i, c in enumerate(p.coeffs)], False)]
    while stack:
        k, m, node, shifted = stack.pop()
        if shifted:
            node = _taylor_shift(node)
        count = _sign_changes(_taylor_shift(node[::-1]))
        at_hi = sum(node)
        if count == 0:
            if at_hi == 0:
                return k, m, 0, p
            continue
        if count == 1 and at_hi:
            return k, m, _sign(at_hi), p
        if count > 1 and tol is not None and tol.denominator <= tol.numerator << m:
            square_free = _square_free(p)
            if square_free.degree < d:
                return _first_root_node(square_free, None)
            tol = None
        left = [c << (d - i) for i, c in enumerate(node)]
        stack += [(2 * k + 1, m + 1, left, True), (2 * k, m + 1, left, False)]
    return None


class GrowthResult:
    """A certified growth rate.

    ``root_interval`` (lo, hi] holds the smallest root of ``polynomial`` in
    (0, 1/2], with a Descartes-count certificate that no root lies in
    (0, lo]; at a tolerance coarser than the gap to the next root it may
    hold that one too.  ``growth_rate`` is the decimal rendering of its
    reciprocal interval's midpoint, rounded from the exact midpoint.  An
    interval other than 0 < lo < hi raises ParameterOutOfRange;
    a midpoint beyond the float range raises OverflowError.
    """

    __slots__ = ("root_interval", "polynomial", "growth_rate", "digits")

    def __init__(self, root_interval, polynomial: Poly, digits: int = 10):
        lo, hi = Fraction(root_interval[0]), Fraction(root_interval[1])
        if not 0 < lo < hi:
            raise ParameterOutOfRange(f"root interval ({lo}, {hi}] needs 0 < lo < hi")
        self.root_interval = (lo, hi)
        self.polynomial = polynomial
        _check_digits(digits)
        self.digits = digits
        lo, hi = self.growth_interval
        mid = (lo + hi) / 2
        float(mid)  # past the float range, `value` has no float: OverflowError
        self.growth_rate = _significant(mid, digits)

    @property
    def growth_interval(self) -> tuple[Fraction, Fraction]:
        lo, hi = self.root_interval
        return (1 / hi, 1 / lo)

    @property
    def value(self) -> float:
        lo, hi = self.growth_interval
        return float((lo + hi) / 2)

    def to_json(self) -> dict:
        glo, ghi = self.growth_interval
        rlo, rhi = self.root_interval
        return {
            "interval": [str(glo), str(ghi)],
            "decimal": self.growth_rate,
            "root_interval": [str(rlo), str(rhi)],
            "polynomial": str(self.polynomial),
        }

    def __repr__(self) -> str:
        return f"GrowthResult({self.growth_rate}, poly={self.polynomial})"


def _significant(x: Fraction, digits: int) -> str:
    """x > 0 rounded half-even to ``digits`` significant digits, from its
    exact value, and laid out as format(float(x), f".{digits}g") lays out a
    float of 1e-4 or more: trailing zeros dropped, and an exponent of at
    least two digits when it is ``digits`` or more."""
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, ROUND_HALF_EVEN
        rounded = Decimal(x.numerator) / x.denominator
    mantissa, _, exponent = format(rounded, f".{digits}g").partition("e")
    if "." in mantissa:
        mantissa = mantissa.rstrip("0").rstrip(".")
    return mantissa + (f"e{int(exponent):+03d}" if exponent else "")


def _check_digits(digits: int) -> None:
    if not isinstance(digits, int) or isinstance(digits, bool) or digits < 1:
        raise ParameterOutOfRange(f"digits must be an integer of at least 1, got {digits!r}")
    if digits > MAX_DIGITS:
        raise ParameterOutOfRange(f"digits must be at most {MAX_DIGITS}")


def growth_rate(f_or_g, tol=Fraction(1, 10**12), digits: int = 10) -> GrowthResult:
    """Certified growth rate: reciprocal of the smallest root in (0, 1/2].

    ``f_or_g`` is a RatGF, whose denominator's smallest positive root is
    wanted, or a bare Poly, whose own is.  The bisection stops once the
    root interval is at most ``tol`` wide and its lower end is positive;
    ``tol`` is an int, float, Fraction or Decimal of at least 10^-1000,
    checked before it is made exact (the exact fraction of a tiny Decimal is
    itself slow to build); one above 1 acts as 1; a bool, a NaN, an infinity
    or a non-number is refused, as `digits` refuses a bool.  Anything but
    a RatGF or a Poly, text included, is refused as ``f_or_g``.
    """
    if not isinstance(f_or_g, (RatGF, Poly)):
        raise ParameterOutOfRange(f"growth_rate needs a RatGF or Poly, not {type(f_or_g).__name__}")
    if not isinstance(tol, (int, float, Fraction, Decimal)) or isinstance(tol, bool):
        raise ParameterOutOfRange(f"tolerance must be a number, got {tol!r}")
    if isinstance(tol, Decimal) and tol.is_nan() or not tol > 0:
        raise ParameterOutOfRange(f"tolerance must be positive, got {tol}")
    if isinstance(tol, (float, Decimal)) and not Decimal(tol).is_finite():
        raise ParameterOutOfRange(f"tolerance must be finite, got {tol}")
    if tol < _MIN_TOL:
        raise ParameterOutOfRange("tolerance must be at least 1e-1000")
    # every tol of 1/2 or more gives the same bracket, and the exact
    # fraction of a huge Decimal is slow to build
    tol = Fraction(min(tol, 1))
    _check_digits(digits)
    poly = f_or_g if isinstance(f_or_g, Poly) else f_or_g.den
    if poly.is_zero():
        raise ParameterOutOfRange("the zero polynomial vanishes everywhere: no smallest root")
    if poly.degree < 1:
        raise NoRootInRange(f"{poly.quoted()} has no roots at all")
    found = _first_root_node(poly.primitive(), tol)
    if found is None:
        raise NoRootInRange(f"{poly.quoted()} has no root in (0, 1/2]")
    # the node (k/2^m, (k+1)/2^m] holds the smallest root and no other: halve
    # it by the sign of p at each midpoint, carried at the upper end, until
    # the width 2^-m is at most tol and the lower end is past 0
    k, m, s_hi, p = found
    num, den = tol.numerator, tol.denominator
    while k == 0 or den > num << m:
        k, m = 2 * k, m + 1
        s_mid = _dyadic_sign(p.coeffs, k + 1, m)
        if s_mid and s_mid != s_hi:
            k += 1
        else:
            s_hi = s_mid
    # p must change sign across the node, or vanish only at its upper end
    if _dyadic_sign(p.coeffs, k, m) in (0, s_hi):
        raise CrossCheckMismatch("root isolation certificate failed")
    # a node deeper than tol asks for is coarsened to the first level the
    # halving rule stops at, which holds the same root
    while k > 1 and den <= num << (m - 1):
        k, m = k >> 1, m - 1
    lo, hi = Fraction(k, 1 << m), Fraction(k + 1, 1 << m)
    try:
        return GrowthResult((lo, hi), poly, digits=digits)
    except OverflowError:
        raise NumericError(f"growth rate of {poly.quoted()} is beyond the float range") from None


def _positive_on(p: Poly, alpha: Fraction) -> bool:
    """Certify p > 0 on (0, alpha] for any alpha > 0: its lowest term, which
    fixes its sign just right of 0, is positive, and the Descartes walk finds
    no root in (0, 1/2] of q(2·alpha·z), q the square-free part of p, whose
    roots there are q's in (0, alpha]."""
    lowest = next((c for c in p.coeffs if c), 0)
    if lowest <= 0:
        return False
    scale = 2 * Fraction(alpha)
    scaled = Poly([c * scale**i for i, c in enumerate(_square_free(p).coeffs)])
    return _first_root_node(scaled.primitive(), None) is None


def interior_positivity(spec) -> bool:
    """Certify that the interior-mode G is positive on (0, alpha], alpha the
    lower end of the G = 1 root interval.  G's denominator is a power of
    (1 - z) (amended_G asserts it), positive there, so G's sign is its
    numerator's."""
    spec = as_spec(spec)
    gs = amended_G(spec, "recurrent")
    alpha = growth_rate(gs.G.num - gs.G.den).root_interval[0]
    return _positive_on(gs.G.num, alpha)


def truncation_convergence(spec, t_max: int) -> list[GrowthResult]:
    """Growth rates of ⊞-closures of truncations chosen per the t-criterion.

    For each t, n(t) is the smallest truncation point whose pin factors of
    length <= t are all recurrent factors; the resulting sequence decreases
    weakly toward the interior growth rate.  Each shorter factor is the
    prefix of a length-t factor at the same start, on both sides, so only
    length t is compared.
    """
    spec = as_spec(spec)
    if t_max < 1:
        raise ParameterOutOfRange(f"t_max must be positive, got {t_max}")
    cache: dict[PinSpec, GrowthResult] = {}
    out = []
    for t in range(1, t_max + 1):
        rec = enumerate_pin_factors(spec, t, "recurrent")
        chosen = None
        for n in range(1, spec.prefix_length + 3):
            trunc = left_truncate(spec, n)
            if enumerate_pin_factors(trunc, t, "all") <= rec:
                chosen = trunc
                break
        if chosen is None:
            raise CrossCheckMismatch(
                f"no valid truncation point for {spec} at t={t}; "
                "theory guarantees one by prefix_length + 2"
            )
        if chosen not in cache:
            cache[chosen] = growth_rate(closure_gf(chosen))
        out.append(cache[chosen])
    return out


def describe(spec, mode: str = "class", digits: int = 10) -> dict:
    """Full JSON-ready result bundle for a pin spec in the requested mode."""
    spec = as_spec(spec)
    _check_digits(digits)
    gs = _mode_sequence(spec, mode)
    f = gs.f
    growth = growth_rate(f, digits=digits)
    return {
        "spec": str(spec),
        "mode": mode,
        "g": gs.g.to_json(),
        "g_quadrants": [q.to_json() for q in gs.g_quadrants],
        "G": gs.G.to_json(),
        "f": f.to_json(),
        "growth": growth.to_json(),
        "display": {
            "g": str(gs.g),
            "g_quadrants": [str(q) for q in gs.g_quadrants],
            "G": str(gs.G),
            "f": str(f),
        },
    }
