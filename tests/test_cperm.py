"""Centred permutations: parsing, box sums, intervals, normal forms."""

import ast
import random
from functools import reduce
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinclasses
from pinclasses import cperm
from pinclasses.cperm import (
    EMPTY,
    QUADRANT_POINT,
    CentredPerm,
    adjacency_condition,
    as_perm,
    box_decompose,
    box_sum,
    box_sum_level,
    centred_pattern,
    commutes,
    contains,
    expand_level,
    from_oneline,
    is_box_indecomposable,
    minimal_centred_intervals,
    normal_form,
    one_quadrant,
    strip_origin,
    subpatterns,
)
from pinclasses.errors import (
    CrossCheckMismatch,
    EmptyInput,
    EmptyPermutation,
    IndexOutOfRange,
    MalformedSyntax,
    MultipleOrigins,
    NoOrigin,
    NonIndecomposableElement,
    NotAPermutation,
    ParameterOutOfRange,
)
from pinclasses.pimap import pi_map
from strategies import centred_perms, pin_words
from tuple_levels import encode


class TestParsingAndBasics:
    def test_round_trip(self):
        for text in ["[1]", "[1]2", "2[1]", "426[3]51", "31586[4]27"]:
            assert from_oneline(text).one_line() == text

    def test_comma_form_for_wide_entries(self):
        p = CentredPerm(tuple(range(1, 12)), 3)
        text = p.one_line()
        assert "," in text
        assert from_oneline(text) == p

    def test_length_excludes_origin(self):
        assert from_oneline("[1]").length == 0
        assert from_oneline("426[3]51").length == 5

    def test_origin_matters_for_equality(self):
        assert from_oneline("1[2]3") != from_oneline("[1]23")

    def test_errors(self):
        with pytest.raises(EmptyInput):
            from_oneline("  ")
        with pytest.raises(NoOrigin):
            from_oneline("123")
        with pytest.raises(MultipleOrigins):
            from_oneline("[1][2]3")
        with pytest.raises(NotAPermutation):
            from_oneline("[1]1")
        with pytest.raises(MalformedSyntax):
            from_oneline("[1]x2")
        with pytest.raises(MalformedSyntax, match="bad entry"):
            from_oneline("1,x,[2]")

    def test_non_text_input_is_a_parse_error(self):
        """A value that is neither a CentredPerm nor text is malformed input."""
        with pytest.raises(MalformedSyntax) as caught:
            as_perm(1)
        assert caught.value.exit_code == 2

    def test_quadrants(self):
        p = from_oneline("426[3]51")
        assert [p.quadrant(i) for i in (1, 2, 3, 5, 6)] == [2, 3, 2, 1, 4]

    def test_quadrant_position_out_of_range(self):
        p = from_oneline("1[2]43")
        for position in (0, -1, 5, 9):
            with pytest.raises(IndexOutOfRange) as caught:
                p.quadrant(position)
            assert caught.value.exit_code == 3

    def test_origin_has_no_quadrant(self):
        p = from_oneline("1[2]43")
        with pytest.raises(ParameterOutOfRange) as caught:
            p.quadrant(p.origin_index)
        assert isinstance(caught.value, ValueError)
        assert caught.value.exit_code == 3

    def test_json_round_trip(self):
        p = from_oneline("426[3]51")
        assert CentredPerm.from_json(p.to_json()) == p

    def test_json_missing_key_is_a_parse_error(self):
        with pytest.raises(MalformedSyntax) as caught:
            CentredPerm.from_json({"filled": [1]})
        assert caught.value.exit_code == 2


class TestStrictConstruction:
    """Direct construction accepts integers only, never truncating."""

    def test_float_entry_rejected(self):
        with pytest.raises(NotAPermutation) as caught:
            CentredPerm([1.9, 2], 1)
        assert caught.value.exit_code == 2

    def test_float_origin_index_rejected(self):
        with pytest.raises(NotAPermutation):
            CentredPerm([2, 1], 1.0)

    def test_string_origin_index_rejected(self):
        with pytest.raises(NotAPermutation):
            CentredPerm([2, 1], "1")

    @pytest.mark.parametrize("origin", [0, 3])
    def test_origin_index_outside_the_entries_rejected(self, origin):
        with pytest.raises(NotAPermutation, match="origin index"):
            CentredPerm([2, 1], origin)

    def test_numpy_integers_pass_as_python_ints(self):
        np = pytest.importorskip("numpy")
        p = CentredPerm(np.array([2, 3, 1]), np.int64(2))
        q = CentredPerm((2, 3, 1), 2)
        assert p == q and hash(p) == hash(q)
        assert type(p.origin_index) is int
        assert all(type(v) is int for v in p.filled)


class TestBoxSum:
    def test_worked_example(self):
        inner = from_oneline("241[3]5")
        outer = from_oneline("413[5]2")
        assert box_sum(inner, outer).one_line() == "413685[7]92"

    def test_identity_both_sides(self):
        p = from_oneline("241[3]5")
        assert box_sum(EMPTY, p) == p
        assert box_sum(p, EMPTY) == p

    def test_single_point_commutation(self):
        a = from_oneline("[1]32")
        b = from_oneline("1[2]")
        assert box_sum(a, b) == box_sum(b, a) == from_oneline("1[2]43")

    @given(centred_perms(max_n=4), centred_perms(max_n=4), centred_perms(max_n=4))
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert box_sum(box_sum(a, b), c) == box_sum(a, box_sum(b, c))

    @given(centred_perms(max_n=4), centred_perms(max_n=4))
    @settings(max_examples=60)
    def test_length_additive_and_contains(self, a, b):
        s = box_sum(a, b)
        assert s.length == a.length + b.length
        assert contains(s, a)
        assert contains(s, b)

    @given(centred_perms(max_n=3), centred_perms(max_n=3), centred_perms(max_n=3))
    @settings(max_examples=60)
    def test_left_cancellation(self, a, b, c):
        if box_sum(a, b) == box_sum(a, c):
            assert b == c


class TestIntervalsAndDecomposition:
    def test_minimal_intervals_of_worked_example(self):
        p = from_oneline("413685[7]92")
        assert minimal_centred_intervals(p) == [(4, 7)]

    def test_two_minimal_intervals_opposite_quadrants(self):
        p = from_oneline("1[2]43")  # mu3 box mu1 = mu1 box mu3
        ivs = minimal_centred_intervals(p)
        assert len(ivs) == 2

    def test_empty_perm_rejected(self):
        with pytest.raises(EmptyPermutation):
            minimal_centred_intervals(EMPTY)

    def test_decompose_worked_example(self):
        p = from_oneline("413685[7]92")
        parts = [q.one_line() for q in box_decompose(p)]
        assert parts == ["241[3]", "[1]2", "413[5]2"]

    def test_decompose_tie_break(self):
        parts = [q.one_line() for q in box_decompose(from_oneline("1[2]43"))]
        assert parts == ["[1]32", "1[2]"]

    def test_indecomposability(self):
        assert is_box_indecomposable(from_oneline("[1]32"))
        assert is_box_indecomposable(from_oneline("413[5]2"))
        assert not is_box_indecomposable(from_oneline("241[3]5"))
        with pytest.raises(EmptyPermutation):
            is_box_indecomposable(EMPTY)

    def test_indecomposability_matches_cubic_definition(self):
        """The O(m^2) scan agrees with slicing every origin-containing
        window, on every centred permutation with up to 7 entries: p is
        indecomposable iff its only window is the whole range, and the
        minimal intervals are the windows that hold no other."""

        def windows(p):
            m, k = len(p.filled), p.origin_index
            for a in range(1, k + 1):
                for b in range(max(k, a + 1), m + 1):
                    window = p.filled[a - 1 : b]
                    if max(window) - min(window) == b - a:
                        yield a, b

        checked = 0
        for m in range(2, 8):
            for filled in permutations(range(1, m + 1)):
                for origin in range(1, m + 1):
                    p = CentredPerm(filled, origin)
                    found = list(windows(p))
                    assert is_box_indecomposable(p) == (found == [(1, m)]), p
                    minimal = [
                        (a, b)
                        for a, b in found
                        if not any(a <= c and d <= b and (c, d) != (a, b) for c, d in found)
                    ]
                    assert minimal_centred_intervals(p) == sorted(minimal), p
                    checked += 1
        assert checked == sum(factorial(m) * m for m in range(2, 8))

    def test_linear_test_matches_the_interval_scan_exhaustively(self):
        """The O(m) closure test agrees with the first ∘-interval of the
        scan on every centred permutation with up to 8 entries."""
        checked = 0
        for m in range(2, 9):
            whole = (1, m)
            for filled in permutations(range(1, m + 1)):
                for origin in range(1, m + 1):
                    p = CentredPerm._trusted(filled, origin)
                    assert is_box_indecomposable(p) == (next(cperm._centred_intervals(p)) == whole)
                    checked += 1
        assert checked == sum(factorial(m) * m for m in range(2, 9)) == 362_878

    @given(pin_words(max_letters=299, min_letters=1))
    @settings(max_examples=60, deadline=None)
    def test_linear_test_matches_the_interval_scan_on_pin_images(self, w):
        p = pi_map(w)
        whole = (1, len(p.filled))
        assert is_box_indecomposable(p) == (next(cperm._centred_intervals(p)) == whole)

    @given(centred_perms(max_n=6))
    @settings(max_examples=120)
    def test_fold_of_decomposition_restores(self, p):
        parts = box_decompose(p)
        assert all(is_box_indecomposable(q) for q in parts)
        assert reduce(box_sum, parts, EMPTY) == p

    @given(centred_perms(max_n=5))
    @settings(max_examples=80)
    def test_decomposition_unique_up_to_commutation(self, p):
        """Any greedy refolding with random adjacent commuting swaps hits the
        same normal form."""
        parts = box_decompose(p)
        if len(parts) < 2:
            return
        rng = random.Random(hash((p.length, p.filled, p.origin_index)) & 0xFFFF)
        shuffled = list(parts)
        for _ in range(6):
            i = rng.randrange(len(shuffled) - 1)
            if commutes(shuffled[i], shuffled[i + 1]):
                shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
        assert reduce(box_sum, shuffled, EMPTY) == p
        assert normal_form(shuffled) == normal_form(parts)


class TestNormalForm:
    def test_sorts_commuting_opposite_pairs(self):
        a, b = from_oneline("1[2]"), from_oneline("[1]32")
        assert normal_form([a, b]) == normal_form([b, a])

    def test_preserves_non_commuting_order(self):
        a, b = QUADRANT_POINT[1], QUADRANT_POINT[2]
        assert tuple(normal_form([a, b])) == (a, b)
        assert tuple(normal_form([b, a])) == (b, a)

    def test_rejects_decomposable_part(self):
        with pytest.raises(NonIndecomposableElement):
            normal_form([from_oneline("241[3]5")])

    def test_commutes_rules(self):
        assert commutes(QUADRANT_POINT[1], QUADRANT_POINT[3])
        assert commutes(QUADRANT_POINT[2], QUADRANT_POINT[4])
        assert not commutes(QUADRANT_POINT[1], QUADRANT_POINT[2])
        assert commutes(QUADRANT_POINT[1], QUADRANT_POINT[1])
        assert not commutes(from_oneline("413[5]2"), QUADRANT_POINT[1])


class TestContains:
    def test_examples(self):
        big = from_oneline("413685[7]92")
        assert contains(big, from_oneline("241[3]5"))
        assert contains(big, EMPTY)
        assert not contains(from_oneline("[1]2"), from_oneline("2[1]"))

    @given(centred_perms(max_n=5))
    @settings(max_examples=60)
    def test_reflexive(self, p):
        assert contains(p, p)

    @given(centred_perms(max_n=5))
    @settings(max_examples=40)
    def test_subpatterns_are_contained(self, p):
        for q in subpatterns(p):
            assert contains(p, q)

    @given(centred_perms(max_n=4), centred_perms(max_n=4))
    @settings(max_examples=60)
    def test_antisymmetric(self, a, b):
        if contains(a, b) and contains(b, a):
            assert a == b


class TestQuadrantHelpers:
    def test_one_quadrant(self):
        assert one_quadrant(QUADRANT_POINT[1]) == 1
        assert one_quadrant(from_oneline("[1]32")) == 1
        assert one_quadrant(from_oneline("23[1]")) == 2
        assert one_quadrant(from_oneline("1[2]43")) is None
        assert one_quadrant(EMPTY) is None

    def test_adjacency_condition(self):
        assert adjacency_condition({1})
        assert adjacency_condition({1, 2})
        assert adjacency_condition({2, 3, 4})
        assert not adjacency_condition({1, 3})
        assert not adjacency_condition({2, 4})
        assert not adjacency_condition(set())

    def test_strip_origin(self):
        assert strip_origin(from_oneline("31586[4]27")) == (3, 1, 4, 7, 5, 2, 6)
        assert strip_origin(EMPTY) == ()

    def test_quadrants_occupied(self):
        p = from_oneline("1[2]43")
        assert p.quadrants() == frozenset({1, 3})
        assert EMPTY.quadrants() == frozenset()

    @given(centred_perms(max_n=7))
    @settings(max_examples=100)
    def test_quadrants_are_those_of_the_entries(self, p):
        positions = set(range(1, len(p.filled) + 1)) - {p.origin_index}
        assert p.quadrants() == frozenset(p.quadrant(i) for i in positions)


class TestTextInput:
    """Every exported function that takes centred permutations also takes
    them as bracket text, with the same result."""

    def test_box_sum(self):
        assert box_sum("241[3]5", "413[5]2") == box_sum(
            from_oneline("241[3]5"), from_oneline("413[5]2")
        )
        assert box_sum("[1]2", "2[1]").one_line() == "3[1]2"

    def test_contains(self):
        assert contains("413685[7]92", "241[3]5")
        assert not contains("[1]2", "2[1]")

    def test_is_box_indecomposable(self):
        assert is_box_indecomposable("413[5]2")
        assert not is_box_indecomposable("241[3]5")

    def test_box_decompose(self):
        parts = [q.one_line() for q in box_decompose("413685[7]92")]
        assert parts == ["241[3]", "[1]2", "413[5]2"]

    def test_minimal_centred_intervals(self):
        assert minimal_centred_intervals("413685[7]92") == [(4, 7)]

    def test_normal_form(self):
        assert normal_form(["1[2]", "[1]32"]) == normal_form(
            [from_oneline("[1]32"), from_oneline("1[2]")]
        )

    def test_one_quadrant(self):
        assert one_quadrant("23[1]") == 2

    def test_commutes(self):
        assert commutes("[1]2", "1[2]")
        assert commutes("1[2]", from_oneline("1[2]"))

    def test_strip_origin(self):
        assert strip_origin("31586[4]27") == (3, 1, 4, 7, 5, 2, 6)

    def test_subpatterns(self):
        assert subpatterns("1[2]43") == subpatterns(from_oneline("1[2]43"))


class TestCentredPattern:
    def test_rank_standardization(self):
        pts = [(10, 5), (-3, -7), (0, 0)]
        p = centred_pattern(pts, (0, 0))
        assert p.one_line() == "1[2]3"

    @given(centred_perms(max_n=5))
    @settings(max_examples=60)
    def test_pattern_of_own_points_is_identity(self, p):
        assert centred_pattern(p.points(), p.origin_point()) == p


def _inflate(inner: CentredPerm, outer: CentredPerm) -> CentredPerm:
    """inner ⊞ outer geometrically: outer's points spread on a coarse grid,
    its origin replaced by inner's points placed in the cell around it."""
    cell = 2 * len(inner.filled) + 2
    ox, oy = outer.origin_point()
    ix, iy = inner.origin_point()
    pts = [(x * cell, y * cell) for x, y in outer.points() if x != ox]
    pts += [(ox * cell + x - ix, oy * cell + y - iy) for x, y in inner.points()]
    return centred_pattern(pts, (ox * cell, oy * cell))


class TestTrustedConstruction:
    @given(centred_perms(max_n=7), centred_perms(max_n=7))
    @settings(max_examples=150)
    def test_box_sum_is_a_valid_geometric_inflation(self, inner, outer):
        """box_sum skips validation; its result must be exactly what
        validation would build, and equal the geometric route's."""
        r = box_sum(inner, outer)
        assert type(r.filled) is tuple
        assert all(type(v) is int for v in r.filled)
        assert type(r.origin_index) is int
        checked = CentredPerm(r.filled, r.origin_index)
        assert r == checked and hash(r) == hash(checked)
        assert r == _inflate(inner, outer)

    def test_inflation_reference_on_worked_example(self):
        inner, outer = from_oneline("241[3]5"), from_oneline("413[5]2")
        assert _inflate(inner, outer).one_line() == "413685[7]92"

    def test_only_box_sum_and_the_expander_use_it(self):
        """The unchecked constructor must not spread to public entries: its
        definition and its two builders (box_sum and the census levels'
        member expander) are the only code that names it."""
        found = []

        def visit(node, module, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
                if node.name == "_trusted":
                    found.append((module, scope))
            elif (
                isinstance(node, ast.Attribute) and node.attr == "_trusted"
                or isinstance(node, ast.Name) and node.id == "_trusted"
                or isinstance(node, ast.Constant) and node.value == "_trusted"
            ):
                found.append((module, scope))
            for child in ast.iter_child_nodes(node):
                visit(child, module, scope)

        for path in sorted(Path(pinclasses.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
        assert sorted(found) == [
            ("cperm", "CentredPerm._trusted"),
            ("cperm", "box_sum"),
            ("cperm", "expand_level"),
        ]

    @given(st.lists(centred_perms(max_n=5), max_size=12))
    @settings(max_examples=100)
    def test_expander_inverts_the_mask_form(self, perms):
        """expand_level skips validation; each member it builds from a level
        of origin masks must be exactly what validation would build."""
        members = expand_level(_masks(perms))
        assert members == frozenset(perms)
        for r in members:
            assert type(r.filled) is tuple and all(type(v) is int for v in r.filled)
            assert type(r.origin_index) is int
            assert r == CentredPerm(r.filled, r.origin_index)


def _masks(perms):
    """A set of CentredPerms as a census level: one-line key -> bitmask of
    origin indices."""
    level = {}
    for p in perms:
        level[p.filled] = level.get(p.filled, 0) | 1 << p.origin_index
    return encode(level)


def _pairwise(levels, parts, n):
    return {
        box_sum(left, piece)
        for p, pieces in parts.items()
        if p <= n
        for left in levels[n - p]
        for piece in pieces
    }


@st.composite
def _level_inputs(draw):
    """A level n, lefts of every length below it and pieces of mixed
    lengths (some longer than n).  Each left comes with copies of its
    entries under other origins, so that different pairs give one key with
    several origin indices."""
    n = draw(st.integers(min_value=1, max_value=6))
    levels = {k: set() for k in range(n)}
    for left in draw(st.lists(centred_perms(max_n=n - 1), max_size=5)):
        origins = draw(st.sets(st.integers(1, len(left.filled)), max_size=3))
        levels[left.length] |= {left} | {
            CentredPerm(left.filled, k) for k in origins
        }
    parts = {}
    for piece in draw(st.lists(centred_perms(max_n=n + 1), max_size=6)):
        if piece.length:
            parts.setdefault(piece.length, set()).add(piece)
    return {k: frozenset(v) for k, v in levels.items()}, parts, n


def _mask_levels(levels):
    return {k: _masks(v) for k, v in levels.items()}


class TestBoxSumLevel:
    @given(_level_inputs())
    @settings(max_examples=150)
    def test_equals_the_pairwise_box_sums(self, inputs):
        levels, parts, n = inputs
        level = box_sum_level(_mask_levels(levels), parts, n)
        expected = _pairwise(levels, parts, n)
        assert type(level) is dict
        assert level == _masks(expected)
        assert all(type(key) is bytes for key in level)
        assert expand_level(level) == expected

    def test_one_entry_tuple_with_two_origins(self):
        levels = {0: frozenset({EMPTY}), 1: frozenset(from_oneline(t) for t in ("[1]2", "1[2]"))}
        parts = {1: {from_oneline("[1]2")}, 2: {from_oneline("[1]23")}}
        masks = _mask_levels(levels)
        assert masks[1] == encode({(1, 2): 0b110})
        level = box_sum_level(masks, parts, 2)
        assert level == encode({(1, 2, 3): 0b110})
        assert expand_level(level) == {from_oneline(t) for t in ("[1]23", "1[2]3")}
        assert expand_level(level) == _pairwise(levels, parts, 2)

    def test_nothing_to_sum_is_empty(self):
        levels = _mask_levels({0: frozenset({EMPTY}), 1: frozenset()})
        assert box_sum_level(levels, {2: {from_oneline("[1]23")}}, 1) == {}
        assert box_sum_level(levels, {1: {from_oneline("[1]2")}}, 2) == {}

    def test_disagreement_with_box_sum_is_a_mismatch(self, monkeypatch):
        """The kernel checks its first sum per piece length against
        box_sum; a box_sum that disagrees with the kernel must raise."""
        real = cperm.box_sum
        monkeypatch.setattr(
            cperm, "box_sum", lambda inner, outer: real(real(inner, outer), QUADRANT_POINT[1])
        )
        levels = _mask_levels({0: frozenset({EMPTY})})
        with pytest.raises(CrossCheckMismatch):
            box_sum_level(levels, {1: {from_oneline("[1]2")}}, 1)
