"""The point-placement map from pin words to centred permutations."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinclasses import classify, pimap
from pinclasses.classify import all_pin_words
from pinclasses.cperm import (
    QUADRANT_SIGNS,
    CentredPerm,
    _centred_intervals,
    box_sum,
    centred_pattern,
    from_oneline,
    is_box_indecomposable,
    quadrant_of,
)
from pinclasses.errors import (
    CrossCheckMismatch,
    IndexOutOfRange,
    NotInterior,
    ParameterOutOfRange,
)
from pinclasses.pimap import (
    PinDiagram,
    all_point_quadrants,
    check_node,
    compose_representation,
    diagram_points,
    pi_map,
    point_quadrant,
    prefix_levels,
    remove_interior_point,
)
from pinclasses.pinword import (
    NEXT_LETTERS,
    PinSpec,
    PinWord,
    as_word,
    enumerate_pin_factors,
    parse_pin_spec,
    parse_pin_word,
)
from pinclasses.pipeline import _factor_counts
from pinclasses.series import Poly, RatGF
from strategies import pin_specs, pin_words

import tuple_walk
from tuple_walk import lanes, one_line, trie_of

# Frozen word -> one-line expectations, independently derivable by hand from
# the placement rules (each letter's point goes one step beyond the bounding
# rectangle of everything placed so far, on the side of the previous point).
KNOWN_IMAGES = {
    "2lurdld": "31586[4]27",
    "1u": "[1]32",
    "1r": "[1]32",
    "1l": "2[1]3",
    "2u": "23[1]",
    "2l": "23[1]",
    "1uld": "41[2]53",
    "1ul": "3[1]42",
    "1ururu": "[1]426375",
    "1rurur": "[1]352746",
    "2lulu": "46253[1]",
    "1": "[1]2",
    "3": "1[2]",
    "1d": "[2]13",
}


def _place(pts, letter):
    """The points after placing one more point for ``letter``: the new point
    takes a fresh extreme rank on its letter's axis, and on the other axis
    every rank at or past its own shifts up by one.  The definition of the
    point route, at O(n) per point."""
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


def reference_points(w):
    """`diagram_points` by its definition: a fold of `_place`."""
    w = as_word(w)
    pts = [(0, 0), QUADRANT_SIGNS[w.numeral]]
    for letter in w.letters:
        pts = _place(pts, letter)
    return pts


def fresh_node(text):
    """What `prefix_levels` yields for a word, built from scratch."""
    img = pi_map(text)
    return text, (lanes(img.filled), img.origin_index), is_box_indecomposable(img), img.quadrants()


def reference_intervals(f, k) -> set:
    """The proper non-trivial ∘-intervals of the image (f, k) from scratch,
    as (a, b, lo, hi): every ∘-interval but the whole range (1, m), with
    lo and hi read from the image."""
    m = len(f)
    return {
        (a, b, min(f[a - 1 : b]), max(f[a - 1 : b]))
        for a, b in _centred_intervals(CentredPerm(f, k))
        if (a, b) != (1, m)
    }


def check_intervals(text, node):
    image, k, _, _, _, intervals, _, _ = node
    assert len(set(intervals)) == len(intervals), text
    assert set(intervals) == reference_intervals(one_line(image), k), text


def path_nodes(text):
    """(prefix, node) for every prefix of the word text, each node its
    parent's plus one `_grow` step from the numeral's seed, in a walk as
    deep as the word."""
    node = pimap._seed(int(text[0]), len(text))
    yield text[0], node
    for end in range(2, len(text) + 1):
        node = pimap._grow(node, text[end - 1])
        yield text[:end], node


class TestCarriedIntervals:
    """The ∘-intervals `_grow` carries equal the from-scratch set at every
    node; the other tests see only whether the set is empty."""

    def test_every_word_to_ten(self):
        """At every node the intervals, and against `pi_map` and
        `diagram_points` built from scratch the image pair, the origin
        value, the last point's position, whether it is on top and the
        quadrant set."""
        stack = [(str(n), pimap._seed(n, 10)) for n in QUADRANT_SIGNS]
        seen = 0
        while stack:
            text, node = stack.pop()
            check_intervals(text, node)
            image, k, vo, last, top, _, quadrants, _ = node
            img = pi_map(text)
            assert (image, k) == (lanes(img.filled), img.origin_index), text
            assert vo == img.origin_value, text
            pts = diagram_points(text)
            assert last == pts[-1][0] - min(x for x, _ in pts) + 1, text
            assert top == (pts[-1][1] == max(y for _, y in pts)), text
            assert quadrants == {quadrant_of(pt, pts[0]) for pt in pts[1:]}, text
            seen += 1
            if len(text) < 10:
                stack.extend((text + c, pimap._grow(node, c)) for c in NEXT_LETTERS[text[1:][-1:]])
        assert seen == 4 + sum(2 ** (n + 2) for n in range(2, 11))

    def test_every_interval_is_the_origin_and_a_suffix(self):
        """The lemma `_grow` rests on, on the point route: for every word
        of up to 11 points, each ∘-interval of its image holds the origin
        and p_j..p_n for some j, and no other point."""
        for n in range(1, 12):
            for w in all_pin_words(n):
                pts = diagram_points(w)
                # the point at each position of the image, x ranks being a run
                at = sorted(range(n + 1), key=lambda i: pts[i][0])
                for a, b in _centred_intervals(pi_map(w)):
                    held = sorted(at[a - 1 : b])
                    assert held == [0, *range(n + 2 - len(held), n + 1)], (str(w), a, b)

    @given(pin_words(max_letters=300))
    @settings(max_examples=40, deadline=None)
    def test_long_paths(self, w):
        for text, node in path_nodes(str(w)):
            check_intervals(text, node)

    @pytest.mark.parametrize(
        "text",
        [
            "1" + "ru" * 75,
            "3" + "ld" * 75,
            "4" + "ul" * 75,
            "3" + "ur" * 75,
            "1u" + "lurd" * 37,
            "2" + "dl" * 130,
        ],
        ids=lambda text: f"{text[:5]}-{len(text)}",
    )
    def test_periodic_words(self, text):
        """Pin-word images have at most two proper ∘-intervals (to n = 12);
        4(ul)* and 3(ur)* keep one from length 2 on, 1(ru)* and 3(ld)* have
        none.  The 261-letter word walks past depth 254."""
        for prefix, node in path_nodes(text):
            check_intervals(prefix, node)


class TestPiMap:
    def test_known_images(self):
        for word, expect in KNOWN_IMAGES.items():
            assert pi_map(word).one_line() == expect, word

    def test_accepts_word_objects(self):
        assert pi_map(PinWord(1, "u")) == pi_map("1u")

    def test_length(self):
        for word in KNOWN_IMAGES:
            assert pi_map(word).length == len(word)

    @given(pin_words(max_letters=8))
    @settings(max_examples=80)
    def test_image_length_matches_word(self, w):
        assert pi_map(w).length == w.length

    @given(pin_words(max_letters=8))
    @settings(max_examples=80)
    def test_prefix_images_nest(self, w):
        """Dropping the last letter gives a pattern of the full image."""
        if not w.letters:
            return
        from pinclasses.cperm import contains

        shorter = PinWord(w.numeral, w.letters[:-1])
        assert contains(pi_map(w), pi_map(shorter))

    @given(pin_words(max_letters=29))
    @settings(max_examples=80)
    def test_prefix_images_match_fresh_diagrams(self, w):
        """The levels of w's text alone hold w's prefixes, one a level; each
        image, flag and quadrant set matches the routes built from scratch."""
        text = str(w)
        levels = list(prefix_levels([text]))
        assert levels == [[fresh_node(text[:k])] for k in range(1, w.length + 1)]

    def test_levels_match_fresh_routes_to_ten(self):
        """The levels of every word of length 10 hold every word of length
        <= 10, each once: image, flag and quadrant set against pi_map,
        is_box_indecomposable and quadrants() built from scratch."""
        levels = list(prefix_levels(str(w) for w in all_pin_words(10)))
        assert [len(level) for level in levels] == [4] + [2 ** (n + 2) for n in range(2, 11)]
        for level in levels:
            for node in level:
                assert node == fresh_node(node[0])

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_levels_hold_exactly_the_distinct_prefixes(self, length, size, rng):
        """Given a random sample of the words of one length, in random
        order and partly repeated, level n holds each distinct length-n
        prefix of the sample once, in sorted order, and each node matches
        the routes built from scratch."""
        words = [str(w) for w in all_pin_words(length)]
        sample = rng.sample(words, min(size, len(words)))
        levels = list(prefix_levels(sample + sample[: len(sample) // 2]))
        assert len(levels) == (length if sample else 0)
        for n, level in enumerate(levels, 1):
            assert [text for text, *_ in level] == sorted({text[:n] for text in sample})
            assert all(node == fresh_node(node[0]) for node in level)

    @given(pin_words(max_letters=4), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40)
    def test_extension_levels_match_fresh_diagrams(self, root, extra):
        """The levels of every extension of a root by ``extra`` letters hold
        the root's prefixes, one a level, then every extension of each
        length, each matching the routes built from scratch."""
        text = str(root)
        texts = [str(w) for w in all_pin_words(root.length + extra) if str(w).startswith(text)]
        levels = list(prefix_levels(texts))
        assert len(levels) == root.length + extra
        for n, level in enumerate(levels, 1):
            assert [t for t, *_ in level] == sorted({t[:n] for t in texts})
            assert all(node == fresh_node(node[0]) for node in level)

    @given(pin_words(max_letters=23))
    @settings(max_examples=100)
    def test_walked_image_is_a_valid_perm(self, w):
        """The walker yields (lane int, origin index) pairs; each must
        decode to exactly what validation would keep, and equal the sorting
        route's."""
        *_, [(_, (image, origin), _, _)] = prefix_levels([str(w)])
        assert type(image) is int
        assert type(origin) is int
        checked = CentredPerm(one_line(image), origin)
        assert (lanes(checked.filled), checked.origin_index) == (image, origin)
        assert checked == pi_map(w)


def seeded_spec(cycle_length: int, prefix: str) -> PinSpec:
    """A spec with numeral 1, the given prefix letters and a random cycle
    of cycle_length letters that alternates the axes, seeded by its length."""
    rng = random.Random(cycle_length)
    axes = ("ud", "lr") if prefix[-1:] in ("l", "r") else ("lr", "ud")
    cycle = "".join(rng.choice(axes[i % 2]) for i in range(cycle_length))
    return PinSpec(PinWord(1, prefix), cycle)


def beside_tuple_levels(texts):
    """Each `prefix_levels` node of ``texts`` (one length), level by level,
    with its image pair as a one-line tuple, beside the tuple walk's node
    for the same text: the depth-first walk of the texts' trie, which must
    spell exactly the words of the levels."""
    texts = list(texts)
    reference = {}
    for numeral, sub in trie_of(texts).items():
        for node in tuple_walk.trie_images(PinWord(int(numeral)), len(texts[0]), sub):
            reference[node[0]] = node
    for level in prefix_levels(texts):
        for node in level:
            image, k = node[1]
            yield node, (one_line(image), k), reference.pop(node[0])
    assert not reference


class TestAgainstTupleWalk:
    """The lane walks against the tuple walk they replaced
    (tests/tuple_walk.py), node by node, short of depth 254 and past it:
    `prefix_levels` beside the tuple walk of the same texts' trie, from
    every word of length 10 to a spec's longest factors."""

    def test_every_word_to_ten(self):
        texts = [str(w) for w in all_pin_words(10)]
        for (text, _, flag, quadrants), pair, reference in beside_tuple_levels(texts):
            assert (text, pair, flag, quadrants) == reference

    @pytest.mark.parametrize(
        "cycle_length, prefix",
        [(82, "ruldr"), (84, ""), (88, "d"), (90, "lur")],
        ids=lambda arg: str(arg) if isinstance(arg, int) else arg or "bare",
    )
    def test_long_specs_across_the_width(self, cycle_length, prefix):
        """The factor levels of specs whose window (prefix + 3 cycles + 2)
        is 254, 255, 268 and 276, so whose images hold 255 to 277 values:
        every node, and `_factor_counts` in both modes against the tuple
        walk's tables."""
        spec = seeded_spec(cycle_length, prefix)
        window = spec.prefix_length + 3 * spec.cycle_length + 2
        assert window == {82: 254, 84: 255, 88: 268, 90: 276}[cycle_length]
        longest = [str(w) for w in enumerate_pin_factors(spec, window, "all")]
        for (text, _, flag, quadrants), pair, reference in beside_tuple_levels(longest):
            assert (text, pair, flag, quadrants) == reference
        for mode in ("all", "recurrent"):
            assert _factor_counts(spec, mode) == tuple_walk.factor_tables(spec, mode)

    @given(pin_words(max_letters=300, min_letters=255))
    @settings(max_examples=20, deadline=None)
    def test_long_words(self, w):
        """Every prefix of a word of 255 to 300 letters, node by node."""
        for (text, _, flag, quadrants), pair, reference in beside_tuple_levels([str(w)]):
            assert (text, pair, flag, quadrants) == reference

    def test_long_word_levels(self):
        """The lane tables follow the word's length: the levels of a
        261-letter word hold its prefixes, one a level, and the last passes
        `check_node`."""
        root = PinWord(2, "dl" * 130)
        levels = list(prefix_levels([str(root)]))
        assert [len(level) for level in levels] == [1] * root.length
        (node,) = levels[-1]
        assert len(one_line(node[1][0])) == root.length + 1
        check_node(*node)

    def test_depth_past_the_lanes_refused(self):
        """A 16-bit lane holds the values of a walk to depth 65534; a
        deeper walk is refused before any table is built."""
        with pytest.raises(ParameterOutOfRange, match="65534"):
            classify._walk(PinWord(1), 65535, {})
        with pytest.raises(ParameterOutOfRange, match="65534"):
            next(prefix_levels(["1" + "ud" * 32767]))

    @given(
        pin_specs(cycle_lengths=(2, 4, 6, 8, 10, 12)),
        st.sampled_from(["all", "recurrent"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_factor_counts_match_the_tuple_walk(self, spec, mode):
        assert _factor_counts(spec, mode) == tuple_walk.factor_tables(spec, mode)

    @pytest.mark.parametrize("start", [1, 255])
    @pytest.mark.parametrize("table", ["units", "repunits"])
    def test_off_by_one_shift_fails(self, monkeypatch, table, start):
        """Lane units one lane too high, or repunits one lane short, from
        lane count ``start`` on, part the walk of 1(dl)^150 from the tuple
        walk by depth 12, or past depth 254 when only the lane counts past
        254 are skewed; the first parted node fails `check_node`."""
        real = pimap._lanes

        def skewed(depth):
            units, masks, repunits = real(depth)
            if table == "units":
                units = [u << 16 if j >= start else u for j, u in enumerate(units)]
            else:
                repunits = [r >> 16 if j >= start else r for j, r in enumerate(repunits)]
            return units, masks, repunits

        monkeypatch.setattr(pimap, "_lanes", skewed)
        walk = beside_tuple_levels(["1" + "dl" * 150])
        node = next(node for node, pair, reference in walk if pair != reference[1])
        assert len(node[0]) <= 12 if start == 1 else len(node[0]) > 254
        with pytest.raises(CrossCheckMismatch, match="walked image"):
            check_node(*node)


class TestMismatchMessages:
    @pytest.mark.parametrize("width", [1, 2])
    def test_walked_image_printed_as_values(self, width):
        """`check_node` prints a walked image as its one-line values and
        origin index, not as its lane int, whether its top value fills one
        byte of its 16-bit lane or both."""
        top = 3 << 8 * (width - 1)
        with pytest.raises(CrossCheckMismatch) as err:
            check_node("1r", (lanes((top, 1, 2)), 2), True, {1})
        assert str(err.value) == (
            f"walked image [{top}, 1, 2] with origin index 2 of 1r differs from its pi-map [1]32"
        )


class TestDiagramGeometry:
    def test_origin_first(self):
        pts = diagram_points("1ru")
        assert pts[0] == (0, 0)
        assert len(pts) == 4

    @given(pin_words(max_letters=300))
    @settings(max_examples=100)
    def test_points_match_reference(self, w):
        assert diagram_points(w) == reference_points(w)

    @pytest.mark.parametrize(
        "text",
        [
            "1" + "ru" * 150,
            "3" + "ld" * 150,
            "2" + "lu" * 150 + "l",
            "4" + "dr" * 150,
            "1u" + "lurd" * 75,
        ],
        ids=lambda text: f"{text[:5]}-{len(text)}",
    )
    def test_long_words_match_reference(self, text):
        ref = reference_points(text)
        assert diagram_points(text) == ref
        assert PinDiagram(text).points == tuple(ref)

    def test_coordinates_distinct(self):
        pts = diagram_points("2lurdld")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        assert len(set(xs)) == len(xs)
        assert len(set(ys)) == len(ys)

    @given(pin_words(max_letters=23))
    @settings(max_examples=200)
    def test_coordinates_form_contiguous_ranges(self, w):
        """Placement inserts one rank per axis, shifting the ranks above it,
        as the image-level step does."""
        pts = diagram_points(w)
        for axis in (0, 1):
            values = sorted(p[axis] for p in pts)
            assert values == list(range(values[0], values[0] + len(pts)))

    def test_each_letter_point_is_extreme(self):
        word = parse_pin_word("2lurdld")
        pts = diagram_points(word)
        for k in range(2, word.length + 1):
            letter = word.letters[k - 2]
            earlier = pts[:k]
            x, y = pts[k]
            if letter == "u":
                assert y > max(p[1] for p in earlier)
            elif letter == "d":
                assert y < min(p[1] for p in earlier)
            elif letter == "r":
                assert x > max(p[0] for p in earlier)
            else:
                assert x < min(p[0] for p in earlier)

    @given(pin_words(max_letters=8))
    @settings(max_examples=60)
    def test_separation_invariant(self, w):
        """Every placed point separates its predecessor from the rest."""
        pts = diagram_points(w)
        for k in range(2, w.length + 1):
            letter = w.letters[k - 2]
            rest = pts[: k - 1]
            prev = pts[k - 1]
            x, y = pts[k]
            if letter in "ud":
                lo, hi = sorted((prev[0], x))
                assert all(not lo < p[0] < hi for p in rest[:-1] + [prev])
                assert min(prev[0], x) > max(p[0] for p in rest) or max(
                    prev[0], x
                ) < min(p[0] for p in rest) or True
                # x must lie strictly between the rectangle of rest and prev
                rect_lo = min(p[0] for p in rest)
                rect_hi = max(p[0] for p in rest)
                assert (rect_hi < x < prev[0]) or (prev[0] < x < rect_lo)
            else:
                rect_lo = min(p[1] for p in rest)
                rect_hi = max(p[1] for p in rest)
                assert (rect_hi < y < prev[1]) or (prev[1] < y < rect_lo)


class TestPointQuadrant:
    def test_examples(self):
        assert point_quadrant("2ruldlurdr", 5) == 3
        assert point_quadrant("2ruldlurdr", 9) == 4
        assert point_quadrant("1ru", 1) == 1

    def test_all_point_quadrants(self):
        w = parse_pin_word("2lurdld")
        quads = all_point_quadrants(w)
        assert quads[1] == 2
        assert set(quads) == set(range(1, 8))
        for k, q in quads.items():
            assert q == point_quadrant(w, k)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            point_quadrant("1ru", 4)


class TestRemoveInteriorPoint:
    def test_worked_example(self):
        left, right = remove_interior_point("1ldldruruld", 6)
        assert left == pi_map("1ldld")
        assert right == pi_map("1ruld")

    def test_endpoints_rejected(self):
        with pytest.raises(NotInterior):
            remove_interior_point("1ldld", 1)
        with pytest.raises(NotInterior):
            remove_interior_point("1ldld", 5)

    @given(pin_words(max_letters=7), st.data())
    @settings(max_examples=60)
    def test_split_agrees_with_point_deletion(self, w, data):
        if w.length < 3:
            return
        k = data.draw(st.integers(min_value=2, max_value=w.length - 1))
        left, right = remove_interior_point(w, k)
        pts = diagram_points(w)
        kept = [p for i, p in enumerate(pts) if i != k]
        assert box_sum(left, right) == centred_pattern(kept, pts[0])


class TestComposeRepresentation:
    def test_three_routes_to_same_perm(self):
        target = from_oneline("51[2]364")
        for words in [
            ["1", "3", "1ul"],
            ["3", "1", "1ul"],
            ["1", "1uld"],
        ]:
            assert compose_representation(words) == target

    def test_empty_rejected(self):
        with pytest.raises(IndexOutOfRange):
            compose_representation([])

    @given(st.lists(pin_words(max_letters=3), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_matches_left_fold(self, words):
        from functools import reduce

        from pinclasses.cperm import EMPTY

        expect = reduce(box_sum, (pi_map(w) for w in words), EMPTY)
        assert compose_representation(words) == expect


class TestRendering:
    def test_svg_structure(self):
        svg = PinDiagram("1ldrdluru").to_svg()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 10  # 9 pin points + origin

    def test_ascii_grid(self):
        art = PinDiagram("1ru").to_ascii()
        lines = art.splitlines()
        assert len(lines) == 4
        assert any("o" in line for line in lines)
        joined = "".join(lines)
        for mark in "123":
            assert mark in joined

    def test_diagram_perm_property(self):
        assert PinDiagram("2lurdld").perm == pi_map("2lurdld")


class TestValueTypes:
    VALUES = [
        lambda: PinWord(2, "lurdld"),
        lambda: parse_pin_spec("1r(ur)*"),
        lambda: from_oneline("31586[4]27"),
        lambda: PinDiagram("2lurdld"),
        lambda: Poly([1, -2, Fraction(1, 2)]),
        lambda: RatGF(Poly([0, 1]), Poly([1, -1, -1])),
    ]
    NAMES = ["PinWord", "PinSpec", "CentredPerm", "PinDiagram", "Poly", "RatGF"]
    # The fields each type's equality and hash read.
    COMPARED = [
        ("numeral", "letters"),
        ("_canon",),
        ("filled", "origin_index"),
        ("word",),
        ("coeffs",),
        ("num", "den"),
    ]

    @pytest.mark.parametrize("make", VALUES, ids=NAMES)
    def test_immutable(self, make):
        value = make()
        for field in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
            with pytest.raises(AttributeError):
                delattr(value, field)

    @pytest.mark.parametrize("make, compared", zip(VALUES, COMPARED), ids=NAMES)
    def test_hash_is_the_hash_of_the_compared_fields(self, make, compared):
        value = make()
        assert hash(value) == hash(tuple(getattr(value, name) for name in compared))

    def test_specs_equal_as_infinite_words(self):
        spec = parse_pin_spec("1r(ur)*")
        assert spec == parse_pin_spec("1(ru)*")
        assert hash(spec) == hash(parse_pin_spec("1(ru)*"))
        assert spec != parse_pin_spec("1(ur)*")
        assert PinWord(2, "lurdld") != PinDiagram("2lurdld")

    @pytest.mark.parametrize("make", VALUES, ids=NAMES)
    def test_pickle_round_trip(self, make):
        value = make()
        back = pickle.loads(pickle.dumps(value))
        assert back == value
        assert hash(back) == hash(value)
        assert str(back) == str(value)

    @pytest.mark.parametrize("make", VALUES, ids=NAMES)
    def test_deepcopy_round_trip(self, make, monkeypatch):
        """A deep copy, like a pickled value, equals the original and is
        built by the validating constructor, once a copy."""
        value = make()
        cls = type(value)
        init, calls = cls.__init__, []

        def counted(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
        for back in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert back == value
            assert hash(back) == hash(value)
            assert str(back) == str(value)
        assert calls == [value.__reduce__()[1]] * 2
