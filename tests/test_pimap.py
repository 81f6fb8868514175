"""The point-placement map from pin words to centred permutations."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinclasses import pimap
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
from pinclasses.errors import CrossCheckMismatch, IndexOutOfRange, NotInterior
from pinclasses.pimap import (
    PinDiagram,
    all_point_quadrants,
    compose_representation,
    diagram_points,
    pi_map,
    point_quadrant,
    remove_interior_point,
    trie_images,
)
from pinclasses.pinword import NEXT_LETTERS, PinWord, as_word, parse_pin_spec, parse_pin_word
from strategies import pin_words

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
    """What `trie_images` yields for a word, built from scratch."""
    img = pi_map(text)
    return text, (img.filled, img.origin_index), is_box_indecomposable(img), img.quadrants()


def trie_of(words) -> dict:
    """The nested-dict trie of the letter strings ``words``."""
    trie: dict = {}
    for letters in words:
        node = trie
        for c in letters:
            node = node.setdefault(c, {})
    return trie


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
    f, k, _, intervals, _ = node
    assert len(set(intervals)) == len(intervals), text
    assert set(intervals) == reference_intervals(f, k), text


def path_nodes(text):
    """(prefix, node) for every prefix of the word text, each node its
    parent's plus one `_grow` step from the numeral's seed."""
    node = pimap._seed(int(text[0]))
    yield text[0], node
    for end in range(2, len(text) + 1):
        node = pimap._grow(node, text[end - 1])
        yield text[:end], node


class TestCarriedIntervals:
    """The ∘-intervals `_grow` carries equal the from-scratch set at every
    node; the other tests see only whether the set is empty."""

    def test_every_word_to_ten(self):
        """At every node the intervals, and against `pi_map` and
        `diagram_points` built from scratch the image pair, the last
        point's position and the quadrant set."""
        stack = [(str(n), pimap._seed(n)) for n in QUADRANT_SIGNS]
        seen = 0
        while stack:
            text, node = stack.pop()
            check_intervals(text, node)
            f, k, last, _, quadrants = node
            img = pi_map(text)
            assert (f, k) == (img.filled, img.origin_index), text
            pts = diagram_points(text)
            assert last == pts[-1][0] - min(x for x, _ in pts) + 1, text
            assert quadrants == {quadrant_of(pt, pts[0]) for pt in pts[1:]}, text
            seen += 1
            if len(text) < 10:
                stack.extend((text + c, pimap._grow(node, c)) for c in NEXT_LETTERS[text[1:][-1:]])
        assert seen == 4 + sum(2 ** (n + 2) for n in range(2, 11))

    @given(pin_words(max_letters=300))
    @settings(max_examples=40, deadline=None)
    def test_long_paths(self, w):
        for text, node in path_nodes(str(w)):
            check_intervals(text, node)

    @pytest.mark.parametrize(
        "text",
        ["1" + "ru" * 75, "3" + "ld" * 75, "4" + "ul" * 75, "3" + "ur" * 75, "1u" + "lurd" * 37],
        ids=lambda text: f"{text[:5]}-{len(text)}",
    )
    def test_periodic_words(self, text):
        """Pin-word images have at most two proper ∘-intervals (to n = 12);
        4(ul)* and 3(ur)* keep one from length 2 on, 1(ru)* and 3(ld)* have
        none."""
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
        """The trie of w's letters alone walks w's prefixes; each image,
        flag and quadrant set matches the routes built from scratch."""
        nodes = list(trie_images(PinWord(w.numeral), w.length, trie_of([w.letters])))
        text = str(w)
        assert nodes == [fresh_node(text[:k]) for k in range(1, w.length + 1)]

    def test_walk_matches_fresh_routes_to_ten(self):
        """Every word of length <= 10, from each numeral root: image, flag
        and quadrant set against pi_map, is_box_indecomposable and
        quadrants() built from scratch."""
        nodes = [node for root in all_pin_words(1) for node in trie_images(root, 10)]
        assert len(nodes) == 4 + sum(2 ** (n + 2) for n in range(2, 11))
        for node in nodes:
            assert node == fresh_node(node[0])

    @given(
        pin_words(max_letters=3),
        st.integers(min_value=1, max_value=7),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_filtered_walk_yields_exactly_the_admitted_words(self, root, n_max, rng):
        """Given a trie, the walk yields the root and exactly the words the
        trie spells past it, up to n_max: here the trie of a random sample
        of the root's extensions up to n_max + 2.  Each image matches the
        pi-map built from scratch."""
        every, frontier = [], [root]
        while frontier:  # brute force: every extension of the root
            every += frontier
            frontier = [v for w in frontier if w.length < n_max + 2 for v in w.extensions()]
        sample = [str(w) for w in every if rng.random() < 0.3]
        spelled = {text[:k] for text in sample for k in range(root.length, len(text) + 1)}
        admitted = {text for text in spelled if len(text) <= n_max} | {str(root)}
        trie = trie_of(text[root.length :] for text in sample)
        nodes = list(trie_images(root, n_max, trie))
        assert sorted(text for text, *_ in nodes) == sorted(admitted)
        assert all(node == fresh_node(node[0]) for node in nodes)

    @given(pin_words(max_letters=4), st.integers(min_value=1, max_value=7))
    @settings(max_examples=40)
    def test_trie_images_match_fresh_diagrams(self, root, n_max):
        nodes = list(trie_images(root, n_max))
        assert all(node == fresh_node(node[0]) for node in nodes)
        # the root and its extensions of every length up to n_max, in
        # depth-first LETTERS order
        words, expected = [root], []
        while words:
            w = words.pop()
            expected.append(str(w))
            if w.length < n_max:
                words.extend(reversed(w.extensions()))
        assert [text for text, *_ in nodes] == expected

    def test_walk_order(self):
        """Depth first in LETTERS order without a trie; with one, in the
        order its letters were inserted."""
        texts = [text for text, *_ in trie_images(PinWord(1), 4)]
        assert texts == (
            "1 1u 1ul 1ulu 1uld 1ur 1uru 1urd 1d 1dl 1dlu 1dld 1dr 1dru 1drd "
            "1l 1lu 1lul 1lur 1ld 1ldl 1ldr 1r 1ru 1rul 1rur 1rd 1rdl 1rdr"
        ).split()
        trie = trie_of(["rd", "ru", "lur", "lul", "ld"])
        texts = [text for text, *_ in trie_images(PinWord(1), 4, trie)]
        assert texts == "1 1r 1rd 1ru 1l 1lu 1lur 1lul 1ld".split()

    @given(pin_words(max_letters=23))
    @settings(max_examples=100)
    def test_walked_image_is_a_valid_perm(self, w):
        """The walker yields raw (filled, origin index) pairs; each must be
        exactly what validation would keep, and equal the sorting route's."""
        *_, (_, (filled, origin), _, _) = trie_images(
            PinWord(w.numeral), w.length, trie_of([w.letters])
        )
        assert type(filled) is tuple
        assert all(type(v) is int for v in filled)
        assert type(origin) is int
        checked = CentredPerm(filled, origin)
        assert (checked.filled, checked.origin_index) == (filled, origin)
        assert checked == pi_map(w)


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
    ]
    NAMES = ["PinWord", "PinSpec", "CentredPerm", "PinDiagram"]
    # The fields each type's equality and hash read.
    COMPARED = [("numeral", "letters"), ("_canon",), ("filled", "origin_index"), ("word",)]

    @pytest.mark.parametrize("make", VALUES, ids=NAMES)
    def test_immutable(self, make):
        value = make()
        field = type(value).__slots__[0]
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
