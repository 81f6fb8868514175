"""Exhaustive classification of colliding and decomposable pin words."""

import concurrent.futures
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinclasses import classify, pimap, pipeline
from pinclasses.classify import (
    SYMMETRIES,
    all_pin_words,
    collision_group,
    collision_groups_at,
    decomposable_words,
    is_decomposable_word,
    overcount_series,
    verify_tables,
)
from pinclasses.cperm import QUADRANT_SIGNS, is_box_indecomposable
from pinclasses.errors import CensusTooLarge, CrossCheckMismatch, ParameterOutOfRange
from pinclasses.pimap import all_point_quadrants, pi_map
from pinclasses.pinword import PinWord, parse_pin_word
from strategies import pin_words


def closed_form_decomposables(n):
    """The decomposable table as length conditions, one representative per
    family; the eight symmetries give the rest."""
    reps = []
    if n >= 2 and n % 2 == 0:
        reps.append("1l" + "dl" * ((n - 2) // 2))
    if n >= 3 and n % 2 == 1:
        reps.append("1" + "ld" * ((n - 1) // 2))
    if n >= 4 and n % 2 == 0:
        reps.append("1" + "ur" * ((n - 4) // 2) + "uld")
    if n >= 5 and n % 2 == 1:
        reps.append("1" + "ru" * ((n - 3) // 2) + "ld")
    return frozenset(s.word(rep) for rep in reps for s in SYMMETRIES)


def closed_form_collision_groups(n):
    """The collision table as length conditions, one representative group
    per family; the eight symmetries give the rest."""
    reps = []
    if n == 2:
        reps.append(("1u", "1r"))
    elif n == 3:
        reps.append(("1ul", "2ru"))
    elif n == 4:
        reps.append(("1ldr", "2dru", "3rul", "4uld"))
    elif n == 5:
        reps.append(("1uldl", "3luru"))
        reps.append(("1ldlu", "2dlur"))
    elif n >= 6 and n % 2 == 0:
        a, b = (n - 2) // 2, (n - 4) // 2
        reps.append(("1" + "ld" * a + "r", "2" + "dl" * b + "dru"))
    elif n >= 7:
        k = (n - 3) // 2
        reps.append(("1" + "ld" * k + "lu", "2" + "dl" * k + "ur"))
    return frozenset(frozenset(map(s.word, rep)) for rep in reps for s in SYMMETRIES)


def test_tables_match_closed_forms():
    """Both tables equal their closed forms in the length, to n = 40."""
    for n in range(41):
        assert decomposable_words(n) == closed_form_decomposables(n), n
        assert collision_groups_at(n) == closed_form_collision_groups(n), n


def family_images(families):
    """Each table family with a letter pair, under each symmetry: a function
    from k to the group of its members with k pairs put in, as texts."""
    for family in families:
        if family[0][1]:
            for s in SYMMETRIES:
                yield lambda k, family=family, s=s: tuple(
                    s.word(text[0] + pair * k + text[1:]) for text, pair in family
                )


def signature(text):
    """The numeral, the first letter and the set of adjacent letter pairs."""
    return text[0], text[1], frozenset(zip(text[1:], text[2:]))


class TestFamilyData:
    TABLES = (classify._DECOMPOSABLE_FAMILIES, classify._COLLISION_FAMILIES)

    def test_periodic_from(self):
        """The period starts 4 past the longest family's first length, so
        past every single-member family: 11, from the 7-letter collisions."""
        assert classify.PERIODIC_FROM == 11
        for table in self.TABLES:
            for family in table:
                assert len({len(text) for text, _ in family}) == 1
                assert len(family[0][0]) + 4 <= classify.PERIODIC_FROM

    def test_members_keep_their_quadrants_on_the_point_route(self):
        """The period's premise, read from each diagram: every word of every
        family image has one quadrant set over its members k = 2..8."""
        for table in self.TABLES:
            for members in family_images(table):
                for position in range(len(members(0))):
                    quadrant_sets = {
                        frozenset(all_point_quadrants(members(k)[position]).values())
                        for k in range(2, 9)
                    }
                    assert len(quadrant_sets) == 1, members(2)

    def test_distinct_images_keep_distinct_signatures(self):
        """From the third member on, each family image keeps one signature
        per word, and distinct images of one length parity have distinct
        signatures, so their members never coincide."""
        for table in self.TABLES:
            seen = {}
            for members in family_images(table):
                signatures = {frozenset(map(signature, members(k))) for k in range(2, 9)}
                assert len(signatures) == 1, members(2)
                key = (len(members(0)[0]) % 2, signatures.pop())
                assert seen.setdefault(key, frozenset(members(2))) == frozenset(members(2))


class TestWordEnumeration:
    def test_counts(self):
        assert len(all_pin_words(1)) == 4
        for n in range(2, 9):
            assert len(all_pin_words(n)) == 2 ** (n + 2)

    def test_all_distinct_and_right_length(self):
        for n in range(1, 7):
            words = all_pin_words(n)
            assert len(set(words)) == len(words)
            assert all(w.length == n for w in words)

    def test_extension_order(self):
        words = [PinWord(q) for q in (1, 2, 3, 4)]
        for n in range(1, 8):
            assert all_pin_words(n) == words
            words = [v for w in words for v in w.extensions()]


class TestDecomposableWords:
    def test_counts_stabilize_at_sixteen(self):
        assert len(decomposable_words(1)) == 0
        assert len(decomposable_words(2)) == 8
        assert len(decomposable_words(3)) == 8
        for n in range(4, 9):
            assert len(decomposable_words(n)) == 16

    def test_membership_examples(self):
        dec2 = {str(w) for w in decomposable_words(2)}
        assert dec2 == {"1l", "1d", "2d", "2r", "3r", "3u", "4u", "4l"}

    def test_matches_image_decomposability(self):
        for n in range(1, 7):
            expected = {
                str(w) for w in all_pin_words(n) if not is_box_indecomposable(pi_map(w))
            }
            assert decomposable_words(n) == frozenset(expected)

    @given(pin_words(max_letters=7))
    @settings(max_examples=100)
    def test_predicate_agrees_with_image(self, w):
        assert is_decomposable_word(w) == (not is_box_indecomposable(pi_map(w)))


class TestCollisionGroups:
    def test_group_sizes_by_length(self):
        expect = {1: [], 2: [2] * 4, 3: [2] * 8, 4: [4] * 2, 5: [2] * 12}
        for n, sizes in expect.items():
            groups = collision_groups_at(n)
            assert sorted(len(g) for g in groups) == sizes
        for n in (6, 7, 8):
            assert sorted(len(g) for g in collision_groups_at(n)) == [2] * 8

    def test_quadruples(self):
        quads = [g for g in collision_groups_at(4) if len(g) == 4]
        names = {frozenset(str(w) for w in g) for g in quads}
        assert frozenset({"1ldr", "2dru", "3rul", "4uld"}) in names
        assert frozenset({"1drd", "2rdr", "2dld", "3ldl"}) not in names

    def test_group_lookup_round_trip(self):
        for n in range(2, 7):
            for group in collision_groups_at(n):
                for w in group:
                    assert collision_group(w) == group

    def test_singleton_for_non_colliding(self):
        w = PinWord(1, "ururu")
        assert collision_group(w) == frozenset({"1ururu"})

    @given(pin_words(max_letters=6))
    @settings(max_examples=100)
    def test_groups_share_one_image(self, w):
        group = collision_group(w)
        images = {pi_map(x) for x in group}
        assert images == {pi_map(w)}

    def test_groups_partition_colliding_words(self):
        for n in range(2, 7):
            groups = collision_groups_at(n)
            seen = set()
            for g in groups:
                assert not (seen & g)
                seen |= g
            # every colliding word of this length is covered
            by_image = {}
            for w in all_pin_words(n):
                by_image.setdefault(pi_map(w), set()).add(str(w))
            colliding = {w for ws in by_image.values() if len(ws) > 1 for w in ws}
            assert seen == colliding


class TestSymmetries:
    def test_eight_symmetries(self):
        assert len(SYMMETRIES) == 8
        assert len({s.name for s in SYMMETRIES}) == 8

    def test_eight_distinct_sign_matrices_closed_under_composition(self):
        """The literal table is the whole group: 8 distinct orthogonal sign
        matrices, and every product of two of them is in the table."""
        matrices = {s.matrix for s in SYMMETRIES}
        assert len(matrices) == 8
        for (a, b), (c, d) in matrices:
            assert sorted(map(abs, (a, b, c, d))) == [0, 0, 1, 1]
            assert abs(a * d - b * c) == 1
        for s in SYMMETRIES:
            for t in SYMMETRIES:
                (a, b), (c, d) = s.matrix
                (e, f), (g, h) = t.matrix
                assert ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)) in matrices

    @given(pin_words(max_letters=8))
    @settings(max_examples=60)
    def test_word_agrees_with_matrix_letter_by_letter(self, w):
        """The translation table of each symmetry moves every letter's unit
        step, and the numeral's sign vector, as its matrix does."""
        steps = {"r": (1, 0), "u": (0, 1), "l": (-1, 0), "d": (0, -1)}
        for s in SYMMETRIES:
            image = s.word(w)
            assert len(image[1:]) == len(w.letters)
            for c, mapped in zip(w.letters, image[1:]):
                assert steps[mapped] == s.apply_xy(*steps[c])
            assert QUADRANT_SIGNS[int(image[0])] == s.apply_xy(*QUADRANT_SIGNS[w.numeral])

    @given(pin_words(max_letters=6))
    @settings(max_examples=80)
    def test_word_action_commutes_with_images(self, w):
        for s in SYMMETRIES:
            assert pi_map(s.word(w)) == s.perm(pi_map(w))

    def test_collision_groups_closed_under_symmetry(self):
        for n in (2, 3, 4):
            groups = collision_groups_at(n)
            for s in SYMMETRIES:
                mapped = frozenset(
                    frozenset(s.word(w) for w in g) for g in groups
                )
                assert mapped == groups

    def test_decomposables_closed_under_symmetry(self):
        for n in (2, 3, 4, 5):
            dec = decomposable_words(n)
            for s in SYMMETRIES:
                assert frozenset(s.word(w) for w in dec) == dec


class TestOvercountSeries:
    def test_full_length_slices(self):
        # All words of length n: every group is fully present.
        factor_sets = {n: set(all_pin_words(n)) for n in range(1, 6)}
        oc = overcount_series(factor_sets)
        assert oc == {1: 0, 2: 4, 3: 8, 4: 6, 5: 12}

    def test_partial_group_counts_nothing(self):
        g = collision_group(PinWord(1, "ldr"))
        one = {next(iter(g))}
        assert overcount_series({4: one}) == {4: 0}
        two = set(list(g)[:2])
        assert overcount_series({4: two}) == {4: 1}
        assert overcount_series({4: set(g)}) == {4: 3}

    @staticmethod
    def per_word_overcount(factor_sets_by_length):
        """The definition the table route first used: look up each word's
        group and count the present members of every group met twice."""
        out = {}
        for n, words in factor_sets_by_length.items():
            seen = {}
            for w in set(words):
                g = collision_group(w)
                if len(g) > 1:
                    seen[g] = seen.get(g, 0) + 1
            out[n] = sum(c - 1 for c in seen.values() if c >= 2)
        return out

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_word_definition_on_words_or_texts(self, data):
        """Random word sets of lengths 1..7, drawn from every colliding and
        decomposable word and some others, each length as PinWords or as
        texts: the group sum equals the per-word count, and each lookup
        answers a PinWord as it answers its text."""
        factor_sets = {}
        for n in range(1, 8):
            pool = set().union(*collision_groups_at(n), decomposable_words(n))
            pool |= {str(w) for w in all_pin_words(n)[:24]}
            texts = data.draw(st.sets(st.sampled_from(sorted(pool))), label=f"length {n}")
            as_text = data.draw(st.booleans(), label=f"length {n} as text")
            factor_sets[n] = texts if as_text else set(map(parse_pin_word, texts))
            for text in texts:
                w = parse_pin_word(text)
                assert is_decomposable_word(w) == is_decomposable_word(text)
                assert collision_group(w) == collision_group(text)
        assert overcount_series(factor_sets) == self.per_word_overcount(factor_sets)


class TestVerifyTables:
    def test_reports_match(self):
        reports = verify_tables(6)
        assert [r.length for r in reports] == [1, 2, 3, 4, 5, 6]
        assert all(r.table_match for r in reports)
        assert all(r.discrepancies == [] for r in reports)

    def test_parallel_agrees_with_serial(self):
        serial = verify_tables(8, jobs=1)
        parallel = verify_tables(8, jobs=2)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ParameterOutOfRange) as caught:
            verify_tables(4, jobs=jobs)
        assert caught.value.exit_code == 3

    def test_pool_has_at_most_one_worker_per_root(self, monkeypatch):
        """The pool is sized from the roots, not from ``jobs`` alone; a
        stand-in pool records its size and runs the walks in this process."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        reports = verify_tables(4, jobs=64)
        assert sizes == [20]
        assert [r.to_json() for r in reports] == [r.to_json() for r in verify_tables(4)]

    def test_json_schema(self):
        report = verify_tables(2)[0]
        data = report.to_json()
        assert set(data) == {
            "length",
            "decomposable_words",
            "collision_groups",
            "table_match",
            "discrepancies",
        }
        assert data["length"] == 1
        assert data["decomposable_words"] == []

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            verify_tables(1)

    def test_rejects_bound_above_guard(self):
        """The walk holds 2^(n+2) images per length n, so its depth is
        guarded, at the longest length the tail window reads."""
        assert classify._VERIFY_GUARD == pipeline._TAIL_WINDOW
        with pytest.raises(CensusTooLarge):
            verify_tables(classify._VERIFY_GUARD + 1)


class TestTrieWalk:
    def test_images_and_flags_match_fresh_diagrams(self):
        """Every word of length <= 9, against its pi-map built from scratch."""
        walked = []
        for root in all_pin_words(1):
            for images, decs in classify._walk(root, 9).values():
                for key, texts in images.items():
                    for text in texts:
                        img = pi_map(text)
                        assert key == bytes((*img.filled, img.origin_index))
                        assert (text in decs) == (not is_box_indecomposable(img))
                        walked.append(text)
        expected = [str(w) for n in range(1, 10) for w in all_pin_words(n)]
        assert sorted(walked) == sorted(expected)

    def test_walk_yields_every_word_of_each_length(self):
        """2^(n+2) words at each length n >= 2, so a skipped branch shows."""
        counts = Counter()
        for root in all_pin_words(classify._ROOT_LENGTH):
            for n, (images, _) in classify._walk(root, 10).items():
                counts[n] += sum(map(len, images.values()))
        assert counts == {n: 2 ** (n + 2) for n in range(2, 11)}

    def test_leaf_checked_against_pi_map(self, monkeypatch):
        """A skewed image-level step in the walk must fail the check built
        from scratch, which places its points on the point route."""
        grow = pimap._grow
        mirrored = {"l": "r", "r": "l", "u": "u", "d": "d"}
        monkeypatch.setattr(pimap, "_grow", lambda node, c: grow(node, mirrored[c]))
        with pytest.raises(CrossCheckMismatch):
            classify._walk(PinWord(1, "u"), 6)

    def test_checked_nodes(self, monkeypatch):
        """The walk checks the first deepest leaf, then the first word
        flagged decomposable."""
        checked = []
        check = classify.check_node

        def record(text, img, indecomposable):
            checked.append(text)
            return check(text, img, indecomposable)

        monkeypatch.setattr(classify, "check_node", record)
        classify._walk(PinWord(1, "u"), 6)
        assert checked == ["1ululu", "1uld"]

    def test_carried_flag_checked_from_scratch(self, monkeypatch):
        """An inverted ⊞-indecomposability flag must fail the check built
        from scratch."""
        walk = pimap.trie_images

        def inverted(*args):
            for text, img, indecomposable, quadrants in walk(*args):
                yield text, img, not indecomposable, quadrants

        monkeypatch.setattr(classify, "trie_images", inverted)
        with pytest.raises(CrossCheckMismatch):
            classify._walk(PinWord(1, "u"), 6)
