"""Generating functions, amended counting sequences, and certified growth."""

import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinclasses
from pinclasses import classify, pimap, pinword, pipeline
from pinclasses.cperm import QUADRANT_POINT, is_box_indecomposable, one_quadrant
from pinclasses.errors import (
    BoundViolation,
    CrossCheckMismatch,
    DisconnectedQuadrants,
    EmptyPermutation,
    NoRootInRange,
    NotRecurrent,
    NumericError,
    ParameterOutOfRange,
    StabilizationFailure,
)
from pinclasses.classify import all_pin_words
from pinclasses.pimap import all_point_quadrants, pi_map
from pinclasses.pinword import (
    MAX_SPEC_LENGTH,
    PinWord,
    _start_numerals,
    check_spec_size,
    enumerate_pin_factors,
    left_truncate,
    parse_pin_spec,
)
from pinclasses.pipeline import (
    GrowthResult,
    GSequence,
    _factor_counts,
    _significant,
    _stabilized_gfs,
    amended_G,
    class_gf,
    closure_gf,
    complete_class_gf,
    complete_class_sequence,
    describe,
    finite_closure_gf,
    finite_closure_sequence,
    growth_rate,
    indecomposable_counts,
    interior_gf,
    interior_positivity,
    truncation_convergence,
)
from pinclasses.series import Poly, RatGF, seq
from strategies import pin_specs, spec_of_size

import fraction_poly as fp
import sturm_reference as sturm

Z = Poly.parse("z")
ONE = Poly.parse("1")


def gf(num: str, den: str) -> RatGF:
    return RatGF(Poly.parse(num), Poly.parse(den))


# The four eventually-periodic specs whose classes have frozen generating
# functions, checked against independently computed censuses in test_oracle.
FROZEN_CLASS_GFS = {
    "1(ru)*": gf("1 - z", "1 - 2z - z^3"),
    "2(urul)*": gf("1 - z", "1 - 3z - 2z^4"),
    "1(uldlur)*": gf("1 - z", "1 - 4z + 2z^2 + z^3 - z^4 - 2z^5 - 3z^6"),
    "1(ldru)*": gf("1 - z", "1 - 5z + 6z^2 - 2z^3 - z^4 - 3z^5"),
}


class TestIndecomposableCounts:
    def test_single_oscillation(self):
        counts, f = indecomposable_counts("1(ru)*")
        assert [counts[n] for n in range(1, 9)] == [1, 1, 2, 2, 2, 2, 2, 2]
        assert f == gf("z + z^3", "1 - z")

    def test_modes_differ_for_nonrecurrent(self):
        _, all_mode = indecomposable_counts("1(ul)*", mode="all")
        _, rec_mode = indecomposable_counts("1(ul)*", mode="recurrent")
        assert all_mode == gf("2z + 2z^3", "1 - z")
        assert rec_mode == gf("z + z^3", "1 - z")

    def test_quadrant_counts_dominated_by_total(self):
        # Quadrant GFs count only indecomposables confined to one quadrant, so
        # coefficient-wise they never exceed the overall count.
        for spec in list(FROZEN_CLASS_GFS) + ["1(ul)*", "3rurdlurur(dl)*"]:
            gs = amended_G(spec)
            for n in range(1, 15):
                assert sum(f.coefficient(n) for f in gs.g_quadrants) <= gs.g.coefficient(n)

    def test_quadrant_counts_match_brute_confinement(self):
        from pinclasses.cperm import is_box_indecomposable, one_quadrant
        from pinclasses.pimap import pi_map
        from pinclasses.pinword import enumerate_pin_factors, parse_pin_spec

        for text in ["1(uldlur)*", "3rurdlurur(dl)*"]:
            spec = parse_pin_spec(text)
            horizon = spec.prefix_length + 3 * spec.cycle_length + 2
            parts = amended_G(spec).g_quadrants
            for n in range(1, horizon + 1):
                images = {pi_map(w) for w in enumerate_pin_factors(spec, n, "all")}
                confined = [
                    one_quadrant(p)
                    for p in images
                    if is_box_indecomposable(p) and one_quadrant(p)
                ]
                for q in (1, 2, 3, 4):
                    got = parts[q - 1].coefficient(n)
                    assert got == confined.count(q), (text, n, q)

    def test_quadrant_values(self):
        assert [str(q) for q in amended_G("1(ldru)*").g_quadrants] == ["z", "z", "z", "z"]
        assert [str(q) for q in amended_G("1(uldlur)*").g_quadrants] == [
            "z + z^2", "z", "z + z^2", "0",
        ]


def reference_counts(spec, n, mode):
    """(g_n, g1_n, .., g4_n) from scratch: the distinct pi-maps of the
    length-n factors that are ⊞-indecomposable, in all and by the one
    quadrant each lies in."""
    images = {pi_map(v) for v in enumerate_pin_factors(spec, n, mode)}
    quadrants = [one_quadrant(p) for p in images if is_box_indecomposable(p)]
    return (len(quadrants), *(quadrants.count(q) for q in (1, 2, 3, 4)))


# Corruptions of a level node's carried values, by name: each takes the
# node's text, flag and quadrant set and returns a new flag and set.
CORRUPTIONS = {
    "flag": lambda text, flag, quadrants: (not flag, quadrants),
    "quadrants": lambda text, flag, quadrants: (flag, quadrants | {1, 2, 3, 4}),
}


def corrupted_levels(corrupt):
    """`pimap.prefix_levels` with each node's carried values corrupted."""
    walk = pimap.prefix_levels

    def levels(texts):
        for level in walk(texts):
            yield [(text, img, *corrupt(text, *carried)) for text, img, *carried in level]

    return levels


class TestFactorImages:
    """The counts of distinct factor images per length, from one level walk
    of the longest factors' texts, and the cross-checks that run on each
    level."""

    @given(
        pin_specs(cycle_lengths=(2, 4, 6, 8, 10, 12)),
        st.sampled_from(["all", "recurrent"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_match_reference_from_scratch(self, spec, mode):
        table = _factor_counts(spec, mode)
        window = spec.prefix_length + 3 * spec.cycle_length + 2
        assert sorted(table) == list(range(1, window + 1))
        for n, row in table.items():
            assert row == reference_counts(spec, n, mode), (spec, mode, n)

    @pytest.mark.parametrize(
        "first, second", [("1(ru)*", "1r(ur)*"), ("1r(ur)*", "1(ru)*")]
    )
    def test_equal_specs_written_differently(self, first, second):
        """Equal specs with different written prefixes need tables sized
        for their own prefix, so `_start_numerals`' cache, keyed by the
        written spec, must not hand one to the other."""
        _start_numerals.cache_clear()
        assert parse_pin_spec(first) == parse_pin_spec(second)
        assert class_gf(first) == FROZEN_CLASS_GFS["1(ru)*"]
        assert class_gf(second) == FROZEN_CLASS_GFS["1(ru)*"]

    def test_incremental_image_checked_against_pi_map(self, monkeypatch):
        """A skewed image-level step in the walk must fail the check of the
        longest factors, which places their points on the point route."""
        grow = pimap._grow
        mirrored = {"l": "r", "r": "l", "u": "u", "d": "d"}
        monkeypatch.setattr(pimap, "_grow", lambda node, c: grow(node, mirrored[c]))
        spec = parse_pin_spec("1(ldru)*")
        with pytest.raises(CrossCheckMismatch):
            _factor_counts(spec, "all")

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (CORRUPTIONS["flag"], "table route"),
            (CORRUPTIONS["quadrants"], "carried quadrants"),
        ],
        ids=["flag", "quadrants"],
    )
    def test_carried_flags_checked_from_scratch(self, monkeypatch, corrupt, message):
        """An inverted ⊞-indecomposability flag must fail the table route
        at the first length, and a wrong quadrant set, which keeps every
        count, the check of the longest factors built from scratch."""
        monkeypatch.setattr(pipeline, "prefix_levels", corrupted_levels(corrupt))
        spec = parse_pin_spec("1(ru)*")
        with pytest.raises(CrossCheckMismatch, match=message):
            _factor_counts(spec, "all")

    @pytest.mark.parametrize("corruption, spec", [("flag", "1(ldru)*"), ("quadrants", "1d(ru)*")])
    def test_mismatch_message_independent_of_hash_seed(self, corruption, spec):
        """The levels go in sorted text order, so a corrupted walk fails
        with the same message under two hash seeds; a walk of the factor
        set in hash order would name a different factor."""
        src = str(Path(pinclasses.__file__).resolve().parent.parent)
        tests = str(Path(__file__).resolve().parent)
        code = (
            "import sys; from pinclasses import pipeline, pinword, errors; "
            "import test_pipeline as t; "
            "pipeline.prefix_levels = t.corrupted_levels(t.CORRUPTIONS[sys.argv[1]])\n"
            "try: pipeline._factor_counts(pinword.parse_pin_spec(sys.argv[2]), 'all')\n"
            "except errors.CrossCheckMismatch as err: print(err)"
        )
        messages = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)), PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", code, corruption, spec],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 0 and proc.stdout, proc.stderr
            messages.add(proc.stdout)
        assert len(messages) == 1

    def test_colliding_factors_carry_the_same_values(self, monkeypatch):
        """1r and 1u share an image, so a wrong quadrant set on 1u alone, a
        word shorter than the checked longest factors, must still fail."""

        def corrupt(text, indecomposable, quadrants):
            return indecomposable, quadrants | ({1, 2} if text == "1u" else set())

        monkeypatch.setattr(pipeline, "prefix_levels", corrupted_levels(corrupt))
        spec = parse_pin_spec("1(ru)*")
        with pytest.raises(CrossCheckMismatch, match="another factor"):
            _factor_counts(spec, "all")

    @given(
        pin_specs(cycle_lengths=(2, 4, 6, 8, 10, 12), max_prefix_letters=5),
        st.sampled_from(["all", "recurrent"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_levels_are_the_factors_of_each_length(self, spec, mode):
        """Level n of the longest factors' texts holds the texts of the
        spec's factors of length n, each once, at every n up to the window:
        a second route to the words `_factor_counts` counts, from
        `enumerate_pin_factors` at each length."""
        window = spec.prefix_length + 3 * spec.cycle_length + 2
        longest = (str(w) for w in enumerate_pin_factors(spec, window, mode))
        levels = list(pimap.prefix_levels(longest))
        assert len(levels) == window
        for n, level in enumerate(levels, 1):
            expected = sorted(str(w) for w in enumerate_pin_factors(spec, n, mode))
            assert [text for text, *_ in level] == expected, (spec, mode, n)

    def test_longest_factors_checked_as_their_words(self, monkeypatch):
        """`check_node` gets each longest factor as the PinWord that
        `enumerate_pin_factors` built, so it is not parsed a second time."""
        seen = []
        monkeypatch.setattr(pipeline, "check_node", lambda w, *node: seen.append(w))
        spec = parse_pin_spec("1(ldru)*")
        _factor_counts(spec, "all")
        window = spec.prefix_length + 3 * spec.cycle_length + 2
        assert sorted(seen, key=str) == sorted(enumerate_pin_factors(spec, window, "all"), key=str)
        assert all(type(w) is pinword.PinWord for w in seen)

    def test_table_route_mismatch_is_reported(self, monkeypatch):
        """A table that lists 1r, whose image is ⊞-indecomposable, as
        decomposable must part the table route's count of indecomposables
        from the direct one."""
        tabled = classify.decomposable_words
        monkeypatch.setattr(
            classify, "decomposable_words", lambda n: tabled(n) | {"1r"} if n == 2 else tabled(n)
        )
        with pytest.raises(CrossCheckMismatch, match=r"table route gives 0 .* at n=2 .* gives 1"):
            _factor_counts(parse_pin_spec("1(ru)*"), "all")

    def test_overcount_mismatch_is_reported(self, monkeypatch):
        """Tables that move the decomposable 1l into a collision group with
        2d keep the table route's count of indecomposables, but their
        overcount must then disagree with the distinct images."""
        tabled, groups = classify.decomposable_words, classify.collision_groups_at
        extra = frozenset({"1l", "2d"})
        monkeypatch.setattr(classify, "decomposable_words", lambda n: tabled(n) - {"1l"})
        monkeypatch.setattr(
            classify, "collision_groups_at", lambda n: groups(n) | {extra} if n == 2 else groups(n)
        )
        with pytest.raises(CrossCheckMismatch, match="overcount 1 inconsistent .* at n=2"):
            _factor_counts(parse_pin_spec("1(ldru)*"), "all")


class TestGSequence:
    def test_no_amendment_for_single_quadrant(self):
        gs = amended_G("1(ru)*")
        assert gs.G == gs.g
        assert gs.g_quadrants[1] == gf("0", "1")

    def test_opposite_quadrant_amendment(self):
        gs = amended_G("1(uldlur)*")
        assert gs.G == gs.g - gs.g_quadrants[0] * gs.g_quadrants[2] - (
            gs.g_quadrants[1] * gs.g_quadrants[3]
        )
        got = [gs.G.coefficient(n) for n in range(1, 10)]
        assert got == [3, 1, 0, 1, 3, 6, 6, 6, 6]

    def test_f_property(self):
        gs = amended_G("2(urul)*")
        assert gs.f == seq(gs.G)
        assert gs.f == FROZEN_CLASS_GFS["2(urul)*"]

    def test_repr(self):
        gs = amended_G("1(ru)*")
        assert repr(gs) == f"GSequence(G = {gs.G})"

    def test_rejects_nonzero_constant_term(self):
        zero = gf("0", "1")
        with pytest.raises(BoundViolation):
            GSequence(gf("1 + z", "1"), zero, zero, zero, zero)

    def test_rejects_negative_coefficients(self):
        zero = gf("0", "1")
        with pytest.raises(BoundViolation):
            GSequence(gf("z - z^2", "1"), zero, zero, zero, zero)

    def test_rejects_linear_coefficient_out_of_range(self):
        zero = gf("0", "1")
        with pytest.raises(BoundViolation):
            GSequence(gf("5z", "1"), zero, zero, zero, zero)
        with pytest.raises(BoundViolation):
            GSequence(gf("z^2", "1"), zero, zero, zero, zero)

    def test_rejects_oversized_coefficient(self, monkeypatch):
        """The pin-class bound -8n <= a_n < 2^(n+2) is checked by
        `amended_G` and `complete_class_sequence`, not by GSequence, which
        finite closures of any generators make too: a_2 = 1024 and
        a_2 = -17 are each refused by both."""
        zero = gf("0", "1")
        for g, g3, a_2 in [("2z + 1024z^2", "0", 1024), ("2z", "17z", -17)]:
            outside = GSequence(gf(g, "1"), gf("z", "1"), zero, gf(g3, "1"), zero)
            assert outside.G.coefficient(2) == a_2
            monkeypatch.setattr(pipeline, "GSequence", lambda *gfs: outside)
            for build in (lambda: amended_G("1(ru)*"), complete_class_sequence):
                with pytest.raises(BoundViolation, match=f"a_2 = {a_2} violates"):
                    build()


    def test_denominator_with_another_pole_fails(self, monkeypatch):
        """A g with a pole at z = -1 as well, its counts kept non-negative
        integers inside every coefficient bound, gives a G whose denominator
        is not a power of (1 - z): amended_G refuses it."""
        stabilized = pipeline._stabilized_gfs
        bump = gf("z^2", "1 - z^2")

        def skewed(spec, table):
            g, *quadrant_gfs = stabilized(spec, table)
            return [g + bump, *quadrant_gfs]

        monkeypatch.setattr(pipeline, "_stabilized_gfs", skewed)
        with pytest.raises(BoundViolation, match="not a power of"):
            amended_G("1(ru)*")

    def test_power_of_one_minus_z_by_binomials(self):
        """Against the powers of (1 - z) multiplied out: each of them, and
        every nonzero polynomial one coefficient away from one of them."""
        powers = [Poly.one()]
        for _ in range(8):
            powers.append(powers[-1] * Poly([1, -1]))
        for power in powers:
            assert pipeline._is_power_of_one_minus_z(power)
            for i in range(power.degree + 1):
                for delta in (-1, 1):
                    cs = list(power.coeffs)
                    cs[i] += delta
                    near = Poly(cs)
                    if not near.is_zero():
                        assert pipeline._is_power_of_one_minus_z(near) == (near in powers), cs


class TestClassGFs:
    def test_frozen_equalities(self):
        for spec, expect in FROZEN_CLASS_GFS.items():
            assert class_gf(spec) == expect, spec

    def test_class_closure_interior_coincide_when_recurrent(self):
        for spec in FROZEN_CLASS_GFS:
            f = class_gf(spec)
            assert closure_gf(spec) == f
            assert interior_gf(spec) == f

    def test_class_gf_requires_recurrence(self):
        with pytest.raises(NotRecurrent) as exc:
            class_gf("1(ul)*")
        assert "closure" in str(exc.value)

    def test_nonrecurrent_closure_and_interior(self):
        assert closure_gf("1(ul)*") == gf("1 - z", "1 - 3z - 2z^3")
        assert interior_gf("1(ul)*") == gf("1 - z", "1 - 2z - z^3")

    def test_counting_sequence(self):
        f = class_gf("1(ru)*")
        assert [f.coefficient(n) for n in range(9)] == [1, 1, 2, 5, 11, 24, 53, 117, 258]

    def test_truncation_changes_nothing_for_recurrent(self):
        from pinclasses.pinword import left_truncate

        base = class_gf("2(urul)*")
        spec = parse_pin_spec("2(urul)*")
        # left-truncating a recurrent spec keeps the class GF's denominator
        # root, hence the growth rate (the class itself may differ)
        for n in (2, 3, 4):
            trunc = left_truncate(spec, n)
            r1 = growth_rate(class_gf(trunc))
            r2 = growth_rate(base)
            assert r1.root_interval[0] < r2.root_interval[1]
            assert r2.root_interval[0] < r1.root_interval[1]


class TestFiniteClosures:
    def test_frozen_values(self):
        assert finite_closure_gf(["41[3]52"]) == gf("1", "1 - 4z + 2z^2 - z^4")
        assert finite_closure_gf(list(QUADRANT_POINT.values())) == gf("1", "1 - 4z + 2z^2")
        assert finite_closure_gf(["23[1]", "[1]32"]) == gf("1", "1 - 2z - 2z^2")
        assert finite_closure_gf(["[1]2", "2[1]", "1[2]"]) == gf("1", "1 - 3z + z^2")

    def test_sequence_decomposition(self):
        gs = finite_closure_sequence(["41[3]52"])
        assert str(gs.g) == "4z + z^4"
        assert [str(q) for q in gs.g_quadrants] == ["z", "z", "z", "z"]

    def test_generators_included(self):
        f = finite_closure_gf(["41[3]52"])
        # the closure of a length-4 generator has at least the subpattern
        # counts of that generator
        assert f.coefficient(4) >= 1
        assert f.coefficient(0) == 1

    def test_generators_without_points_rejected(self):
        with pytest.raises(EmptyPermutation):
            finite_closure_gf(["[1]"])
        with pytest.raises(ParameterOutOfRange):
            finite_closure_gf([])


class TestCompleteClass:
    def test_frozen_gf(self):
        assert complete_class_gf() == gf(
            "1 - 4z + 5z^2 - 2z^3",
            "1 - 8z + 19z^2 - 26z^3 + 14z^4 - 12z^5 - 8z^6 + 20z^7 - 8z^8",
        )

    def test_numerator_factorization(self):
        f = complete_class_gf()
        one_minus_z = Poly.parse("1 - z")
        assert f.num == one_minus_z * one_minus_z * Poly.parse("1 - 2z")

    def test_counting_sequence(self):
        f = complete_class_gf()
        assert [f.coefficient(n) for n in range(8)] == [
            1, 4, 18, 92, 484, 2548, 13384, 70184,
        ]

    def test_two_adjacent_quadrants(self):
        assert complete_class_gf((1, 2)) == gf(
            "1 - 2z^2", "1 - 2z - 4z^2 - 2z^3 - 8z^4 - 4z^5"
        )

    def test_adjacent_pairs_all_agree_by_symmetry(self):
        expect = complete_class_gf((1, 2))
        for pair in [(2, 3), (3, 4), (1, 4)]:
            assert complete_class_gf(pair) == expect

    def test_single_quadrant_matches_oscillation_class(self):
        for q in (1, 2, 3, 4):
            assert complete_class_gf((q,)) == class_gf("1(ru)*")

    def test_opposite_quadrants_rejected(self):
        with pytest.raises(DisconnectedQuadrants):
            complete_class_gf((1, 3))
        with pytest.raises(DisconnectedQuadrants):
            complete_class_gf((2, 4))

    @pytest.mark.parametrize("mask", range(16))
    def test_disconnected_exactly_where_a_search_says(self, mask):
        """complete_class_gf refuses a quadrant set exactly when a search
        over adjacent quadrants finds it empty or disconnected."""
        quadrants = {q for q in (1, 2, 3, 4) if mask >> (q - 1) & 1}
        seen = set()
        frontier = [min(quadrants)] if quadrants else []
        while frontier:
            q = frontier.pop()
            if q in quadrants and q not in seen:
                seen.add(q)
                frontier += [q % 4 + 1, (q - 2) % 4 + 1]
        if quadrants and seen == quadrants:
            complete_class_gf(quadrants)
        else:
            with pytest.raises(DisconnectedQuadrants):
                complete_class_gf(quadrants)

    def test_invalid_quadrants_rejected(self):
        with pytest.raises(ValueError):
            complete_class_gf((1, 5))
        with pytest.raises(DisconnectedQuadrants):
            complete_class_gf(())

    def test_pair_quadrant_that_depends_on_the_numeral_fails(self, monkeypatch):
        """A pi-map whose p_3 moves with the numeral breaks the pair table's
        premise; the probe of every numeral must catch it.  The cached table
        is left alone: its undecorated builder runs."""
        point_quadrant = pipeline.point_quadrant
        monkeypatch.setattr(
            pipeline,
            "point_quadrant",
            lambda w, k: point_quadrant(w, k) % 4 + 1 if w.numeral == 4 else point_quadrant(w, k),
        )
        with pytest.raises(CrossCheckMismatch, match="depends on the numeral"):
            pipeline._pair_quadrant_table.__wrapped__()

    def test_collision_group_split_by_confinement_fails(self, monkeypatch):
        """Colliding words share one image, so all or none lie in a quadrant
        set; a tabled group of 1r (quadrant 1) and 3l (quadrant 3) must be
        refused when only quadrants 1 and 2 are kept."""
        groups = classify.collision_groups_at
        split = frozenset({"1r", "3l"})
        monkeypatch.setattr(
            classify, "collision_groups_at", lambda n: groups(n) | {split} if n == 2 else groups(n)
        )
        with pytest.raises(CrossCheckMismatch, match="splits on confinement"):
            pipeline._confined_correction_gfs(frozenset({1, 2}))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_word_quadrants_match_geometry(self, n):
        # the confinement test reads quadrants from the probed tables; the
        # diagram of every word is the reference
        for w in all_pin_words(n):
            assert pipeline._word_quadrants(w) == set(all_point_quadrants(w).values()), w

    def test_confined_word_count_matches_the_point_route(self):
        """h(z) counts, at each length, the pin words all of whose points lie
        in the quadrant set; the reference reads every point's quadrant from
        the word's diagram, for every non-empty set, connected or not."""
        occupied = {
            n: [frozenset(all_point_quadrants(w).values()) for w in all_pin_words(n)]
            for n in range(1, 11)
        }
        for mask in range(1, 16):
            quadrants = frozenset(q for q in (1, 2, 3, 4) if mask >> (q - 1) & 1)
            expect = [sum(qs <= quadrants for qs in occupied[n]) for n in range(1, 11)]
            h = pipeline._confined_word_count_gf(quadrants)
            assert h.coeffs(10) == [0, *expect], sorted(quadrants)

    @pytest.mark.parametrize("table", ["decomposable_words", "collision_groups_at"])
    @pytest.mark.parametrize("n", range(classify.PERIODIC_FROM, pipeline._TAIL_WINDOW + 1))
    def test_perturbed_tail_count_fails_the_period_check(self, monkeypatch, table, n):
        """A table that loses one member at a length the period check reads
        must fail it, for the full quadrant set, where every word counts."""
        lookup = getattr(classify, table)
        monkeypatch.setattr(
            classify, table, lambda m: frozenset(list(lookup(m))[1:]) if m == n else lookup(m)
        )
        with pytest.raises(CrossCheckMismatch, match="not 2-periodic"):
            pipeline._confined_correction_gfs(frozenset({1, 2, 3, 4}))

    def test_sequence_has_unrestricted_denominator(self):
        # The complete-class G legitimately has a denominator that is not a
        # power of 1 - z; construction must still pass the coefficient bounds.
        gs = complete_class_sequence()
        assert gs.G.den != Poly.parse("1 - z") * Poly.parse("1 - z")
        assert gs.f == complete_class_gf()


class TestGrowthRate:
    def test_certified_interval(self):
        r = growth_rate(class_gf("1(ru)*"))
        lo, hi = r.root_interval
        assert hi - lo <= Fraction(1, 10**12)
        assert r.growth_interval[0] < Fraction(2.2055694304) < r.growth_interval[1]
        assert r.growth_rate == "2.20556943"
        assert abs(r.value - 2.2055694304011064) < 1e-9

    def test_digit_control(self):
        r = growth_rate(class_gf("1(ru)*"), digits=6)
        assert r.growth_rate == "2.20557"

    @given(
        st.floats(min_value=2, max_value=1e300, allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=17),
    )
    @example(2.0, 10)
    @example(100.0, 2)
    @example(12345.0, 3)
    @example(2.5, 1)
    def test_decimal_layout_matches_float_format(self, x, digits):
        """On a float's exact value, rounding from the exact fraction gives
        what format() gives, so default output is unchanged."""
        assert _significant(Fraction(x), digits) == format(x, f".{digits}g")

    def test_thousand_digits(self):
        r = growth_rate(Poly.parse("1 - 2z - z^3"), tol=Fraction(1, 10**1000), digits=1000)
        lo, hi = r.growth_interval
        assert 990 < len(r.growth_rate) <= 1001  # trailing zeros are dropped
        # rounded from the exact midpoint, to within half the last place
        assert abs(Fraction(r.growth_rate) - (lo + hi) / 2) <= Fraction(1, 2 * 10**999)
        with pytest.raises(ParameterOutOfRange):
            GrowthResult(r.root_interval, r.polynomial, digits=1001)

    @pytest.mark.parametrize(
        "interval",
        [
            (0, Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 4)),
            (Fraction(1, 3), Fraction(1, 3)),
            (Fraction(-1, 2), Fraction(1, 2)),
        ],
        ids=["zero-end", "inverted", "empty", "negative"],
    )
    def test_result_refuses_a_bad_root_interval(self, interval):
        """GrowthResult is public: a root interval other than 0 < lo < hi
        is refused with a typed error, not a ZeroDivisionError or an
        inverted growth interval."""
        with pytest.raises(ParameterOutOfRange, match="0 < lo < hi"):
            GrowthResult(interval, Poly([1, -2]))

    def test_poly_input(self):
        direct = growth_rate(Poly.parse("1 - 2z - z^3"))
        via_gf = growth_rate(class_gf("1(ru)*"))
        assert direct.root_interval == via_gf.root_interval

    def test_g_equals_one_target_agrees(self):
        gs = amended_G("1(ru)*")
        r1 = growth_rate(gs.G.num - gs.G.den)
        r2 = growth_rate(gs.f)
        assert abs(r1.value - r2.value) < 1e-9

    def test_coarse_tolerance(self):
        fine = growth_rate(class_gf("1(ru)*"))
        coarse = growth_rate(class_gf("1(ru)*"), tol=Fraction(1, 100))
        lo, hi = coarse.root_interval
        assert hi - lo <= Fraction(1, 100)
        assert lo <= fine.root_interval[0] and fine.root_interval[1] <= hi

    def test_no_roots_at_all(self):
        with pytest.raises(NoRootInRange):
            growth_rate(Poly.parse("1"))

    def test_no_root_in_window(self):
        with pytest.raises(NoRootInRange):
            growth_rate(gf("1", "1 - z"))

    @pytest.mark.parametrize("tol", [0, Fraction(-1, 1000)])
    def test_nonpositive_tolerance_rejected(self, tol):
        with pytest.raises(ParameterOutOfRange):
            growth_rate(Poly.parse("1 - 2z - z^3"), tol=tol)

    def test_digits_below_one_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            growth_rate(Poly.parse("1 - 2z - z^3"), digits=0)
        with pytest.raises(ParameterOutOfRange):
            describe("1(ru)*", digits=0)

    @pytest.mark.parametrize("tol", [Decimal("NaN"), Decimal("sNaN")])
    def test_nan_tolerance_rejected(self, tol):
        """A NaN Decimal compares with nothing (and sNaN signals), so it is
        refused as a typed error, not a decimal.InvalidOperation."""
        with pytest.raises(ParameterOutOfRange, match="positive"):
            growth_rate(Poly.parse("1 - 2z - z^3"), tol=tol)

    @pytest.mark.parametrize("tol", ["1e-3", None, [1], 1j])
    def test_tolerance_that_is_not_a_number_rejected(self, tol):
        with pytest.raises(ParameterOutOfRange, match="number"):
            growth_rate(Poly.parse("1 - 2z - z^3"), tol=tol)

    @pytest.mark.parametrize("target", ["1 - 2z", None, 5])
    def test_target_that_is_not_a_gf_rejected(self, target):
        """Text, None or a number is refused as a typed error, not an
        AttributeError on its missing denominator."""
        with pytest.raises(ParameterOutOfRange, match="RatGF or Poly"):
            growth_rate(target)

    @pytest.mark.parametrize("tol", [True, False])
    def test_bool_tolerance_rejected(self, tol):
        """A bool is an int, but as a tolerance it is a likely mistake, as it
        is for ``digits``: True would act as the tolerance 1."""
        with pytest.raises(ParameterOutOfRange, match="number"):
            growth_rate(Poly.parse("1 - 2z - z^3"), tol=tol)

    @pytest.mark.parametrize("tol", [float("inf"), Decimal("Infinity")], ids=str)
    def test_infinite_tolerance_rejected(self, tol):
        """An infinite tolerance would act as 1; it is refused, like a NaN."""
        with pytest.raises(ParameterOutOfRange, match="finite"):
            growth_rate(Poly.parse("1 - 2z - z^3"), tol=tol)

    def test_float_tolerance_is_its_exact_fraction(self):
        poly = Poly.parse("1 - 2z - z^3")
        got = growth_rate(poly, tol=1e-3).root_interval
        assert got == growth_rate(poly, tol=Fraction(1e-3)).root_interval

    def test_coarse_interval_holds_the_smallest_root_and_none_left_of_it(self):
        """At a tolerance coarser than the gap between two roots the interval
        need not isolate: here it holds both 10/42 and 10/41.  It holds the
        smallest root, and no root lies in (0, lo]."""
        r = growth_rate(Poly([10, -41]) * Poly([10, -42]), tol=Fraction(1, 4))
        lo, hi = r.root_interval
        assert (lo, hi) == (Fraction(1, 8), Fraction(1, 4))
        assert lo < Fraction(10, 42) < Fraction(10, 41) <= hi

    @pytest.mark.parametrize("digits", [True, 2.5])
    def test_non_integer_digits_rejected(self, digits):
        """A bool would pass the range check and then break the decimal
        layout; a float breaks the rounding context: both are refused up
        front, by growth_rate and by GrowthResult."""
        with pytest.raises(ParameterOutOfRange, match="integer"):
            growth_rate(Poly.parse("1 - 2z - z^3"), digits=digits)
        with pytest.raises(ParameterOutOfRange, match="integer"):
            GrowthResult((Fraction(1, 4), Fraction(1, 2)), Poly.parse("1 - 3z"), digits=digits)

    def test_tolerance_floor(self):
        """Bisection time grows with the bits of 1/tol, so a tolerance
        below 10^-1000 is refused before any step; Decimals are compared
        before they are made exact."""
        poly = Poly.parse("1 - 2z - z^3")
        for tol in (Fraction(1, 10**1001), Decimal("1e-10000"), Decimal("1e-99999999")):
            with pytest.raises(ParameterOutOfRange, match="at least"):
                growth_rate(poly, tol=tol)
        r = growth_rate(poly, tol=Decimal("1e-300"))
        lo, hi = r.root_interval
        assert 0 < hi - lo <= Fraction(1, 10**300)

    def test_json(self):
        data = growth_rate(class_gf("1(ru)*")).to_json()
        assert set(data) == {"interval", "decimal", "root_interval", "polynomial"}
        assert data["decimal"] == "2.20556943"
        assert data["polynomial"] == "1 - 2z - z^3"
        assert Fraction(data["interval"][0]) < Fraction(data["interval"][1])

    def test_bisection_evaluates_each_midpoint_once(self, monkeypatch):
        shifts, horner = [], []
        for name, calls in (("_taylor_shift", shifts), ("_dyadic_sign", horner)):

            def counted(*args, original=getattr(pipeline, name), calls=calls):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(pipeline, name, counted)
        result = growth_rate(class_gf("1(ru)*"), tol=Fraction(1, 2**40))
        lo, hi = result.root_interval
        assert hi - lo == Fraction(1, 2**40)
        # the walk's one node, (0, 1/2], counts 1 by one Taylor shift; then
        # one integer Horner for each of its 39 halvings, and one at the
        # lower end for the final sign check
        assert len(shifts) == 1
        assert len(horner) == 39 + 1
        assert {args[0] for args in horner} == {(1, -2, 0, -1)}

    @pytest.mark.parametrize("tol", [Fraction(1, 2), 1])
    def test_coarse_tolerance_still_brackets_the_root(self, tol):
        """A tolerance of at least 1/2 used to leave the bracket at (0, 1/2]
        and report the root as below tolerance; halving goes on until the
        lower end is past 0."""
        r = growth_rate(Poly.parse("1 - 2z - z^3"), tol=tol)
        assert r.root_interval == (Fraction(1, 4), Fraction(1, 2))
        assert r.growth_interval == (2, 4)

    def test_root_below_tolerance_is_certified(self):
        r = growth_rate(Poly.parse("1 - 1000z"), tol=Fraction(1, 100))
        lo, hi = r.root_interval
        assert 0 < lo < Fraction(1, 1000) <= hi
        assert hi - lo <= Fraction(1, 100)

    def test_growth_beyond_float_range_is_typed(self):
        """A root below 2^-1024 is certified, but its reciprocal has no
        float to print: a NumericError, not an OverflowError."""
        with pytest.raises(NumericError, match="float range"):
            growth_rate(Poly([1, -(10**400)]))

    def test_growth_beyond_float_range_with_a_huge_coefficient(self):
        """A coefficient past CPython's 4300-digit int-text limit is
        shortened in the message, so the NumericError still forms."""
        with pytest.raises(NumericError, match="float range") as info:
            growth_rate(Poly([1, -(10**5000)]))
        assert "\n" not in str(info.value) and len(str(info.value)) < 200

    def test_parameters_out_of_range_are_typed(self):
        with pytest.raises(ParameterOutOfRange):
            truncation_convergence("1(ul)*", 0)

    def test_repeated_root_handled_by_square_free_part(self):
        squared = Poly.parse("1 - 2z - z^3") * Poly.parse("1 - 2z - z^3")
        assert growth_rate(squared).growth_rate == "2.20556943"


def _fraction_bisection(poly: Poly, tol: Fraction) -> tuple[Fraction, Fraction]:
    """The exact-rational bisection on the Fraction-only Sturm chain: every
    midpoint a Fraction, halving until the bracket is at most tol wide and
    its lower end is past 0."""
    chain = fp.sturm_chain(fp.square_free(fp.frac_poly(poly)))
    lo, hi = Fraction(0), Fraction(1, 2)
    var_lo = fp.variations(chain, lo)
    while lo == 0 or hi - lo > tol:
        mid = (lo + hi) / 2
        var_mid = fp.variations(chain, mid)
        if var_lo - var_mid >= 1:
            hi = mid
        else:
            lo, var_lo = mid, var_mid
    return lo, hi


_small_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))


@st.composite
def _polys_with_root_in_window(draw):
    """A linear factor with its root in (0, 1/2], dyadic or not, times a
    nonzero cofactor with rational coefficients, either of them maybe
    squared."""
    dyadic = st.builds(
        lambda e, j: Fraction(j % 2**e or 1, 2 ** (e + 1)),
        st.integers(1, 12),
        st.integers(1, 4096),
    )
    other = st.builds(
        lambda a, b: Fraction(a, max(b, 2 * a)), st.integers(1, 50), st.integers(2, 200)
    )
    root = draw(st.one_of(dyadic, other))
    linear = Poly([1, -1 / root])
    cofactor = Poly(draw(st.lists(_small_fractions, min_size=1, max_size=4)))
    if cofactor.is_zero():
        cofactor = Poly([Fraction(1, 3), 1])
    squared = draw(st.sampled_from([Poly.one(), linear, cofactor]))
    return linear * cofactor * squared


# a squared factor with non-integral coefficients, its root near 0.46
_THIRDS = Poly.parse("1 - (1/3)z - 4z^2")


class TestDyadicBisection:
    @given(
        _polys_with_root_in_window(),
        st.sampled_from(
            [
                Fraction(1, 3),
                Fraction(1, 10**7),
                Fraction(1, 10**300),
                Fraction(1, 2),
                Fraction(1, 100),
                Fraction(1, 2**40),
            ]
        ),
    )
    @example(Poly.parse("1 - 4z"), Fraction(1, 3))
    @example(Poly.parse("1 - 4z"), Fraction(1, 10**7))
    @example(Poly.parse("1 - 4z") * Poly.parse("1 - 2z - z^3"), Fraction(1, 10**300))
    @example(_THIRDS * _THIRDS, Fraction(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_bisection(self, poly, tol):
        assert growth_rate(poly, tol=tol).root_interval == _fraction_bisection(poly, tol)


# The published anchors' denominators: the four frozen class generating
# functions, the complete class, its part confined to quadrants 1 and 2, and
# the closures of 41[3]52 and of the four single points.
ANCHOR_DENOMINATORS = [f.den for f in FROZEN_CLASS_GFS.values()] + [
    Poly.parse(text)
    for text in (
        "1 - 8z + 19z^2 - 26z^3 + 14z^4 - 12z^5 - 8z^6 + 20z^7 - 8z^8",
        "1 - 2z - 4z^2 - 2z^3 - 8z^4 - 4z^5",
        "1 - 4z + 2z^2 - z^4",
        "1 - 4z + 2z^2",
    )
]

@st.composite
def _core_polys(draw, max_degree=64, max_rational_degree=32):
    """A polynomial with one-digit integer coefficients up to max_degree, or
    with rational ones up to max_rational_degree, maybe times the square of
    a short one.  The Fraction route's cost grows about as degree^6, and
    about five times faster with rational coefficients."""
    if draw(st.booleans()):
        cs, top = st.integers(-9, 9), max_degree
    else:
        cs, top = st.fractions(-9, 9, max_denominator=12), max_rational_degree
    degree = draw(st.integers(0, top))
    p = Poly(draw(st.lists(cs, min_size=degree + 1, max_size=degree + 1)))
    if degree <= top - 4 and draw(st.booleans()):
        q = Poly(draw(st.lists(cs, min_size=1, max_size=3)))
        p = p * q * q
    return p


def _positive_multiple(got: Poly, want) -> bool:
    """got = c·want for some rational c > 0."""
    got = fp.frac_poly(got)
    if not got or not want:
        return got == want
    return fp.monic(got) == fp.monic(want) and (got[-1] > 0) == (want[-1] > 0)


class TestIntegerCore:
    """The primitive pseudo-remainder gcd, square-free part and the
    reference route's integer Sturm chain against the Euclidean ones over
    the rationals."""

    @given(_core_polys(8, 8), _core_polys(16, 16), _core_polys(16, 16))
    @settings(max_examples=40, deadline=None)
    def test_gcd_matches_euclid(self, g, u, v):
        for a, b in ((g * u, g * v), (u, v), (g * u, Poly.zero())):
            want = fp.gcd(fp.frac_poly(a), fp.frac_poly(b))
            assert a.gcd(b).coeffs == want == b.gcd(a).coeffs

    # the Fraction chain costs about degree^6, so it is drawn at low degrees;
    # TestDescartesAgainstSturm runs the integer chain at high ones
    @given(_core_polys(24, 12), st.lists(_small_fractions, min_size=1, max_size=6))
    @settings(max_examples=8, deadline=None)
    def test_sturm_chain_matches_reference(self, p, points):
        self.check_chain(p, points)

    @pytest.mark.parametrize("den", ANCHOR_DENOMINATORS, ids=str)
    def test_anchor_denominators(self, den):
        self.check_chain(den, [Fraction(k, 20) for k in range(-20, 21)])
        assert den.gcd(den.derivative()).coeffs == fp.gcd(
            fp.frac_poly(den), fp.derivative(fp.frac_poly(den))
        )

    @staticmethod
    def check_chain(p: Poly, points):
        """Each member of the integer chain is a primitive integer positive
        multiple of the Fraction chain's member, so the chains have the same
        length and the same sign variations at every point."""
        square_free = pipeline._square_free(p)
        want = fp.square_free(fp.frac_poly(p))
        assert _positive_multiple(square_free, want)
        chain, reference = sturm.sturm_chain(square_free), fp.sturm_chain(want)
        assert len(chain) == len(reference)
        for member, ref in zip(chain, reference):
            assert all(type(c) is int for c in member.coeffs)
            assert member == member.primitive() and _positive_multiple(member, ref)
        for x in points:
            assert sturm.variations(chain, x) == fp.variations(reference, x)


_ISOLATION_TOLERANCES = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(1, 100),
    Fraction(1, 10**12),
    Fraction(1, 2**40),
    Fraction(1, 10**50),
]

_roots_in_window = st.one_of(
    st.builds(
        lambda e, j: Fraction(j % 2**e or 1, 2 ** (e + 1)),
        st.integers(1, 12),
        st.integers(1, 4096),
    ),
    st.just(Fraction(1, 2)),
    st.fractions(Fraction(1, 1000), Fraction(1, 2), max_denominator=10**6),
)


@st.composite
def _isolation_cases(draw):
    """A polynomial and the roots put into it: a cofactor of one-digit
    integer coefficients up to degree 40, or rational ones up to degree 8,
    maybe times z or z^2, times up to three linear factors with roots in
    (0, 1/2], dyadic ones and 1/2 among them, each maybe with a second root
    10^-2 to 10^-12 above it and maybe squared."""
    if draw(st.booleans()):
        cs, top = st.integers(-9, 9), 40
    else:
        cs, top = st.fractions(-9, 9, max_denominator=12), 8
    degree = draw(st.integers(0, top))
    p = Poly(draw(st.lists(cs, min_size=degree + 1, max_size=degree + 1)))
    p = (ONE if p.is_zero() else p).shift(draw(st.integers(0, 2)))
    roots = []
    for _ in range(draw(st.integers(0, 3))):
        root = draw(_roots_in_window)
        roots.append(root)
        if draw(st.booleans()):
            roots.append(root + Fraction(1, 10 ** draw(st.integers(2, 12))))
    for root in roots:
        linear = Poly([root.numerator, -root.denominator])
        p = p * linear * (linear if draw(st.booleans()) else ONE)
    return p, roots


def _descartes_bracket(poly: Poly, tol: Fraction):
    try:
        return growth_rate(poly, tol=tol).root_interval
    except NoRootInRange:
        return None


class TestDescartesAgainstSturm:
    """The Descartes bisection against the integer Sturm chain of
    tests/sturm_reference.py: the same bracket, or no root, on every input."""

    @given(_isolation_cases(), st.sampled_from(_ISOLATION_TOLERANCES))
    @example((Poly.parse("1 - 2z"), []), Fraction(1, 10**12))
    @example((Poly.parse("1 - 2z") * Poly.parse("1 - 2z"), []), Fraction(1, 3))
    # (1 - 4z)^2 (1 - 2z - z^3): a double root at 1/4, below a simple one
    @example((Poly.parse("1 - 10z + 32z^2 - 33z^3 + 8z^4 - 16z^5"), []), Fraction(1, 10**12))
    @example((Poly.parse("z - 4z^2"), []), Fraction(1))
    @example((Poly.parse("1 + z + z^2"), []), Fraction(1, 10**12))
    @settings(max_examples=120, deadline=None)
    def test_same_bracket(self, case, tol):
        poly, roots = case
        want = sturm.sturm_bisection(poly, tol)
        assert _descartes_bracket(poly, tol) == want
        # the roots put in are roots, so the smallest root lies at or left of them
        assert all(poly(root) == 0 for root in roots)
        assert not roots or want is not None and want[0] < min(roots)

    @pytest.mark.parametrize("tol", _ISOLATION_TOLERANCES, ids=str)
    @pytest.mark.parametrize("den", ANCHOR_DENOMINATORS, ids=str)
    def test_anchor_denominators(self, den, tol):
        assert _descartes_bracket(den, tol) == sturm.sturm_bisection(den, tol)

    def test_dense_degree_128(self):
        """The dense one-digit polynomial of the CLI's degree-cap test, and
        its square, whose smallest root is double."""
        rng = random.Random(5)
        middle = [rng.randint(-9, 9) for _ in range(126)]
        poly = Poly([1, -3]) * Poly([100, *middle, rng.randint(1, 9)])
        tol = Fraction(1, 10**12)
        want = sturm.sturm_bisection(poly, tol)
        assert _descartes_bracket(poly, tol) == want
        assert _descartes_bracket(poly * Poly([1, -3]), tol) == want

    def test_final_node_sign_check(self, monkeypatch):
        """A walk that handed back (1/8, 1/4], where 1 - 2z - z^3 has no
        root, would be halved to a node without a sign change: the final
        check refuses it."""
        monkeypatch.setattr(pipeline, "_first_root_node", lambda p, tol: (1, 3, 1, p))
        with pytest.raises(CrossCheckMismatch, match="certificate"):
            growth_rate(Poly.parse("1 - 2z - z^3"))

    def test_square_free_part_only_for_a_repeated_root(self, monkeypatch):
        """A node no wider than tol that still counts 2 or more is what
        calls for the square-free part, so simple roots never compute a
        gcd, and a double smallest root computes one."""
        calls = []
        square_free = pipeline._square_free
        monkeypatch.setattr(pipeline, "_square_free", lambda p: calls.append(p) or square_free(p))
        for f in FROZEN_CLASS_GFS.values():
            growth_rate(f)
        for den in ANCHOR_DENOMINATORS:
            growth_rate(den, tol=Fraction(1, 10**50))
        assert calls == []
        cubic = Poly.parse("1 - 2z - z^3")
        assert growth_rate(cubic * cubic).root_interval == growth_rate(cubic).root_interval
        assert len(calls) == 1

    @given(_isolation_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_positivity_matches_a_sturm_count(self, case, data):
        """`_positive_on` against its definition on the Sturm route: the
        lowest term positive and no root of the square-free part in
        (0, alpha], alpha often one of the roots put in."""
        poly, roots = case
        fixed = [Fraction(1, 8), Fraction(1, 3), Fraction(1, 2)]
        alpha = data.draw(st.sampled_from(roots + fixed if roots else fixed))
        lowest = next((c for c in poly.coeffs if c), 0)
        chain = sturm.sturm_chain(pipeline._square_free(poly))
        want = lowest > 0 and sturm.roots_in(chain, Fraction(0), alpha) == 0
        assert pipeline._positive_on(poly, alpha) == want


class TestLongCycles:
    def test_closure_growth_of_a_128_letter_cycle_in_bounded_time(self):
        """A seeded balanced 128-letter cycle: each axis alternates with the
        other and uses its two letters equally often, so the diagram grows
        on all four sides.  The bound is loose, about six times the time
        measured on a 2-core x86-64: it catches a far costlier image step,
        not a small slowdown."""
        rng = random.Random(7)
        ud, lr = list("ud" * 32), list("lr" * 32)
        rng.shuffle(ud)
        rng.shuffle(lr)
        spec = "1(" + "".join(a + b for a, b in zip(ud, lr)) + ")*"
        start = time.perf_counter()
        r = growth_rate(closure_gf(spec))
        assert time.perf_counter() - start < 10
        lo, hi = r.growth_interval
        assert 4 < lo < hi < 6 and hi - lo < Fraction(1, 10**10)


class TestSpecLengthCap:
    """A spec of more than MAX_SPEC_LENGTH symbols is refused before any
    factor is enumerated: the factor walk grows as the cube of the length."""

    @pytest.mark.parametrize(
        "call",
        [
            class_gf,
            closure_gf,
            interior_gf,
            amended_G,
            indecomposable_counts,
            lambda spec: describe(spec, "closure"),
        ],
        ids=["class", "closure", "interior", "amended_G", "g", "describe"],
    )
    def test_one_symbol_over_the_cap_is_refused_first(self, monkeypatch, call):
        spec = parse_pin_spec(spec_of_size(MAX_SPEC_LENGTH + 1))
        assert spec.prefix_length + spec.cycle_length == MAX_SPEC_LENGTH + 1

        def unreached(*args):
            raise AssertionError("reached past the length cap")

        monkeypatch.setattr(pipeline, "is_recurrent", unreached)
        monkeypatch.setattr(pipeline, "enumerate_pin_factors", unreached)
        with pytest.raises(ParameterOutOfRange, match="at most"):
            call(spec)

    def test_the_cap_counts_the_written_spec(self, monkeypatch):
        """The window the factor walk reads depends on the written prefix,
        so the cap counts the spec as written: 1r(ur)* has 4 symbols though
        it equals 1(ru)*.  A spec exactly at the cap passes the guard."""
        spec = parse_pin_spec(spec_of_size(MAX_SPEC_LENGTH))
        assert spec.prefix_length + spec.cycle_length == MAX_SPEC_LENGTH
        check_spec_size(spec)
        monkeypatch.setattr(pinword, "MAX_SPEC_LENGTH", 3)
        assert closure_gf("1(ru)*") == FROZEN_CLASS_GFS["1(ru)*"]
        with pytest.raises(ParameterOutOfRange):
            closure_gf("1r(ur)*")


class TestStabilizationGuard:
    """Whole rows (g_n, g1_n, .., g4_n) of a factor-count table must agree
    over one cycle of lengths from prefix_length + 2·cycle_length + 2 on."""

    SPEC = parse_pin_spec("1(ul)*")

    def table(self):
        window = self.SPEC.prefix_length + 3 * self.SPEC.cycle_length + 2
        return {n: (2, 1, 0, 1, 0) for n in range(1, window + 1)}

    def test_unstable_counts_rejected(self):
        table = self.table()
        table[self.SPEC.prefix_length + 2 * self.SPEC.cycle_length + 3] = (99, 1, 0, 1, 0)
        with pytest.raises(StabilizationFailure):
            _stabilized_gfs(self.SPEC, table)

    def test_one_unstable_quadrant_column_rejected(self):
        table = self.table()
        table[self.SPEC.prefix_length + 2 * self.SPEC.cycle_length + 3] = (2, 1, 0, 1, 1)
        with pytest.raises(StabilizationFailure, match=r"\(2, 1, 0, 1, 1\)"):
            _stabilized_gfs(self.SPEC, table)

    def test_stable_counts_accepted(self):
        table = self.table()
        table[1] = (1, 1, 0, 0, 0)
        g, g1, g2, g3, g4 = _stabilized_gfs(self.SPEC, table)
        assert g == gf("z + z^2", "1 - z")
        assert g1 == gf("z", "1 - z") and g3 == gf("z^2", "1 - z")
        assert g2 == g4 == RatGF.zero()


class TestTruncationConvergence:
    def test_oscillating_spec_is_constant(self):
        results = truncation_convergence("1(ul)*", 6)
        assert len(results) == 6
        assert {r.growth_rate for r in results} == {"2.20556943"}

    def test_monotone_and_above_interior(self):
        results = truncation_convergence("1(ul)*", 4)
        interior = growth_rate(interior_gf("1(ul)*"))
        for earlier, later in zip(results, results[1:]):
            assert later.root_interval[0] <= earlier.root_interval[1]
        for r in results:
            assert r.root_interval[0] <= interior.root_interval[1]


    def test_no_truncation_point_fails(self, monkeypatch):
        """Truncations whose factors always include one that does not recur
        leave no truncation point, which the theory rules out: refused."""
        enumerate_factors = pipeline.enumerate_pin_factors
        stray = PinWord(1, "rururururu")  # longer than any factor asked for

        def with_stray(spec, n, mode="all"):
            found = enumerate_factors(spec, n, mode)
            return found | {stray} if mode == "all" else found

        monkeypatch.setattr(pipeline, "enumerate_pin_factors", with_stray)
        with pytest.raises(CrossCheckMismatch, match="no valid truncation point"):
            truncation_convergence("1(ru)*", 1)

    @given(pin_specs(cycle_lengths=(2, 4, 6), max_prefix_letters=4), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_choice_matches_per_length_definition(self, spec, t_max):
        """n(t) compares factors at length t only; by definition it needs
        every length up to t."""

        def chosen(t):
            rec = {ell: enumerate_pin_factors(spec, ell, "recurrent") for ell in range(1, t + 1)}
            for n in range(1, spec.prefix_length + 3):
                trunc = left_truncate(spec, n)
                if all(
                    enumerate_pin_factors(trunc, ell, "all") <= rec[ell]
                    for ell in range(1, t + 1)
                ):
                    return str(trunc)

        with pytest.MonkeyPatch.context() as mp:
            # each chosen truncation stands in for its growth rate
            mp.setattr(pipeline, "closure_gf", lambda trunc: trunc)
            mp.setattr(pipeline, "growth_rate", lambda trunc: trunc)
            got = [str(trunc) for trunc in truncation_convergence(spec, t_max)]
        assert got == [chosen(t) for t in range(1, t_max + 1)], spec


class TestInteriorPositivity:
    def test_positive_for_oscillation_interior(self):
        assert interior_positivity("1(ul)*")

    def test_positive_for_recurrent_specs(self):
        for spec in FROZEN_CLASS_GFS:
            assert interior_positivity(spec)

    def test_root_inside_interval(self, monkeypatch):
        # G = z - 40z^2 + 200z^3 vanishes near 0.029 and 0.171, below its
        # G = 1 root near 0.26, though it is positive near 0 and at alpha
        g = RatGF(Poly.parse("z - 40z^2 + 200z^3"))
        monkeypatch.setattr(pipeline, "amended_G", lambda spec, mode: SimpleNamespace(G=g))
        assert not interior_positivity("1(ul)*")

    def test_certificate_edges(self):
        positive_on = pipeline._positive_on
        assert positive_on(Poly.parse("z - 4z^2"), Fraction(1, 8))
        assert not positive_on(Poly.parse("z - 4z^2"), Fraction(1, 4))  # root at alpha
        # a double root at alpha vanishes from every unreduced Sturm polynomial
        assert not positive_on(Poly.parse("z^2 - 8z^3 + 16z^4"), Fraction(1, 4))
        assert not positive_on(Poly.parse("-z + z^2"), Fraction(1, 8))  # negative near 0
        assert not positive_on(Poly.zero(), Fraction(1, 8))
        # a root at 101/200, past the walk's (0, 1/2], is in (0, alpha]
        assert positive_on(Poly([101, -200]), Fraction(1, 2))
        assert not positive_on(Poly([101, -200]), Fraction(51, 100))


class TestDescribe:
    def test_schema(self):
        data = describe("1(ru)*")
        assert set(data) == {
            "spec", "mode", "g", "g_quadrants", "G", "f", "growth", "display",
        }
        assert data["spec"] == "1(ru)*"
        assert data["mode"] == "class"
        assert len(data["g_quadrants"]) == 4
        assert data["growth"]["decimal"] == "2.20556943"
        assert data["display"]["f"] == "(1 - z)/(1 - 2z - z^3)"

    def test_modes(self):
        closure = describe("1(ul)*", mode="closure", digits=6)
        interior = describe("1(ul)*", mode="interior", digits=6)
        assert closure["growth"]["decimal"] == "3.19582"
        assert interior["growth"]["decimal"] == "2.20557"

    def test_class_mode_requires_recurrence(self):
        with pytest.raises(NotRecurrent):
            describe("1(ul)*", mode="class")

    def test_unknown_mode(self):
        with pytest.raises(ParameterOutOfRange):
            describe("1(ru)*", mode="everything")
