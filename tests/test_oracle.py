"""Brute-force census oracles, independent of the generating-function route."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinclasses import _patterns, cperm, oracle, pipeline
from pinclasses.classify import all_pin_words
from pinclasses.errors import (
    BoundViolation,
    CensusTooLarge,
    CrossCheckMismatch,
    EmptyPermutation,
    NotRecurrent,
    ParameterOutOfRange,
)
from pinclasses.oracle import (
    ClassCensus,
    census_adjacency,
    centred_uncentred_check,
    enumerate_class_composition,
    enumerate_class_subset,
    enumerate_closure_composition,
    enumerate_pin_permutations,
    property_suite,
)
from pinclasses.pimap import diagram_points, pi_map
from pinclasses.cperm import (
    EMPTY,
    QUADRANT_POINT,
    box_sum,
    centred_pattern,
    expand_level,
    from_oneline,
    is_box_indecomposable,
)
from pinclasses.pinword import MAX_SPEC_LENGTH, as_spec
from pinclasses.series import coeffs

import tuple_levels
from strategies import centred_perms, pin_specs, recurrent_specs, spec_of_size
from tuple_levels import encode

# Exhaustively computed class sizes, frozen here as the reference the
# generating-function pipeline is checked against in test_acceptance.
FROZEN_COUNTS = {
    "1(ru)*": [1, 1, 2, 5, 11, 24, 53, 117, 258],
    "2(urul)*": [1, 2, 6, 18, 56, 172, 528, 1620, 4972],
    "1(uldlur)*": [1, 3, 10, 33, 110, 369, 1242, 4182, 14081],
    "1(ldru)*": [1, 4, 14, 48, 165, 572, 1992, 6948, 24241],
}


class TestCompositionCensus:
    def test_frozen_counts(self):
        for spec, expect in FROZEN_COUNTS.items():
            census = enumerate_class_composition(spec, 8)
            assert census.counts == expect, spec

    def test_rejects_nonrecurrent(self):
        with pytest.raises(NotRecurrent):
            enumerate_class_composition("1(ul)*", 4)

    def test_members_sorted_and_unique(self):
        census = enumerate_class_composition("1(ru)*", 5)
        for n in range(6):
            ms = census.members(n)
            assert len(ms) == census.counts[n]
            lines = [p.one_line() for p in ms]
            assert lines == sorted(lines)
            assert all(p.length == n for p in ms)

    def test_json(self):
        census = enumerate_class_composition("1(ru)*", 4)
        assert census.to_json() == {
            "method": "composition",
            "counts": [1, 1, 2, 5, 11],
            "n_max": 4,
        }


class TestSubsetCensus:
    def test_agrees_with_composition(self):
        for spec in ("1(ru)*", "1(ldru)*"):
            subset = enumerate_class_subset(spec, 4)
            composed = enumerate_class_composition(spec, 4)
            assert subset.counts == composed.counts
            for n in range(5):
                assert subset.members(n) == composed.members(n)

    def test_nonrecurrent_diagram_class(self):
        # For a non-recurrent spec the subset census measures the diagram's
        # own subpattern class, which is strictly inside the box-sum closure.
        census = enumerate_class_subset("1(ul)*", 4)
        assert census.counts == [1, 2, 5, 11, 24]
        assert census.method == "subset"
        from pinclasses.pipeline import closure_gf

        f = closure_gf("1(ul)*")
        assert all(census.counts[n] <= f.coefficient(n) for n in range(5))
        assert census.counts[2] < f.coefficient(2)

    def test_description_names_the_exact_walk(self):
        census = enumerate_class_subset("1(ru)*", 3)
        assert census.description == "subset census of 1(ru)* (exact state walk)"

    def test_cross_check_runs_once_on_a_short_diagram(self, monkeypatch):
        calls = []
        reference = _patterns.subset_patterns

        def spy(*args):
            calls.append(args)
            return reference(*args)

        monkeypatch.setattr(_patterns, "subset_patterns", spy)
        enumerate_class_subset("2ruldlurdr(ul)*", 5)
        enumerate_class_subset("1(ru)*", 2)
        # min(P + 2c, 12) symbols, to depth min(n, 3)
        assert [(len(points), origin == points[0], depth) for points, origin, depth in calls] == [
            (13, True, 3),
            (6, True, 2),
        ]

    def test_cross_check_catches_a_missing_pattern(self, monkeypatch):
        walk = _patterns.walk_patterns

        def lossy(spec, n_max):
            table = dict(walk(spec, n_max))
            level = dict(table[2])
            filled = min(level)
            level[filled] &= level[filled] - 1  # drop its lowest origin
            table[2] = level
            return table

        monkeypatch.setattr(_patterns, "walk_patterns", lossy)
        with pytest.raises(CrossCheckMismatch, match="misses"):
            enumerate_class_subset("1(ldru)*", 4)

    @settings(max_examples=15, deadline=None)
    @given(recurrent_specs(cycle_lengths=(2, 4, 6, 8)))
    def test_agrees_with_composition_on_random_specs(self, spec):
        assert (
            enumerate_class_subset(spec, 4).counts
            == enumerate_class_composition(spec, 4).counts
        ), spec

    @settings(max_examples=4, deadline=None)
    @given(recurrent_specs(cycle_lengths=(2, 4, 6)))
    def test_equals_composition_to_eight_on_random_specs(self, spec):
        subset = enumerate_class_subset(spec, 8)
        composed = enumerate_class_composition(spec, 8)
        assert subset.perms == composed.perms, spec


class TestRepresentationCensus:
    def test_complete_counts(self):
        census = enumerate_pin_permutations(6)
        assert census.counts == [1, 4, 18, 92, 484, 2548, 13384]
        assert census.method == "representation"

    def test_small_members(self):
        census = enumerate_pin_permutations(1)
        assert set(census.members(1)) == set(QUADRANT_POINT.values())


class TestClosureComposition:
    def test_single_point_closure(self):
        census = enumerate_closure_composition(list(QUADRANT_POINT.values()), 6)
        assert census.counts == [1, 4, 14, 48, 164, 560, 1912]

    def test_linear_growth_closure(self):
        census = enumerate_closure_composition(["[1]2", "1[2]"], 7)
        assert census.counts == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_generators_and_subpatterns_present(self):
        gen = from_oneline("41[3]52")
        census = enumerate_closure_composition([gen], 4)
        assert gen in census.members(4)
        assert census.counts[0] == 1

    def test_counts_match_pipeline_gf(self):
        from pinclasses.pipeline import finite_closure_gf

        for gens in [["41[3]52"], list(QUADRANT_POINT.values()), ["23[1]", "[1]32"]]:
            census = enumerate_closure_composition(gens, 5)
            f = finite_closure_gf(gens)
            assert census.counts == [f.coefficient(n) for n in range(6)], gens

    @given(centred_perms(min_n=8, max_n=13))
    @settings(max_examples=10, deadline=None)
    def test_random_generators_match_pipeline_gf(self, gen):
        """The finite closure of a random generator of 8 to 13 points, almost
        never a pin permutation (at 8 points, at most 2^10 of the 9·9!
        centred permutations are pin images), has the census's GF: the
        pin-class bound on G, which it need not keep, is not checked."""
        census = enumerate_closure_composition([gen], 6)
        f = pipeline.finite_closure_gf([gen])
        assert census.counts == [f.coefficient(n) for n in range(7)]

    @pytest.mark.parametrize(
        "gen, counts",
        [
            ("10,[15],9,5,4,13,1,3,7,12,6,2,8,11,14,16", [1, 3, 9, 31, 124, 554, 2562, 11375]),
            ("9,4,7,15,12,16,3,13,1,2,14,11,17,10,6,[5],8", [1, 3, 10, 40, 181, 873, 4169, 19191]),
        ],
        ids=["a6-338", "a5-130"],
    )
    def test_generators_past_the_pin_class_bound(self, gen, counts):
        """Two generators whose G breaks the pin-class bound -8n <= a_n <
        2^(n+2) (a_6 = 338 and a_5 = 130) have the census's GF."""
        census = enumerate_closure_composition([gen], 7)
        f = pipeline.finite_closure_gf([gen])
        assert census.counts == [f.coefficient(n) for n in range(8)] == counts

    def test_count_over_the_subset_bound_raises(self, monkeypatch):
        """g_n is at most the sum of C(L, n) over the generators of L
        non-origin points: a closure given a 4-point generator's patterns
        for a 1-point generator breaks it at n = 1."""
        monkeypatch.setattr(pipeline, "subpatterns", lambda gen: cperm.subpatterns("41[3]52"))
        with pytest.raises(BoundViolation, match=r"g_1 = 4 exceeds Σ_i C\(L_i, 1\) = 1"):
            pipeline.finite_closure_sequence(["[1]2"])

    def test_generators_without_points_rejected(self):
        with pytest.raises(EmptyPermutation):
            enumerate_closure_composition(["[1]"], 3)
        with pytest.raises(ParameterOutOfRange):
            enumerate_closure_composition([], 3)


def _pairwise_fold(parts, n_max):
    """The composition census by one box_sum per (left, piece) pair."""
    levels = {0: {EMPTY}}
    for n in range(1, n_max + 1):
        levels[n] = {
            box_sum(left, piece)
            for p, pieces in parts.items()
            if p <= n
            for left in levels[n - p]
            for piece in pieces
        }
    return levels


def _spy_compose(monkeypatch):
    """Record the parts and depth of every `_compose_census` call."""
    seen = []
    compose = oracle._compose_census

    def spy(parts, n_max, description, method):
        seen.append((parts, n_max))
        return compose(parts, n_max, description, method)

    monkeypatch.setattr(oracle, "_compose_census", spy)
    return seen


def _kept_pieces(monkeypatch, route, *args):
    """The pieces the composition census keeps at each length below its
    depth: the parts of lengths below n that build length n are the kept
    ones, so the last level's call shows them all."""
    calls = []
    kernel = oracle.box_sum_level

    def spy(levels, parts, n):
        calls.append({p: set(pieces) for p, pieces in parts.items()})
        return kernel(levels, parts, n)

    monkeypatch.setattr(oracle, "box_sum_level", spy)
    route(*args)
    return calls[-1]


class TestComposeCensusKernel:
    """Every composition route builds its levels with cperm.box_sum_level
    from the pieces that shorter pieces do not generate; its members must be
    those of the pairwise box_sum fold of all the pieces."""

    @pytest.mark.parametrize(
        "route, args",
        [
            (enumerate_pin_permutations, (5,)),
            (enumerate_class_composition, ("1(ldru)*", 7)),
            (enumerate_closure_composition, (["241[3]5", "[1]32"], 6)),
        ],
    )
    def test_members_equal_the_pairwise_fold(self, monkeypatch, route, args):
        seen = _spy_compose(monkeypatch)
        census = route(*args)
        [(parts, n_max)] = seen
        reference = _pairwise_fold(parts, n_max)
        for n in range(n_max + 1):
            assert census.perms[n] == reference[n], n

    @settings(max_examples=25, deadline=None)
    @given(recurrent_specs(), st.integers(min_value=1, max_value=6))
    def test_pruned_census_equals_the_fold_on_random_specs(self, spec, n_max):
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = _spy_compose(monkeypatch)
            census = enumerate_class_composition(spec, n_max)
        [(parts, _)] = seen
        reference = _pairwise_fold(parts, n_max)
        assert census.perms == reference, spec

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(centred_perms(max_n=4), min_size=1, max_size=3).filter(
            lambda gens: any(g.length for g in gens)
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_pruned_census_equals_the_fold_on_random_generators(self, gens, n_max):
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = _spy_compose(monkeypatch)
            census = enumerate_closure_composition(gens, n_max)
        [(parts, _)] = seen
        reference = _pairwise_fold(parts, n_max)
        assert census.perms == reference, gens

    def test_one_box_sum_check_per_level_and_piece_length(self, monkeypatch):
        """The kernel checks one sum per (n, p) with 1 <= p < n: a piece of
        length n joins its level by a membership test, not as EMPTY ⊞ piece.
        Each length from 2 on drops a piece, and the split check of the
        first one adds one box_sum of two shorter members."""
        calls = []
        real = cperm.box_sum

        def counted(inner, outer):
            calls.append((inner.length, outer.length))
            return real(inner, outer)

        monkeypatch.setattr(cperm, "box_sum", counted)
        enumerate_pin_permutations(4)
        kernel = Counter((n - p, p) for n in range(1, 5) for p in range(1, n))
        splits = Counter(calls) - kernel
        assert Counter(calls) - splits == kernel
        assert sorted(a + b for a, b in splits.elements()) == [2, 3, 4]
        assert all(a >= 1 and b >= 1 for a, b in splits)

    def test_ungenerated_piece_fails_the_split_check(self, monkeypatch):
        """A kernel that reports the indecomposable piece [1]32 as generated
        at length 2 makes the census drop it; the split check finds no
        ∘-interval that splits it and raises."""
        kernel = oracle.box_sum_level
        piece = from_oneline("[1]32")

        def faulty(levels, parts, n):
            level = kernel(levels, parts, n)
            if n == 2:
                [(key, bit)] = encode({piece.filled: 1 << piece.origin_index}).items()
                level[key] = level.get(key, 0) | bit
            return level

        monkeypatch.setattr(oracle, "box_sum_level", faulty)
        with pytest.raises(CrossCheckMismatch, match=r"\[1\]32"):
            enumerate_closure_composition(["[1]32"], 3)


class TestCensusMeetsPipeline:
    """The pieces a composition census keeps are the ⊞-indecomposable ones:
    their number per length is the pipeline's g_n, which the census itself
    never reads."""

    @settings(max_examples=15, deadline=None)
    @given(recurrent_specs(cycle_lengths=(2, 4, 6)))
    def test_kept_pieces_count_the_indecomposable_factor_images(self, spec):
        depth = 7
        with pytest.MonkeyPatch.context() as monkeypatch:
            kept = _kept_pieces(monkeypatch, enumerate_class_composition, spec, depth + 1)
        _, g = pipeline.indecomposable_counts(spec)
        assert [len(kept[n]) for n in range(1, depth + 1)] == [
            g.coefficient(n) for n in range(1, depth + 1)
        ], spec

    @pytest.mark.parametrize(
        "spec",
        ["1(ru)*", "2(urul)*", "1(uldlur)*", "1(ldru)*", "3(rululd)*", "1(ldrdldru)*"],
    )
    def test_kept_pieces_on_named_specs(self, monkeypatch, spec):
        kept = _kept_pieces(monkeypatch, enumerate_class_composition, spec, 8)
        _, g = pipeline.indecomposable_counts(spec)
        assert [len(kept[n]) for n in range(1, 8)] == [g.coefficient(n) for n in range(1, 8)]

    def test_representation_keeps_the_indecomposable_pin_images(self, monkeypatch):
        kept = _kept_pieces(monkeypatch, enumerate_pin_permutations, 6)
        for n in range(1, 6):
            images = {pi_map(w) for w in all_pin_words(n)}
            assert kept[n] == {p for p in images if is_box_indecomposable(p)}, n


class TestGuards:
    def test_depth_guards(self):
        with pytest.raises(CensusTooLarge):
            enumerate_class_subset("1(ru)*", 11)
        with pytest.raises(CensusTooLarge):
            enumerate_class_composition("1(ru)*", 11)
        with pytest.raises(CensusTooLarge):
            enumerate_pin_permutations(9)

    def test_guard_messages(self):
        """One depth check words every census guard the same way."""
        cases = [
            (
                lambda: enumerate_class_subset("1(ru)*", 11),
                "subset census depth 11 exceeds the guard 10",
            ),
            (
                lambda: enumerate_class_composition("1(ul)*", 11),
                "composition census depth 11 exceeds the guard 10",
            ),
            (lambda: enumerate_pin_permutations(9), "representation census depth 9 exceeds the guard 8"),
        ]
        for call, message in cases:
            with pytest.raises(CensusTooLarge) as info:
                call()
            assert str(info.value) == message

    def test_closure_depth_past_a_byte_is_refused_first(self, monkeypatch):
        """A level holds the n + 1 one-line values of length n in bytes, so
        the finite closure refuses depth 255 before it reads a generator;
        depth 254 runs, with the value 255 at the top."""

        def unread(generators):
            raise AssertionError("the generators were read")

        with monkeypatch.context() as patched:
            patched.setattr(oracle, "as_generators", unread)
            with pytest.raises(CensusTooLarge) as info:
                enumerate_closure_composition(["1[2]"], 255)
        assert str(info.value) == "finite-closure census depth 255 exceeds the guard 254"
        # points in the opposite quadrants 3 and 1 commute: n + 1 members
        census = enumerate_closure_composition(["1[2]", "[1]2"], 254)
        assert census.counts == list(range(1, 256))
        assert {p.one_line() for p in census.members(254)} == {
            ",".join([*map(str, range(1, k)), f"[{k}]", *map(str, range(k + 1, 256))])
            for k in range(1, 256)
        }

    @pytest.mark.parametrize(
        "census", [enumerate_class_subset, enumerate_class_composition], ids=["subset", "composition"]
    )
    def test_spec_past_the_length_cap_is_refused_first(self, monkeypatch, census):
        """A spec one symbol over MAX_SPEC_LENGTH is refused before any
        walk or recurrence test, as `gf` and `growth` refuse it."""

        def unreached(*args):
            raise AssertionError("a census walk started")

        monkeypatch.setattr(_patterns, "walk_patterns", unreached)
        for name in ("is_recurrent", "enumerate_pin_factors", "diagram_points"):
            monkeypatch.setattr(oracle, name, unreached)
        with pytest.raises(ParameterOutOfRange, match=f"at most {MAX_SPEC_LENGTH}$"):
            census(spec_of_size(MAX_SPEC_LENGTH + 1), 6)

    def test_every_guard_keeps_the_values_in_a_byte(self):
        guards = [
            oracle._SUBSET_GUARD,
            oracle._COMPOSITION_GUARD,
            oracle._REPRESENTATION_GUARD,
            oracle._CLOSURE_GUARD,
        ]
        assert max(guards) <= 254

    def test_negative_depths(self):
        with pytest.raises(ParameterOutOfRange):
            enumerate_class_subset("1(ru)*", -1)
        with pytest.raises(ParameterOutOfRange):
            enumerate_class_composition("1(ru)*", -3)
        with pytest.raises(ParameterOutOfRange):
            enumerate_pin_permutations(-1)
        with pytest.raises(ParameterOutOfRange):
            enumerate_closure_composition(["41[3]52"], -1)

    @pytest.mark.parametrize(
        "route, args",
        [
            (enumerate_class_composition, ("1(ldru)*", 6)),
            (enumerate_class_subset, ("1(ldru)*", 6)),
            (enumerate_pin_permutations, (5,)),
        ],
    )
    def test_memory_guard_counts_centred_members(self, monkeypatch, route, args):
        """The levels hold one entry per one-line key, but the guard counts
        the centred permutations: a guard between the two totals still stops
        the census, and one equal to the member total does not."""
        census = route(*args)
        members = sum(census.counts)
        tuples = sum(len({p.filled for p in perms}) for perms in census.perms.values())
        assert tuples < members
        monkeypatch.setattr(oracle, "MEMORY_GUARD", tuples)
        with pytest.raises(CensusTooLarge, match=f"more than {tuples} permutations"):
            route(*args)
        monkeypatch.setattr(oracle, "MEMORY_GUARD", members)
        assert route(*args).counts == census.counts

    def test_depth_under_guard_runs(self):
        census = enumerate_pin_permutations(7)
        assert census.counts[-1] == 70184


class TestAdjacency:
    def test_oscillation_class_is_adjacent(self):
        assert census_adjacency(enumerate_class_composition("1(ru)*", 4))

    def test_complete_class_is_adjacent(self):
        assert census_adjacency(enumerate_pin_permutations(3))

    def test_opposite_pair_closure_is_not(self):
        census = enumerate_closure_composition(["[1]2", "1[2]"], 4)
        assert not census_adjacency(census)


class TestPropertySuite:
    def test_clean_on_real_classes(self):
        for spec in ("1(ru)*", "2(urul)*"):
            census = enumerate_class_composition(spec, 6)
            assert property_suite(census, closed=True, adjacency=True) == []
        complete = enumerate_pin_permutations(5)
        assert property_suite(complete, closed=True, adjacency=True) == []

    def test_flags_false_adjacency_claim(self):
        census = enumerate_closure_composition(["[1]2", "1[2]"], 7)
        assert property_suite(census, closed=True, adjacency=False) == []
        violations = property_suite(census, closed=True, adjacency=True)
        assert violations
        assert any("C_6" in v for v in violations)


class TestCentredUncentred:
    def test_single_point_closure_matches_grid_class(self):
        census = enumerate_closure_composition(list(QUADRANT_POINT.values()), 6)
        out = centred_uncentred_check(census)
        assert out["violations"] == []
        assert out["uncentred_counts"] == [1, 1, 2, 6, 20, 68, 232]

    def test_oscillation_class(self):
        census = enumerate_class_composition("1(ru)*", 6)
        out = centred_uncentred_check(census)
        assert out["violations"] == []
        # forgetting the origin can only merge classes, never split them
        for n in range(7):
            assert out["uncentred_counts"][n] <= census.counts[n]


def enough_symbols(spec, k: int) -> int:
    """A diagram length whose origin-containing subsets show every pattern
    of spec's pin class with up to k points.

    Between two chosen points, a run of skipped points revisits a walk node
    once it has skipped a whole cycle past the prefix, so any subset can be
    shortened until its first point lies within P + 1 + c and each later
    one within c + 1 of the one before."""
    return spec.prefix_length + k * (spec.cycle_length + 1)


def reference_census(spec, k: int) -> dict:
    pts = diagram_points(spec.initial_word(enough_symbols(spec, k)))
    return _patterns.subset_patterns(pts, pts[0], k)


def walk_perms(spec, k: int) -> dict:
    """The state walk's census with its origin masks expanded to members."""
    return {n: expand_level(level) for n, level in _patterns.walk_patterns(spec, k).items()}


class TestSubsetKernels:
    def test_backends_agree(self):
        spec = as_spec("2ruldlurdr(ul)*")
        assert walk_perms(spec, 5) == reference_census(spec, 5)

    def test_segment_bound_is_tight(self):
        # one symbol fewer than the bound misses a pattern of this class
        spec = as_spec("1rd(ldru)*")
        pts = diagram_points(spec.initial_word(enough_symbols(spec, 4) - 1))
        short = _patterns.subset_patterns(pts, pts[0], 4)
        walk = walk_perms(spec, 4)
        assert all(short[k] <= walk[k] for k in walk)
        assert short != walk

    def test_kernel_matches_direct_pattern_extraction(self):
        from itertools import combinations

        pts = diagram_points("1uldlur")
        origin = pts[0]
        out = _patterns.subset_patterns(pts, origin, 4)
        others = [p for p in pts if p != origin]
        for k in range(5):
            expect = {
                centred_pattern(list(chosen) + [origin], origin)
                for chosen in combinations(others, k)
            }
            assert out[k] == expect

    @settings(max_examples=30, deadline=None)
    @given(pin_specs(cycle_lengths=(2, 4, 6), max_prefix_letters=3), st.data())
    def test_walk_matches_reference_on_random_specs(self, spec, data):
        # recurrent and not, with prefixes; the reference's cost grows as
        # C(P + k(c + 1), k), so longer cycles are checked less deep
        top = {2: 5, 4: 4, 6: 3}[spec.cycle_length]
        k = data.draw(st.integers(min_value=1, max_value=top), label="depth")
        assert walk_perms(spec, k) == reference_census(spec, k), spec

    @settings(max_examples=3, deadline=None)
    @given(pin_specs(cycle_lengths=(4,), max_prefix_letters=2))
    def test_walk_matches_reference_at_depth_five(self, spec):
        assert walk_perms(spec, 5) == reference_census(spec, 5), spec

    @settings(max_examples=15, deadline=None)
    @given(pin_specs(cycle_lengths=(2, 4, 6), max_prefix_letters=3))
    def test_top_level_patterns_need_no_deeper_walk(self, spec):
        """The walk stops at its top level; one level deeper finds the same
        patterns at every length up to it, for every depth d <= 6."""
        walks = [_patterns.walk_patterns(spec, d) for d in range(8)]
        for d in range(7):
            for k in range(d + 1):
                assert walks[d][k] == walks[d + 1][k], (spec, d, k)

    def test_walk_patterns_are_valid(self):
        for k, level in _patterns.walk_patterns(as_spec("1ru(ldru)*"), 5).items():
            # bits 1..m only, for the m entries of each tuple
            assert all(0 < mask < 2 << len(f) and not mask & 1 for f, mask in level.items())
            for p in expand_level(level):
                assert p == from_oneline(p.one_line()) and p.length == k
                assert all(type(v) is int for v in p.filled)

    def test_backend_selected(self):
        assert _patterns.BACKEND == "walk"


class TestTupleKeyedReference:
    """The levels keyed by bytes decode to those of the tuple-keyed walk and
    kernel in `tests/tuple_levels.py`, level by level, masks included."""

    @settings(max_examples=15, deadline=None)
    @given(pin_specs(cycle_lengths=(2, 4, 6), max_prefix_letters=3), st.integers(0, 6))
    def test_walk_equals_the_tuple_walk(self, spec, depth):
        """At depth 7, and at a lower depth whose top level ends the walk
        sooner."""
        for d in (depth, 7):
            walk = _patterns.walk_patterns(spec, d)
            reference = tuple_levels.walk_patterns(spec, d)
            assert walk == {k: encode(level) for k, level in reference.items()}, (spec, d)

    @staticmethod
    def _checked_kernel(monkeypatch):
        """Every level the census builds is compared with the tuple kernel
        on the same inputs; returns the lengths compared."""
        kernel = oracle.box_sum_level
        compared = []

        def spy(levels, parts, n):
            level = kernel(levels, parts, n)
            assert level == encode(tuple_levels.box_sum_level(levels, parts, n)), n
            compared.append(n)
            return level

        monkeypatch.setattr(oracle, "box_sum_level", spy)
        return compared

    @pytest.mark.parametrize(
        "route, args",
        [
            (enumerate_pin_permutations, (7,)),
            (enumerate_class_composition, ("1(ldru)*", 7)),
            (enumerate_class_composition, ("2(urul)*", 7)),
            (enumerate_closure_composition, (["241[3]5", "[1]32"], 7)),
        ],
    )
    def test_kernel_equals_the_tuple_kernel(self, monkeypatch, route, args):
        compared = self._checked_kernel(monkeypatch)
        route(*args)
        assert compared == list(range(1, 8))

    @settings(max_examples=10, deadline=None)
    @given(recurrent_specs(cycle_lengths=(2, 4, 6)))
    def test_kernel_equals_the_tuple_kernel_on_random_specs(self, spec):
        with pytest.MonkeyPatch.context() as monkeypatch:
            compared = self._checked_kernel(monkeypatch)
            enumerate_class_composition(spec, 7)
        assert compared == list(range(1, 8)), spec

    @pytest.mark.parametrize(
        "route, args, low, by",
        [
            # the walk lifts the values at or above the new point's rank
            *[
                (enumerate_class_subset, (spec, 6), low, by)
                for spec in ("1(ldru)*", "2(urul)*")
                for low, by in [(0, 1), (0, -1), (1, 0), (-1, 0)]
            ],
            # the kernel's offsets shift every value: only the amount can miss
            (enumerate_class_composition, ("1(ldru)*", 6), 0, 1),
            (enumerate_class_composition, ("1(ldru)*", 6), 0, -1),
            (enumerate_pin_permutations, (6,), 0, 1),
            (enumerate_pin_permutations, (6,), 0, -1),
        ],
    )
    def test_off_by_one_shift_table_is_caught(self, monkeypatch, route, args, low, by):
        """A shift table off by one in its threshold or its amount ends in
        CrossCheckMismatch, or in counts that differ from the GF's."""
        gf = pipeline.class_gf(args[0]) if len(args) == 2 else pipeline.complete_class_gf()
        real = cperm.shift_table

        def faulty(threshold, amount):
            return real(max(threshold + low, 0), amount + by)

        monkeypatch.setattr(cperm, "shift_table", faulty)
        monkeypatch.setattr(_patterns, "shift_table", faulty)
        try:
            counts = route(*args).counts
        except CrossCheckMismatch:
            return
        assert counts != [int(c) for c in coeffs(gf, 6)]


class TestClassCensusObject:
    def test_length_zero_always_counted(self):
        level = encode({pi_map("1").filled: 0b10})
        census = ClassCensus("test", "subset", 2, {0: level, 1: {}, 2: {}})
        assert census.counts[0] == 1
        assert census.perms == {0: {pi_map("1")}, 1: frozenset(), 2: frozenset()}

    def test_members_of_absent_length(self):
        census = enumerate_class_composition("1(ru)*", 3)
        with pytest.raises(KeyError):
            census.members(9)
