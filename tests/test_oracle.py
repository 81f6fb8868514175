"""Brute-force census oracles, independent of the generating-function route."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinclasses import _patterns, oracle
from pinclasses.errors import (
    CensusTooLarge,
    ConvergenceNotReached,
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
from pinclasses.cperm import QUADRANT_POINT, centred_pattern, from_oneline

from strategies import recurrent_specs

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

    def test_empirical_stop_recorded(self):
        census = enumerate_class_subset("1(ru)*", 3)
        assert "empirical stop" in census.description

    def test_longer_segments_scan_only_new_subsets(self, monkeypatch):
        calls = []
        kernel = _patterns.subset_patterns

        def spy(points, origin, n_max, fresh_from=0):
            calls.append((points, fresh_from))
            return kernel(points, origin, n_max, fresh_from=fresh_from)

        monkeypatch.setattr(_patterns, "subset_patterns", spy)
        enumerate_class_subset("1(uldlur)*", 3)
        assert len(calls) >= 2 and calls[0][1] == 0
        for (old, _), (new, fresh_from) in zip(calls, calls[1:]):
            assert fresh_from == len(old)
            # the old points keep their relative order in the longer segment
            assert centred_pattern(new[:fresh_from], new[0]) == centred_pattern(old, old[0])

    def test_unconverged_names_last_length_tried(self, monkeypatch):
        # one segment is never enough to see the counts repeat; the start
        # length for depth 3 of 1(ru)* is 4 * 3 + 3
        monkeypatch.setattr(oracle, "_SEGMENT_GROWTH_CAP", 1)
        with pytest.raises(ConvergenceNotReached, match=r"segment length 15$"):
            enumerate_class_subset("1(ru)*", 3)

    @settings(max_examples=15, deadline=None)
    @given(recurrent_specs(cycle_lengths=(2, 4, 6, 8)))
    def test_agrees_with_composition_on_random_specs(self, spec):
        assert (
            enumerate_class_subset(spec, 4).counts
            == enumerate_class_composition(spec, 4).counts
        ), spec


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

    def test_generators_without_points_rejected(self):
        with pytest.raises(EmptyPermutation):
            enumerate_closure_composition(["[1]"], 3)
        with pytest.raises(ParameterOutOfRange):
            enumerate_closure_composition([], 3)


class TestGuards:
    def test_depth_guards(self):
        with pytest.raises(CensusTooLarge):
            enumerate_class_subset("1(ru)*", 7)
        with pytest.raises(CensusTooLarge):
            enumerate_class_composition("1(ru)*", 11)
        with pytest.raises(CensusTooLarge):
            enumerate_pin_permutations(9)

    def test_negative_depths(self):
        with pytest.raises(ParameterOutOfRange):
            enumerate_class_subset("1(ru)*", -1)
        with pytest.raises(ParameterOutOfRange):
            enumerate_class_composition("1(ru)*", -3)
        with pytest.raises(ParameterOutOfRange):
            enumerate_pin_permutations(-1)
        with pytest.raises(ParameterOutOfRange):
            enumerate_closure_composition(["41[3]52"], -1)

    def test_override_allows_deeper(self):
        census = enumerate_pin_permutations(7, override_guard=True)
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


class TestSubsetKernels:
    def test_backends_agree(self):
        pts = diagram_points("2ruldlurdr")
        origin = pts[0]
        a = _patterns.subset_patterns(pts, origin, 6)
        b = _patterns.subset_patterns_pure(pts, origin, 6)
        assert a == b

    def test_chunked_heads_agree(self, monkeypatch):
        pts = diagram_points("2ruldlurdr")
        origin = pts[0]
        whole = _patterns.subset_patterns(pts, origin, 5, fresh_from=4)
        monkeypatch.setattr(_patterns, "_CHUNK_ROWS", 7)
        assert _patterns.subset_patterns(pts, origin, 5, fresh_from=4) == whole

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
    @given(recurrent_specs(cycle_lengths=(2, 4, 6, 8)), st.data())
    def test_fresh_subsets_complete_a_shorter_segment(self, spec, data):
        pts = diagram_points(spec.initial_word(spec.prefix_length + 2 * spec.cycle_length))
        n_max = data.draw(st.integers(min_value=1, max_value=4), label="n_max")
        s = data.draw(st.integers(min_value=1, max_value=len(pts)), label="split")
        origin = pts[0]
        old = _patterns.subset_patterns(pts[:s], origin, n_max)
        fresh = _patterns.subset_patterns(pts, origin, n_max, fresh_from=s)
        full = _patterns.subset_patterns_pure(pts, origin, n_max)
        assert {k: old[k] | fresh[k] for k in full} == full

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(range(9)), st.data())
    def test_fresh_subsets_of_random_points(self, ys, data):
        # generic point sets share few patterns between subsets, so a subset
        # wrongly skipped or wrongly scanned shows in the result
        from itertools import combinations

        pts = list(enumerate(ys))
        origin = data.draw(st.sampled_from(pts), label="origin")
        s = data.draw(st.integers(min_value=0, max_value=len(pts)), label="split")
        n_max = data.draw(st.integers(min_value=1, max_value=4), label="n_max")
        fresh = set(pts[s:])
        expect = {
            k: {
                centred_pattern([*chosen, origin], origin)
                for chosen in combinations([p for p in pts if p != origin], k)
                if fresh.intersection(chosen) or origin in fresh
            }
            for k in range(1, n_max + 1)
        }
        for kernel in (_patterns.subset_patterns, _patterns.subset_patterns_pure):
            out = kernel(pts, origin, n_max, fresh_from=s)
            assert {k: out[k] for k in expect} == expect, kernel.__name__

    def test_backend_selected(self):
        assert _patterns.BACKEND in ("numpy", "pure")


class TestClassCensusObject:
    def test_length_zero_always_counted(self):
        census = ClassCensus("test", "subset", 2, {0: {pi_map("1")}, 1: set(), 2: set()})
        assert census.counts[0] == 1

    def test_members_of_absent_length(self):
        census = enumerate_class_composition("1(ru)*", 3)
        with pytest.raises(KeyError):
            census.members(9)
