"""Acceptance gate: one test per published claim the package must reproduce.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Every numeric claim is checked at the stated tolerance against
values computed by two independent routes (exact generating functions vs
brute-force censuses).
"""

import math
import time
from fractions import Fraction

import pytest

from pinclasses import pinword, pipeline
from pinclasses.cperm import QUADRANT_POINT
from pinclasses.oracle import (
    census_adjacency,
    centred_uncentred_check,
    enumerate_class_composition,
    enumerate_class_subset,
    enumerate_closure_composition,
    enumerate_pin_permutations,
    property_suite,
)
from pinclasses.pimap import pi_map
from pinclasses.pinword import is_recurrent, left_truncate, parse_pin_spec
from pinclasses.pipeline import (
    amended_G,
    class_gf,
    closure_gf,
    complete_class_gf,
    complete_class_sequence,
    finite_closure_gf,
    finite_closure_sequence,
    growth_rate,
    interior_gf,
    interior_positivity,
    truncation_convergence,
)
from pinclasses.series import Poly, RatGF

RECURRENT_SPECS = ["1(ru)*", "2(urul)*", "1(uldlur)*", "1(ldru)*"]

SINGLE_POINTS = list(QUADRANT_POINT.values())
TWO_POINT_OSCILLATIONS = ["23[1]", "[1]32"]
THREE_SINGLE_POINTS = ["[1]2", "2[1]", "1[2]"]


def gf(num: str, den: str) -> RatGF:
    return RatGF(Poly.parse(num), Poly.parse(den))


@pytest.fixture(scope="module")
def timed_censuses():
    """Every census retained for the oracle and property criteria, and the
    seconds it took to build them."""
    start = time.perf_counter()
    out = {}
    for spec in RECURRENT_SPECS:
        out[f"composition {spec}"] = enumerate_class_composition(spec, 9)
        out[f"subset {spec}"] = enumerate_class_subset(spec, 9)
    out["complete"] = enumerate_pin_permutations(7)
    out["closure of four single points"] = enumerate_closure_composition(
        SINGLE_POINTS, 6
    )
    out["closure of 41[3]52"] = enumerate_closure_composition(["41[3]52"], 6)
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def censuses(timed_censuses):
    return timed_censuses[0]


def _clear_spec_caches():
    """Empty the per-spec lru caches, so a timed call does the full work."""
    for module in (pinword, pipeline):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def test_criterion_1_generating_function_exactness():
    budgets = []

    def timed(label, compute, expect):
        """Time the computation itself, from cold per-spec caches."""
        _clear_spec_caches()
        start = time.perf_counter()
        actual = compute()
        budgets.append((label, time.perf_counter() - start))
        assert actual == expect, label
        return actual

    timed("1(ru)*", lambda: class_gf("1(ru)*"), gf("1 - z", "1 - 2z - z^3"))
    timed("2(urul)*", lambda: class_gf("2(urul)*"), gf("1 - z", "1 - 3z - 2z^4"))
    timed(
        "1(uldlur)*",
        lambda: class_gf("1(uldlur)*"),
        gf("1 - z", "1 - 4z + 2z^2 + z^3 - z^4 - 2z^5 - 3z^6"),
    )
    timed(
        "1(ldru)*",
        lambda: class_gf("1(ldru)*"),
        gf("1 - z", "1 - 5z + 6z^2 - 2z^3 - z^4 - 3z^5"),
    )
    timed(
        "finite closures",
        lambda: (finite_closure_gf(["41[3]52"]), finite_closure_gf(SINGLE_POINTS)),
        (gf("1", "1 - 4z + 2z^2 - z^4"), gf("1", "1 - 4z + 2z^2")),
    )
    complete = timed(
        "complete class",
        complete_class_gf,
        gf(
            "1 - 4z + 5z^2 - 2z^3",
            "1 - 8z + 19z^2 - 26z^3 + 14z^4 - 12z^5 - 8z^6 + 20z^7 - 8z^8",
        ),
    )
    one_minus_z = Poly.parse("1 - z")
    assert complete.num == one_minus_z * one_minus_z * Poly.parse("1 - 2z")
    for label, seconds in budgets:
        assert seconds < 1.0, f"{label} took {seconds:.2f}s"


def test_criterion_2_growth_rates():
    tol = Fraction(1, 10**12)
    cases = [
        (class_gf("1(ru)*"), 2.20557),
        (class_gf("2(urul)*"), 3.06918),
        (class_gf("1(uldlur)*"), 3.36637),
        (class_gf("1(ldru)*"), 3.48806),
        (complete_class_gf(), 5.24112),
        (finite_closure_gf(SINGLE_POINTS), 3.41421),
        (finite_closure_gf(["41[3]52"]), 3.44372),
        (finite_closure_gf(TWO_POINT_OSCILLATIONS), 2.73205),
        (finite_closure_gf(THREE_SINGLE_POINTS), 2.61803),
    ]
    for f, printed in cases:
        result = growth_rate(f, tol=tol)
        assert abs(result.value - printed) < 1e-4, printed
        lo, hi = result.root_interval
        assert hi - lo <= tol

    assert abs(
        growth_rate(finite_closure_gf(SINGLE_POINTS), tol=tol).value
        - (2 + math.sqrt(2))
    ) < 1e-9

    two_quadrants = complete_class_gf((1, 2))
    assert two_quadrants.den == Poly.parse("1 - 2z - 4z^2 - 2z^3 - 8z^4 - 4z^5")
    assert abs(growth_rate(two_quadrants, tol=tol).value - 3.51205) < 1e-4


def test_criterion_3_classification_tables():
    from pinclasses.classify import verify_tables

    start = time.perf_counter()
    reports = verify_tables(16)
    elapsed = time.perf_counter() - start

    assert [r.length for r in reports] == list(range(1, 17))
    assert all(r.table_match for r in reports)
    assert all(r.discrepancies == [] for r in reports)

    dec_counts = {r.length: len(r.decomposable_words) for r in reports}
    assert dec_counts[1] == 0 and dec_counts[2] == 8 and dec_counts[3] == 8
    assert all(dec_counts[n] == 16 for n in range(4, 17))

    group_sizes = {
        r.length: sorted(len(g) for g in r.collision_groups) for r in reports
    }
    assert group_sizes[2] == [2] * 4
    assert group_sizes[3] == [2] * 8
    assert group_sizes[4] == [4] * 2
    assert group_sizes[5] == [2] * 12
    assert all(group_sizes[n] == [2] * 8 for n in range(6, 17))

    assert elapsed < 60.0, f"verify_tables(16) took {elapsed:.1f}s"


def test_criterion_4_oracle_equivalence(timed_censuses):
    censuses, build_seconds = timed_censuses
    start = time.perf_counter()

    for spec in RECURRENT_SPECS:
        f = class_gf(spec)
        expect9 = [f.coefficient(n) for n in range(10)]
        assert censuses[f"composition {spec}"].counts == expect9, spec
        assert censuses[f"subset {spec}"].counts == expect9, spec

    f = complete_class_gf()
    assert censuses["complete"].counts == [f.coefficient(n) for n in range(8)]

    # the budget covers building the censuses as well as comparing them
    elapsed = build_seconds + time.perf_counter() - start
    assert elapsed < 300.0, f"oracle censuses and comparisons took {elapsed:.1f}s"


def test_criterion_5_property_suites(censuses):
    violations = []
    for name, census in censuses.items():
        adjacency = census_adjacency(census)
        violations += [
            f"{name}: {v}"
            for v in property_suite(census, closed=True, adjacency=adjacency)
        ]
    assert violations == []

    # Coefficient bounds on the first 30 terms of every computed G-sequence
    # are enforced at construction; building each one is the check.
    for spec in RECURRENT_SPECS:
        amended_G(spec)
    amended_G("1(ul)*", "all")
    amended_G("1(ul)*", "recurrent")
    complete_class_sequence()
    complete_class_sequence((1, 2))
    finite_closure_sequence(SINGLE_POINTS)
    finite_closure_sequence(["41[3]52"])

    for spec in RECURRENT_SPECS + ["1(ul)*"]:
        assert interior_positivity(spec), spec


def test_criterion_6_recurrence_detection():
    assert is_recurrent("2(ul)*") is True
    assert is_recurrent("1(ul)*") is False

    for text in ("2(urul)*", "1(ldru)*"):
        spec = parse_pin_spec(text)
        base = growth_rate(class_gf(spec))
        for n in range(2, 7):
            truncated = left_truncate(spec, n)
            moved = growth_rate(class_gf(truncated))
            # certified intervals of the same growth rate must overlap
            assert moved.root_interval[0] <= base.root_interval[1]
            assert base.root_interval[0] <= moved.root_interval[1]


def test_criterion_7_uncentred_cross_check(censuses):
    grid_gf = RatGF(Poly.parse("z - 2z^2"), Poly.parse("1 - 4z + 2z^2"))
    out = centred_uncentred_check(censuses["closure of four single points"])
    assert out["violations"] == []
    assert out["uncentred_counts"][1:7] == [grid_gf.coefficient(n) for n in range(1, 7)]

    for name, census in censuses.items():
        assert centred_uncentred_check(census)["violations"] == [], name


def test_criterion_8_truncation_convergence():
    results = truncation_convergence("1(ul)*", 10)
    assert len(results) == 10

    interior = growth_rate(interior_gf("1(ul)*"))
    # the interior growth is itself the limit the truncations converge to
    ilo, ihi = interior.growth_interval
    klo, khi = interior.growth_interval

    for earlier, later in zip(results, results[1:]):
        # weakly decreasing, up to certified-interval width
        assert later.growth_interval[0] <= earlier.growth_interval[1]
    for t, result in enumerate(results, start=1):
        lo_t, hi_t = result.growth_interval
        assert hi_t >= ilo  # never drops below the interior growth
        deviation = max(hi_t - ilo, ihi - lo_t, Fraction(0))
        # evaluating the envelope at the upper end of the limit's certified
        # interval only tightens it, so passing certifies the claimed bound
        envelope = Fraction(16) / (khi - 2) * (Fraction(2) / khi) ** t
        assert deviation <= envelope, (t, float(deviation), float(envelope))
