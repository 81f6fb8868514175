"""Exact polynomial / rational generating-function arithmetic."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinclasses.errors import (
    DivisionByZero,
    MalformedSyntax,
    NonzeroConstantTerm,
    ParameterOutOfRange,
    PoleAtZero,
)
from pinclasses.series import (
    MAX_PARSE_DEGREE,
    MAX_PARSE_DIGITS,
    Poly,
    RatGF,
    _QUOTE_WIDTH,
    coeffs,
    from_eventually_constant,
    from_eventually_periodic,
    seq,
)

import fraction_poly as fp

small_polys = st.builds(
    Poly,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=6),
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())
unit_constant_polys = nonzero_polys.filter(lambda p: p[0] != 0)


class TestPoly:
    def test_trailing_zeros_normalized(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]) == Poly.zero()
        assert Poly.zero().degree == -1

    def test_parse_round_trip(self):
        texts = ["1 - 2z - z^3", "z", "1", "3z + z^2 - 7z^5", "-z^2 + 4", "1 + (-1/2)z + 3z^2"]
        for text in texts:
            p = Poly.parse(text)
            assert Poly.parse(str(p)) == p

    @given(st.lists(st.fractions(-100, 100, max_denominator=50), max_size=6))
    @settings(max_examples=100)
    def test_parse_round_trip_with_fractions(self, coeffs):
        p = Poly(coeffs)
        assert Poly.parse(str(p)) == p

    def test_parse_known(self):
        assert Poly.parse("1-2z-z^3") == Poly([1, -2, 0, -1])
        assert Poly.parse("z") == Poly([0, 1])
        assert Poly.parse("2z^2") == Poly([0, 0, 2])
        assert Poly.parse("(-1/2)z") == Poly([0, Fraction(-1, 2)])
        assert Poly.parse("1 - (-1/2)z^2") == Poly([1, 0, Fraction(1, 2)])

    def test_parse_rejects_garbage(self):
        with pytest.raises(MalformedSyntax):
            Poly.parse("1 + q")
        with pytest.raises(MalformedSyntax):
            Poly.parse("")
        for zero_denominator in ("1/0", "1-(1/0)z", "z^2 + 3/00z"):
            with pytest.raises(MalformedSyntax, match="zero denominator"):
                Poly.parse(zero_denominator)
        with pytest.raises(MalformedSyntax, match="tokenize"):
            Poly.parse("1++z")

    @pytest.mark.parametrize("text", [None, 5])
    def test_parse_non_text_is_malformed(self, text):
        """Only text parses; anything else is malformed input, not an
        AttributeError."""
        with pytest.raises(MalformedSyntax) as caught:
            Poly.parse(text)
        assert caught.value.exit_code == 2

    @pytest.mark.parametrize("text", ["1 -\t2z", "1-2z\n", "\t1\r\n- 2 z\x0b"])
    def test_parse_ignores_every_whitespace_character(self, text):
        assert Poly.parse(text) == Poly([1, -2])

    def test_parse_degree_bound(self):
        """Exponents up to MAX_PARSE_DEGREE parse, leading zeros and all;
        one above it is refused before a coefficient list is built."""
        assert Poly.parse(f"1 - z^{MAX_PARSE_DEGREE}").degree == MAX_PARSE_DEGREE
        assert Poly.parse(f"1 - z^000{MAX_PARSE_DEGREE}").degree == MAX_PARSE_DEGREE
        for exp in (MAX_PARSE_DEGREE + 1, 99999999999, "9" * 6000):
            with pytest.raises(ParameterOutOfRange, match=f"at most {MAX_PARSE_DEGREE}"):
                Poly.parse(f"1 - 2z^{exp}")

    def test_parse_digit_bound(self):
        """Coefficients of up to MAX_PARSE_DIGITS digits parse and print; a
        longer numerator or denominator, written or reached by adding like
        terms, is malformed input, not a ValueError from int conversion."""
        top = "9" * MAX_PARSE_DIGITS
        p = Poly.parse(f"1 - {top}z + (1/{top})z^2")
        assert p[1] == -int(top) and p[2] == Fraction(1, int(top))
        assert Poly.parse(str(p)) == p
        assert Poly.parse(f"1 - 0000{top}z") == Poly([1, -int(top)])
        for text in (
            f"1 - 1{'0' * 5000}z",
            f"1 - (1/1{'0' * MAX_PARSE_DIGITS})z",
            f"1 - {top}z - {top}z",
            f"1 - (1/{'3' * MAX_PARSE_DIGITS})z - (1/{'7' * MAX_PARSE_DIGITS})z",
        ):
            with pytest.raises(MalformedSyntax, match=f"more than {MAX_PARSE_DIGITS} digits"):
                Poly.parse(text)

    def test_quoted_shortens_only_long_coefficients(self):
        """Error messages quote a polynomial through `quoted`, which forms
        even where `str` would pass CPython's int-text limit."""
        p = Poly.parse("1 - 2z + (1/3)z^2")
        assert p.quoted() == str(p)
        big = Poly([0, -(10**5000), Fraction(1, 10**5000)])
        long = f"<number of more than {MAX_PARSE_DIGITS} digits>"
        assert big.quoted() == f"-{long}z + ({long})z^2"
        with pytest.raises(PoleAtZero, match=f"denominator -{long}z"):
            RatGF(1, big)

    def test_quoted_cuts_only_a_text_past_the_width(self):
        """The longest sum of z^0..z^k whose text fits _QUOTE_WIDTH is
        quoted whole; one term more keeps the leading terms that fit, then
        "...", the last term and the degree."""
        k = max(k for k in range(60) if len(str(Poly([1] * (k + 1)))) <= _QUOTE_WIDTH)
        fits, past = Poly([1] * (k + 1)), Poly([1] * (k + 2))
        assert fits.quoted() == str(fits)
        quoted = past.quoted()
        assert len(quoted) <= _QUOTE_WIDTH < len(str(past))
        head, tail = quoted.split(" ... ")
        assert str(past).startswith(head + " + ") and tail == f"+ z^{k + 1} (degree {k + 1})"

    def test_mul_known(self):
        assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])
        assert Poly([1, 2]) * 3 == Poly([3, 6])

    def test_numbers_on_either_side_of_add_and_sub(self):
        p = Poly([1, 2])
        assert p + 1 == 1 + p == Poly([2, 2])
        assert p - 1 == Poly([0, 2]) == -(1 - p)
        assert p + Fraction(1, 2) == Fraction(1, 2) + p == Poly([Fraction(3, 2), 2])
        assert Fraction(1, 2) - p == Poly([Fraction(-1, 2), -2])
        assert p - 1 - 2 * Poly([0, 1]) == Poly.zero()

    @pytest.mark.parametrize("other", [1.5, "1", None, (1, 2)])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_other_operands_are_not_implemented(self, op, other):
        p = Poly([1, 2])
        assert getattr(p, f"__{op.__name__}__")(other) is NotImplemented
        with pytest.raises(TypeError):
            op(p, other)
        with pytest.raises(TypeError):
            op(other, p)

    def test_divmod_exact(self):
        a = Poly([1, 0, -1])
        q, r = a.divmod(Poly([1, 1]))
        assert q == Poly([1, -1]) and r.is_zero()

    def test_divmod_by_zero(self):
        with pytest.raises(DivisionByZero):
            Poly([1]).divmod(Poly.zero())

    def test_pseudo_remainder_by_zero(self):
        with pytest.raises(DivisionByZero):
            Poly([1, 2]).pseudo_remainder(Poly.zero())

    def test_eval_horner(self):
        p = Poly([1, -2, 0, -1])
        x = Fraction(1, 2)
        assert p(x) == 1 - 2 * x - x**3

    def test_derivative(self):
        assert Poly([5, 3, 0, 2]).derivative() == Poly([3, 0, 6])

    def test_gcd_monic(self):
        a = Poly([1, 1]) * Poly([1, 0, 1])
        b = Poly([1, 1]) * Poly([2, 1])
        g = a.gcd(b)
        assert g == Poly([1, 1])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Poly([0.5])

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=80)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + Poly.zero() == a
        assert a * Poly.one() == a

    @given(small_polys, nonzero_polys)
    @settings(max_examples=80)
    def test_divmod_reconstructs(self, a, b):
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree or r.is_zero()


class TestRatGF:
    def test_cancellation(self):
        f = RatGF(Poly([1, 0, -1]), Poly([1, 1]))
        assert f == RatGF(Poly([1, -1]))
        assert f.is_polynomial()

    def test_den_normalized_to_unit_constant(self):
        f = RatGF(Poly([2]), Poly([2, -2]))
        assert f.den[0] == 1

    def test_pole_at_zero_rejected(self):
        with pytest.raises(PoleAtZero):
            RatGF(Poly.one(), Poly([0, 1]))

    def test_division_by_the_zero_gf(self):
        with pytest.raises(DivisionByZero):
            RatGF(Poly([1]), Poly([1, -2])) / RatGF.zero()

    def test_numbers_and_polys_on_either_side(self):
        f = RatGF(Poly([0, 1]), Poly([1, -1]))  # z/(1 - z)
        one_over = RatGF(Poly([1]), Poly([1, -1]))  # 1/(1 - z)
        assert f + 1 == 1 + f == one_over
        assert f - 1 == RatGF(Poly([-1, 2]), Poly([1, -1]))
        assert 1 - f == RatGF(Poly([1, -2]), Poly([1, -1])) == -(f - 1)
        assert f / 2 == f * Fraction(1, 2) == RatGF(Poly([0, Fraction(1, 2)]), Poly([1, -1]))
        assert Fraction(1, 2) + f == f + Fraction(1, 2)
        assert f - Fraction(1, 2) == -(Fraction(1, 2) - f)
        assert 2 / one_over == RatGF(Poly([2, -2]))
        assert Poly([0, 1]) + f == f + Poly([0, 1]) == f + RatGF(Poly([0, 1]))
        assert Poly([1]) - f == one_over - 2 * f
        assert f - Poly([1]) == f - 1
        assert f * Poly([0, 1]) == Poly([0, 1]) * f == RatGF(Poly([0, 0, 1]), Poly([1, -1]))
        assert f / Poly([0, 1]) == one_over
        assert Poly([1, -1]) / one_over == RatGF(Poly([1, -2, 1]))
        assert sum([f, f]) == 2 * f

    @pytest.mark.parametrize("zero", [0, Fraction(0), Poly(), RatGF.zero()])
    def test_division_by_a_zero_operand(self, zero):
        f = RatGF(Poly([0, 1]), Poly([1, -1]))
        with pytest.raises(DivisionByZero):
            f / zero
        with pytest.raises(DivisionByZero):
            1 / RatGF.zero()

    @pytest.mark.parametrize("other", [1.5, "1", None, (1, 2)])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_other_operands_are_not_implemented(self, op, other):
        f = RatGF(Poly([0, 1]), Poly([1, -1]))
        assert getattr(f, f"__{op.__name__}__")(other) is NotImplemented
        assert getattr(f, f"__r{op.__name__}__")(other) is NotImplemented
        with pytest.raises(TypeError):
            op(f, other)
        with pytest.raises(TypeError):
            op(other, f)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            RatGF(Poly.one(), Poly.zero())

    def test_coeffs_linear_recurrence(self):
        f = RatGF(Poly([1, -1]), Poly([1, -2, 0, -1]))
        assert coeffs(f, 8) == [1, 1, 2, 5, 11, 24, 53, 117, 258]

    def test_str(self):
        f = RatGF(Poly([1, -1]), Poly([1, -2, 0, -1]))
        assert str(f) == "(1 - z)/(1 - 2z - z^3)"

    def test_json_round_trip(self):
        f = RatGF(Poly([1, -1]), Poly([1, -2, 0, -1]))
        assert RatGF.from_json(f.to_json()) == f

    def test_shared_poly_cannot_change_the_gf(self):
        """A RatGF keeps the Poly it was given when nothing cancels; that
        Poly cannot be changed under it."""
        p = Poly([1, -2])
        f = RatGF(Poly([1]), p)
        assert f.den is p
        with pytest.raises(AttributeError):
            p.coeffs = (1, -3)
        assert str(f) == "(1)/(1 - 2z)"
        assert f in {RatGF(Poly([1]), Poly([1, -2]))}

    def test_equal_only_to_its_own_type(self):
        assert Poly([1]) != RatGF(1)
        assert RatGF(1) != Poly([1])
        assert Poly([1, 2]) != (1, 2)
        assert Poly() != ()

    @given(small_polys, unit_constant_polys, small_polys, unit_constant_polys)
    @settings(max_examples=60)
    def test_field_axioms(self, an, ad, bn, bd):
        a = RatGF(an, ad)
        b = RatGF(bn, bd)
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == RatGF.zero() == -a + a
        assert a * 3 == 3 * a == a + a + a and a * Fraction(1, 2) * 2 == a
        if b.num[0] != 0:  # 1/b is a power series only when b(0) != 0
            assert (a / b) * b == a

    @given(small_polys, unit_constant_polys)
    @settings(max_examples=60)
    def test_coefficients_match_evaluation_series(self, n, d):
        f = RatGF(n, d)
        got = f.coeffs(6)
        for k in range(7):
            assert f.coefficient(k) == got[k]


class TestSeriesBuilders:
    def test_eventually_constant_examples(self):
        assert from_eventually_constant([1], 2, 2) == RatGF(
            Poly([0, 1, 1]), Poly([1, -1])
        )
        assert from_eventually_constant([], 0, 1) == RatGF.zero()
        f = from_eventually_constant([3, 6], 6, 3)
        assert coeffs(f, 5) == [0, 3, 6, 6, 6, 6]
        f = from_eventually_constant([1, 1], 2, 3)
        assert f == RatGF(Poly([0, 1, 0, 1]), Poly([1, -1]))

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=5),
        st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=60)
    def test_eventually_constant_round_trip(self, initial, constant):
        start = len(initial) + 1
        f = from_eventually_constant(initial, constant, start)
        got = coeffs(f, start + 4)
        assert got[0] == 0
        assert got[1:start] == initial
        assert got[start:] == [constant] * 5

    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=5),
        st.integers(min_value=-9, max_value=9),
    )
    @settings(max_examples=60)
    def test_eventually_constant_is_a_one_term_period(self, initial, constant):
        start = len(initial) + 1
        assert from_eventually_constant(initial, constant, start) == from_eventually_periodic(
            initial, [constant], start
        )

    def test_builders_reject_bad_arguments_with_typed_errors(self):
        bad_calls = [
            lambda: from_eventually_constant([], 1, 0),
            lambda: from_eventually_constant([1, 2], 1, 2),
            lambda: from_eventually_periodic([], [1], 0),
            lambda: from_eventually_periodic([1], [1], 1),
            lambda: from_eventually_periodic([], [], 1),
        ]
        for call in bad_calls:
            with pytest.raises(ParameterOutOfRange) as caught:
                call()
            assert isinstance(caught.value, ValueError)

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=4),
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
    )
    @settings(max_examples=60)
    def test_eventually_periodic_round_trip(self, initial, block):
        start = len(initial) + 1
        f = from_eventually_periodic(initial, block, start)
        got = coeffs(f, start + 2 * len(block) + 3)
        assert got[1:start] == initial
        for i, value in enumerate(got[start:]):
            assert value == block[i % len(block)]

    def test_seq_identity(self):
        g = RatGF(Poly([0, 1, 0, 1]), Poly([1, -1]))  # O-class g
        f = seq(g)
        assert f == RatGF(Poly([1, -1]), Poly([1, -2, 0, -1]))

    def test_seq_rejects_nonzero_constant(self):
        with pytest.raises(NonzeroConstantTerm):
            seq(RatGF(Poly([1, 1])))

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_seq_satisfies_f_equals_one_plus_gf(self, cs):
        g = RatGF(Poly([0] + cs))
        f = seq(g)
        assert f == RatGF.one() + g * f


# Integers and fractions mixed, integral-valued fractions like 4/2 included.
exact_numbers = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.just(1)),
)
mixed_polys = st.builds(Poly, st.lists(exact_numbers, min_size=0, max_size=7))


def _exact(x) -> bool:
    """An int, or a Fraction that is not integral; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _exact_poly(p: Poly) -> bool:
    return isinstance(p, Poly) and all(_exact(c) for c in p.coeffs)


class TestExactTypes:
    """Every integral coefficient is an int and every other one a Fraction,
    and each result equals its recomputation on the Fraction-only route."""

    def test_integral_fractions_become_ints(self):
        p = Poly([Fraction(4, 2), Fraction(1, 2), Fraction(-3, 1)])
        assert [type(c) for c in p.coeffs] == [int, Fraction, int]
        assert repr(p) == "Poly([2, Fraction(1, 2), -3])"
        assert repr(Poly.parse("1 - 2z - z^3")) == "Poly([1, -2, 0, -1])"
        assert Poly.from_json(["1", "-2/4", "6/3"]).coeffs == (1, Fraction(-1, 2), 2)

    def test_integer_division_stays_exact(self):
        """Dividing int coefficients by an int lead gives a Fraction or an
        int, never a float."""
        q, r = Poly([1, 0, 1]).divmod(Poly([1, 2]))
        assert q.coeffs == (Fraction(-1, 4), Fraction(1, 2)) and r.coeffs == (Fraction(5, 4),)
        assert Poly([3, 6]).monic().coeffs == (Fraction(1, 2), 1)
        assert RatGF(Poly([1]), Poly([2, 1])).den.coeffs == (1, Fraction(1, 2))
        assert RatGF(Poly([1]), Poly([3])).coeffs(2) == [Fraction(1, 3), 0, 0]
        assert RatGF(Poly([1]), Poly([1, 1]))(1) == Fraction(1, 2)
        assert Poly([1, 1])(Fraction(1, 2)) == Fraction(3, 2) and Poly([1, 1])(2) == 3

    @given(mixed_polys, mixed_polys)
    @settings(max_examples=120, deadline=None)
    def test_poly_arithmetic(self, a, b):
        fa, fb = fp.frac_poly(a), fp.frac_poly(b)
        results = [
            (a + b, fp.add(fa, fb)),
            (a - b, fp.sub(fa, fb)),
            (a * b, fp.mul(fa, fb)),
            (a * Fraction(2, 3), fp.scale(fa, Fraction(2, 3))),
            (a.monic(), fp.monic(fa)),
            (a.gcd(b), fp.gcd(fa, fb)),
            (a.derivative(), fp.derivative(fa)),
        ]
        if not b.is_zero():
            (q, r), (fq, fr) = a.divmod(b), fp.divmod_(fa, fb)
            results += [(q, fq), (r, fr)]
        for got, want in results:
            assert _exact_poly(got) and got.coeffs == want
        for x in (0, 2, Fraction(-1, 3)):
            assert _exact(a(x)) and a(x) == fp.evaluate(fa, Fraction(x))

    @given(mixed_polys, mixed_polys.filter(lambda p: p[0] != 0))
    @settings(max_examples=120, deadline=None)
    def test_ratgf_construction_coeffs_and_seq(self, num, den):
        f = RatGF(num, den)
        want_num, want_den = fp.reduced(fp.frac_poly(num), fp.frac_poly(den))
        assert _exact_poly(f.num) and _exact_poly(f.den)
        assert (f.num.coeffs, f.den.coeffs) == (want_num, want_den)
        got = f.coeffs(8)
        assert all(map(_exact, got)) and got == fp.series(want_num, want_den, 8)
        for x in (1, Fraction(1, 7)):
            if f.den(x):
                want = fp.evaluate(want_num, Fraction(x)) / fp.evaluate(want_den, Fraction(x))
                assert _exact(f(x)) and f(x) == want
        g = RatGF(num.shift(1), den)
        s = seq(g)
        g_num, g_den = fp.frac_poly(g.num), fp.frac_poly(g.den)
        assert _exact_poly(s.num) and _exact_poly(s.den)
        assert (s.num.coeffs, s.den.coeffs) == fp.reduced(g_den, fp.sub(g_den, g_num))
        assert all(map(_exact, s.coeffs(8)))

    @given(
        mixed_polys,
        mixed_polys.filter(lambda p: p[0] != 0),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=120, deadline=None)
    def test_coeffs_times_den_is_num_to_order_n(self, num, den, n):
        """Checked by Poly multiplication alone: den times the first n + 1
        coefficients of num/den is num modulo z^(n+1)."""
        got = RatGF(num, den).coeffs(n)
        assert len(got) == n + 1 and all(map(_exact, got))
        product = den * Poly(got)
        assert [product[k] for k in range(n + 1)] == [num[k] for k in range(n + 1)]

    @given(
        st.lists(exact_numbers, min_size=0, max_size=4),
        st.lists(exact_numbers, min_size=1, max_size=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_eventually_periodic_is_head_plus_tail(self, initial, block):
        """The one-fraction builder equals the sum of the head polynomial
        and the periodic tail block·z^s / (1 - z^p)."""
        start, p = len(initial) + 1, len(block)
        head = RatGF(Poly([0, *initial]))
        tail = RatGF(Poly(block).shift(start), Poly([1] + [0] * (p - 1) + [-1]))
        assert from_eventually_periodic(initial, block, start) == head + tail
