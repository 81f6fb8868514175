"""Pin words and eventually-periodic pin specs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinclasses.errors import (
    AlignmentViolation,
    EmptyInput,
    IndexOutOfRange,
    MalformedSyntax,
    NonAlternatingCycle,
    ParameterOutOfRange,
)
from pinclasses import pinword
from pinclasses.cli import main as cli_main
from pinclasses.pimap import pi_map, point_quadrant
from pinclasses.pinword import (
    PinSpec,
    PinWord,
    enumerate_pin_factors,
    is_recurrent,
    left_truncate,
    parse_pin_spec,
    parse_pin_word,
    pin_factor,
)
from strategies import pin_specs, pin_words


class TestPinWord:
    def test_parse_and_str(self):
        w = parse_pin_word("2lurdld")
        assert w.numeral == 2
        assert w.letters == "lurdld"
        assert str(w) == "2lurdld"
        assert w.length == 7

    def test_whitespace_and_case(self):
        assert parse_pin_word(" 1 RU ") == PinWord(1, "ru")

    def test_symbol_indexing(self):
        w = parse_pin_word("2lurdld")
        assert w.symbol(1) == "2"
        assert w.symbol(2) == "l"
        assert w.symbol(7) == "d"
        with pytest.raises(IndexOutOfRange):
            w.symbol(8)
        with pytest.raises(IndexOutOfRange):
            w.symbol(0)

    def test_alternation_enforced(self):
        with pytest.raises(AlignmentViolation):
            PinWord(1, "uu")
        with pytest.raises(AlignmentViolation):
            PinWord(1, "ud")
        with pytest.raises(AlignmentViolation):
            PinWord(3, "lrl"[0] + "r")

    def test_bad_numeral(self):
        with pytest.raises(MalformedSyntax):
            PinWord(5, "")

    def test_letters_outside_udlr(self):
        """Built directly, a word's letters are checked as parsing checks
        them."""
        with pytest.raises(MalformedSyntax, match="invalid letters"):
            PinWord(1, "rx")

    def test_numeral_must_be_an_integer(self):
        """Floats and strings are not truncated or parsed into numerals."""
        with pytest.raises(MalformedSyntax):
            PinWord(1.9, "ru")
        with pytest.raises(MalformedSyntax):
            PinWord("1", "ru")
        assert type(PinWord(True).numeral) is int
        with pytest.raises(MalformedSyntax):
            parse_pin_word("0u")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_pin_word(" ")

    @pytest.mark.parametrize(
        "call",
        [lambda: pi_map(1), lambda: pi_map(None), lambda: PinSpec(1, "ru")],
        ids=["pi_map(1)", "pi_map(None)", "PinSpec(1, 'ru')"],
    )
    def test_non_text_input_is_a_parse_error(self, call):
        """A value that is neither a pin word nor text is malformed input."""
        with pytest.raises(MalformedSyntax) as caught:
            call()
        assert caught.value.exit_code == 2

    def test_counts(self):
        def count(n):
            if n == 1:
                return 4
            total = 0
            stack = [(q, "") for q in "1234"]
            while stack:
                num, letters = stack.pop()
                if 1 + len(letters) == n:
                    total += 1
                    continue
                last = letters[-1] if letters else None
                options = (
                    "udlr" if last is None else "ud" if last in "lr" else "lr"
                )
                for c in options:
                    stack.append((num, letters + c))
            return total

        assert count(1) == 4
        for n in range(2, 7):
            assert count(n) == 2 ** (n + 2)

    @given(pin_words())
    @settings(max_examples=60)
    def test_round_trip(self, w):
        assert parse_pin_word(str(w)) == w


class TestPinSpec:
    def test_parse(self):
        s = parse_pin_spec("2ruldlurdr(ul)*")
        assert s.prefix_length == 10
        assert s.cycle_length == 2
        assert str(s) == "2ruldlurdr(ul)*"

    def test_prefix_text_is_coerced(self):
        s = PinSpec("1", "ru")
        assert s.prefix == PinWord(1)
        assert s == parse_pin_spec("1(ru)*")
        assert str(PinSpec("2ru", "ld")) == "2ru(ld)*"

    def test_cycle_alternation_checked(self):
        with pytest.raises(NonAlternatingCycle):
            parse_pin_spec("1(du)*")
        with pytest.raises(NonAlternatingCycle):
            parse_pin_spec("1(udu)*")  # wrap-around u..u clash
        with pytest.raises(NonAlternatingCycle):
            parse_pin_spec("1u(ul)*")  # junction clash

    @pytest.mark.parametrize("text", ["1(r)*", "1(rur)*"])
    def test_cycle_clash_only_at_the_wrap_around(self, text):
        """A cycle that alternates inside but not from its last letter back
        to its first is refused: as a library call, and as exit 2."""
        with pytest.raises(NonAlternatingCycle, match="wrap-around"):
            parse_pin_spec(text)
        assert cli_main(["gf", text]) == 2

    def test_cycle_checked_when_built_directly(self):
        with pytest.raises(MalformedSyntax, match="non-empty"):
            PinSpec("1", "")
        with pytest.raises(MalformedSyntax, match="invalid letters"):
            PinSpec("1", "rx")

    def test_word_without_a_cycle_is_not_a_spec(self, capsys):
        with pytest.raises(MalformedSyntax, match="pin spec"):
            parse_pin_spec("1ru")
        assert cli_main(["gf", "1ru"]) == 2
        assert "pin spec" in capsys.readouterr().err

    def test_positions_and_lengths_below_one(self):
        s = parse_pin_spec("1(ru)*")
        with pytest.raises(IndexOutOfRange):
            s.symbol(0)
        with pytest.raises(IndexOutOfRange):
            s.initial_word(0)
        with pytest.raises(IndexOutOfRange):
            left_truncate(s, 0)
        with pytest.raises(IndexOutOfRange):
            enumerate_pin_factors(s, 0)

    def test_symbols_and_initial_word(self):
        s = parse_pin_spec("1(ru)*")
        assert [s.symbol(t) for t in range(1, 6)] == ["1", "r", "u", "r", "u"]
        assert str(s.initial_word(5)) == "1ruru"

    def test_canonical_equality(self):
        assert parse_pin_spec("1r(ur)*") == parse_pin_spec("1(ru)*")
        assert parse_pin_spec("1(ruru)*") == parse_pin_spec("1(ru)*")
        assert parse_pin_spec("1(ru)*") != parse_pin_spec("1(ur)*")
        assert hash(parse_pin_spec("1r(ur)*")) == hash(parse_pin_spec("1(ru)*"))

    @given(pin_specs())
    @settings(max_examples=60)
    def test_initial_word_is_consistent_with_symbols(self, s):
        w = s.initial_word(9)
        assert str(w) == "".join(s.symbol(t) for t in range(1, 10))


class TestFactors:
    def test_worked_factors(self):
        s = parse_pin_spec("2ruldlurdr(ul)*")
        assert str(pin_factor(s, 5, 9)) == "3lurd"
        assert str(pin_factor(s, 9, 11)) == "4ru"
        assert str(pin_factor(s, 1, 4)) == "2rul"

    def test_factor_index_errors(self):
        s = parse_pin_spec("1(ru)*")
        with pytest.raises(IndexOutOfRange):
            pin_factor(s, 0, 3)
        with pytest.raises(IndexOutOfRange):
            pin_factor(s, 4, 3)

    def test_left_truncate_examples(self):
        s = parse_pin_spec("3rurdlurur(dl)*")
        assert str(left_truncate(s, 4)) == "1dlurur(dl)*"
        assert str(left_truncate(s, 7)) == "2rur(dl)*"
        assert left_truncate(s, 1) is s

    def test_factor_sets_1ul(self):
        s = parse_pin_spec("1(ul)*")
        allf = {str(w) for w in enumerate_pin_factors(s, 2, "all")}
        rec = {str(w) for w in enumerate_pin_factors(s, 2, "recurrent")}
        assert allf == {"1u", "1l", "2u", "2l"}
        assert rec == {"2u", "2l"}

    @pytest.mark.parametrize("text", ["1(ru)*", "1(ul)*", "2ruldlurdr(ul)*"])
    def test_factor_functions_accept_spec_text(self, text):
        spec = parse_pin_spec(text)
        for n in range(1, 6):
            for mode in ("all", "recurrent"):
                assert enumerate_pin_factors(text, n, mode) == enumerate_pin_factors(
                    spec, n, mode
                )
        assert pin_factor(text, 3, 6) == pin_factor(spec, 3, 6)
        assert left_truncate(text, 4) == left_truncate(spec, 4)

    def test_mode_validation(self):
        with pytest.raises(ParameterOutOfRange):
            enumerate_pin_factors(parse_pin_spec("1(ru)*"), 2, "sometimes")

    def test_recurrence(self):
        assert is_recurrent("2(ul)*") is True
        assert is_recurrent("1(ul)*") is False
        assert is_recurrent("1(ru)*") is True
        assert is_recurrent("1(ldru)*") is True

    @given(pin_specs(cycle_lengths=(2, 4, 6), max_prefix_letters=5))
    @settings(max_examples=150, deadline=None)
    def test_recurrence_matches_per_length_definition(self, s):
        """Comparing the factor sets at the longest length decides every
        shorter length too."""
        limit = s.prefix_length + 2 * s.cycle_length + 2
        by_length = all(
            enumerate_pin_factors(s, n, "all") == enumerate_pin_factors(s, n, "recurrent")
            for n in range(1, limit + 1)
        )
        assert is_recurrent(s) == by_length

    def test_recurrence_compared_at_the_window(self, monkeypatch):
        """The one comparison is at |prefix| + 2|cycle| + 2.  On short specs
        the sets first differ by |prefix| + 3, so no spec tried tells a
        shorter window apart; this pins the window that is argued for."""
        lengths = []
        real = pinword.enumerate_pin_factors

        def spy(spec, n, mode="all"):
            lengths.append(n)
            return real(spec, n, mode)

        monkeypatch.setattr(pinword, "enumerate_pin_factors", spy)
        assert is_recurrent("2ru(ldru)*") is False
        assert is_recurrent("1(ldru)*") is True
        assert lengths == [3 + 8 + 2] * 2 + [1 + 8 + 2] * 2

    @given(pin_specs(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_factors_match_brute_windows(self, s, n):
        """Dual route for letters and windows: factor sets from the sliding
        enumerator equal the set of pin_factor(s, i, i+n-1) over a long
        explicit range of starts.  Both read the same start numerals;
        test_factor_numeral_is_point_quadrant checks those."""
        horizon = s.prefix_length + 3 * s.cycle_length + 4
        brute = {pin_factor(s, i, i + n - 1) for i in range(1, horizon + 1)}
        assert enumerate_pin_factors(s, n, "all") == brute

    @given(pin_specs(cycle_lengths=(2, 4, 6), max_prefix_letters=5), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_one_cycle_of_starts_suffices(self, s, n):
        """The factors from starts up to P + C + 1 are those from a second
        cycle of starts too, up to P + 2C + 1, in both modes: a factor
        starting past the prefix recurs C starts on.  pin_factor folds its
        starts past P + C + 1 back by the cycle as well;
        test_factor_numeral_is_point_quadrant checks those numerals against
        fresh diagrams."""
        p, c = s.prefix_length, s.cycle_length
        assert pinword._factor_windows(s) == (p + 2, p + c + 1)
        for mode, first in (("all", 1), ("recurrent", p + 2)):
            brute = {pin_factor(s, i, i + n - 1) for i in range(first, p + 2 * c + 2)}
            assert enumerate_pin_factors(s, n, mode) == brute

    @given(pin_specs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_recurrent_factors_are_tail_factors(self, s, n):
        """Recurrent factors = factors of every left truncation's tail."""
        rec = enumerate_pin_factors(s, n, "recurrent")
        deep = left_truncate(s, s.prefix_length + 2)
        assert enumerate_pin_factors(deep, n, "all") == rec

    @given(pin_specs(cycle_lengths=(2, 4, 6)))
    @settings(max_examples=40, deadline=None)
    def test_truncation_numeral_is_point_quadrant(self, s):
        """The cached start numerals, folded by the cycle past their end,
        give the quadrant of p_n in a fresh diagram."""
        last = s.prefix_length + 4 * s.cycle_length + 1
        for n in range(2, last + 1):
            assert left_truncate(s, n).numeral == point_quadrant(s.initial_word(n), n)

    @given(pin_specs(cycle_lengths=(2, 4, 6)))
    @settings(max_examples=40, deadline=None)
    def test_factor_numeral_is_point_quadrant(self, s):
        """pin_factor's numeral, read from the cached start numerals and
        folded by the cycle past their end, is the quadrant of p_i in a
        fresh diagram of w_{1,i}."""
        last = s.prefix_length + 4 * s.cycle_length + 1  # hi + 3c
        for i in range(1, last + 1):
            assert pin_factor(s, i, i).numeral == point_quadrant(s.initial_word(i), i)

    @given(pin_specs())
    @settings(max_examples=30, deadline=None)
    def test_truncation_preserves_cycle(self, s):
        t = left_truncate(s, s.prefix_length + 2)
        assert sorted(t.cycle) == sorted(s.cycle)
        assert t.prefix_length == 1
