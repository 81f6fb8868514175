"""Command-line interface: output shapes and exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from fractions import Fraction

import pytest

import pinclasses
from pinclasses.cli import RENDER_MAX_POINTS, main
from pinclasses.series import MAX_PARSE_DEGREE, Poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPerm:
    def test_single_word(self, capsys):
        code, out, err = run(capsys, "perm", "2lurdld")
        assert code == 0
        assert out.strip() == "31586[4]27"

    def test_long_word_in_bounded_time(self, capsys):
        """The point route is linear: 20,000 letters take well under the
        bound, where placing each point by shifting every earlier one took
        about 32 s on a 2-core x86-64."""
        start = time.perf_counter()
        code, out, _ = run(capsys, "perm", "1" + "ru" * 10_000)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert out.count("\n") == 1 and out.count("[") == 1

    def test_multiple_words_tabulated(self, capsys):
        code, out, _ = run(capsys, "perm", "1", "1ul")
        assert code == 0
        assert out.splitlines() == ["1\t[1]2", "1ul\t3[1]42"]

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("2lurdld\n1ul\n"))
        code, out, _ = run(capsys, "perm")
        assert code == 0
        assert out.splitlines() == ["2lurdld\t31586[4]27", "1ul\t3[1]42"]

    def test_json_single(self, capsys):
        code, out, _ = run(capsys, "perm", "--format", "json", "2lurdld")
        assert code == 0
        data = json.loads(out)
        assert data["word"] == "2lurdld"
        assert data["perm"] == "31586[4]27"

    def test_json_multi_is_list(self, capsys):
        code, out, _ = run(capsys, "perm", "--format", "json", "1", "3")
        data = json.loads(out)
        assert [d["perm"] for d in data] == ["[1]2", "1[2]"]

    def test_malformed_word(self, capsys):
        code, out, err = run(capsys, "perm", "1uu")
        assert code == 2
        assert err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_no_words_and_empty_stdin(self, capsys, monkeypatch, fmt):
        """No words at all is a parse error in either format, not an empty
        success."""
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("\n  \n"))
        code, out, err = run(capsys, "perm", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == "error: perm needs pin words, as arguments or on stdin\n"


class TestGf:
    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "gf", "1(ru)*")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "spec: 1(ru)*   mode: class"
        assert "f  = (1 - z)/(1 - 2z - z^3)" in lines
        assert any(line.startswith("growth = 2.20556943") for line in lines)

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "gf", "--format", "json", "1(ru)*")
        data = json.loads(out)
        assert data["mode"] == "class"
        assert data["growth"]["decimal"] == "2.20556943"
        assert data["display"]["G"] == "(z + z^3)/(1 - z)"

    def test_class_mode_rejects_nonrecurrent(self, capsys):
        code, out, err = run(capsys, "gf", "1(ul)*")
        assert code == 3
        assert "closure" in err

    def test_closure_mode_allows_it(self, capsys):
        code, out, _ = run(capsys, "gf", "1(ul)*", "--mode", "closure")
        assert code == 0
        assert "f  = (1 - z)/(1 - 3z - 2z^3)" in out.splitlines()

    def test_digits(self, capsys):
        code, out, _ = run(capsys, "gf", "1(ru)*", "--digits", "4")
        assert any(line.startswith("growth = 2.206") for line in out.splitlines())

    def test_digits_below_one(self, capsys):
        code, out, err = run(capsys, "gf", "1(ru)*", "--digits", "0")
        assert code == 3
        assert "digits" in err and not out

    @pytest.mark.parametrize("command", ["gf", "growth"])
    @pytest.mark.parametrize("mode", ["class", "closure", "interior"])
    def test_spec_over_the_length_cap_fails_fast(self, capsys, command, mode):
        """One symbol over MAX_SPEC_LENGTH exits 3 with one line, before the
        recurrence test or any factor enumeration: the factor walk grows as
        the cube of the spec's length, about 5 s at 256 symbols."""
        from pinclasses.pipeline import MAX_SPEC_LENGTH

        rng = random.Random(7)
        letters = [rng.choice("ud") + rng.choice("lr") for _ in range(MAX_SPEC_LENGTH // 2)]
        spec = "1" + "r" * (MAX_SPEC_LENGTH % 2) + "(" + "".join(letters) + ")*"
        start = time.perf_counter()
        code, out, err = run(capsys, command, spec, "--mode", mode)
        assert time.perf_counter() - start < 1
        assert code == 3 and not out
        assert f"at most {MAX_SPEC_LENGTH}" in err and err.count("\n") == 1


class TestGrowth:
    def test_spec_default_closure_mode(self, capsys):
        code, out, _ = run(capsys, "growth", "1(ul)*")
        assert code == 0
        assert out.splitlines()[0] == "growth = 3.195823345"

    def test_interior_mode(self, capsys):
        code, out, _ = run(capsys, "growth", "1(ul)*", "--mode", "interior")
        assert out.splitlines()[0] == "growth = 2.20556943"

    @pytest.mark.parametrize("mode", ["class", "closure", "interior"])
    def test_mode_function_looked_up_at_call_time(self, capsys, monkeypatch, mode):
        from pinclasses import pipeline

        original = getattr(pipeline, f"{mode}_gf")
        seen = []
        monkeypatch.setattr(
            pipeline, f"{mode}_gf", lambda spec: seen.append(spec) or original(spec)
        )
        code, _, _ = run(capsys, "growth", "1(ru)*", "--mode", mode)
        assert code == 0
        assert seen == ["1(ru)*"]

    def test_poly(self, capsys):
        code, out, _ = run(capsys, "growth", "--poly", "1-2z-z^3")
        assert code == 0
        assert out.splitlines()[0] == "growth = 2.20556943"
        assert "exact interval:" in out

    def test_poly_without_root_in_window(self, capsys):
        code, out, err = run(capsys, "growth", "--poly", "1")
        assert code == 4
        assert "no roots" in err

    def test_malformed_poly(self, capsys):
        code, _, err = run(capsys, "growth", "--poly", "1 - 2q")
        assert code == 2

    @pytest.mark.parametrize("mode", ["class", "closure", "interior"])
    def test_poly_rejects_a_mode(self, capsys, mode):
        code, out, err = run(capsys, "growth", "--poly", "1-2z-z^3", "--mode", mode)
        assert code == 2 and not out
        assert "--mode" in err and err.count("\n") == 1

    @pytest.mark.parametrize("poly", ["1/0", "1-(1/0)z"])
    def test_zero_denominator_poly(self, capsys, poly):
        """A zero denominator is malformed input: exit 2 with one message."""
        code, out, err = run(capsys, "growth", "--poly", poly)
        assert code == 2
        assert "zero denominator" in err and "Traceback" not in err and not out

    def test_tolerance_flag(self, capsys):
        code, out, _ = run(capsys, "growth", "--poly", "1-2z-z^3", "--tol", "0.01")
        assert code == 0
        import re

        m = re.search(r"\[(\S+), (\S+)\]", out)
        lo, hi = Fraction(m.group(1)), Fraction(m.group(2))
        assert hi - lo <= Fraction(1, 100) * 6  # growth interval of a coarse root box

    @pytest.mark.parametrize("tol", ["0.5", "1"])
    def test_coarse_tolerance_succeeds(self, capsys, tol):
        """The bracket is halved past 0 even when (0, 1/2] is within tol."""
        code, out, err = run(capsys, "growth", "--poly", "1-2z-z^3", "--tol", tol)
        assert code == 0 and not err
        assert out.splitlines() == [
            "growth = 3",
            "exact interval: [2, 4]",
            "smallest root of 1 - 2z - z^3 in (1/4, 1/2]",
        ]

    def test_coefficient_beyond_the_digit_bound(self, capsys):
        """CPython refuses int-text conversion past 4300 digits; the parser
        refuses such a coefficient first, with exit 2 and one line."""
        code, out, err = run(capsys, "growth", "--poly", f"1-1{'0' * 5000}z")
        assert code == 2 and not out
        assert err.count("\n") == 1 and "more than 4300 digits" in err

    def test_exponent_beyond_the_degree_bound_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "growth", "--poly", "1-2z^99999999999")
        assert time.perf_counter() - start < 1
        assert code == 3 and not out
        assert err.count("\n") == 1 and f"exponents are at most {MAX_PARSE_DEGREE}" in err

    def test_dense_poly_at_the_degree_bound_in_bounded_time(self, capsys):
        """(1 - 3z) times a cofactor of one-digit coefficients above a
        constant term of 100, which is at least 100 - 9 on [0, 1/2], is a
        dense polynomial of degree MAX_PARSE_DEGREE with growth rate 3."""
        rng = random.Random(5)
        middle = [rng.randint(-9, 9) for _ in range(MAX_PARSE_DEGREE - 2)]
        poly = Poly([1, -3]) * Poly([100, *middle, rng.randint(1, 9)])
        assert poly.degree == MAX_PARSE_DEGREE and poly.coeffs.count(0) < 10
        start = time.perf_counter()
        code, out, err = run(capsys, "growth", "--poly", str(poly))
        assert time.perf_counter() - start < 5
        assert code == 0 and not err
        lines = out.splitlines()
        assert lines[0] == "growth = 3"
        lo, hi = (Fraction(x) for x in lines[1].removeprefix("exact interval: [")[:-1].split(", "))
        assert lo < 3 < hi and hi - lo < Fraction(1, 10**10)

    def test_thirty_digits_are_exact(self, capsys):
        """The decimal is rounded from the exact midpoint, not from a float,
        so every digit the interval fixes is right: the growth rate of
        1 - 2z - z^3, the real root of x^3 - 2x^2 - 1, is
        2.205569430400590311702028617783823...."""
        code, out, err = run(
            capsys, "growth", "--poly", "1-2z-z^3", "--tol", "1e-40", "--digits", "30"
        )
        assert code == 0 and not err
        assert out.splitlines()[0] == "growth = 2.20556943040059031170202861778"

    def test_growth_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "growth", "--poly", f"1 - {10**400}z")
        assert code == 4 and not out
        assert err.count("\n") == 1 and "float range" in err

    @pytest.mark.parametrize("tol", ["0", "-0.001"])
    def test_nonpositive_tolerance_fails_fast(self, capsys, tol):
        code, out, err = run(capsys, "growth", "--poly", "1-2z-z^3", "--tol", tol)
        assert code == 3
        assert "tolerance" in err and not out

    @pytest.mark.parametrize("tol", ["1e-1001", "1e-10000", "1e-999999999"])
    def test_tolerance_below_floor_fails_fast(self, capsys, tol):
        """A tolerance below 1e-1000 would make the bisection run for
        minutes; it is refused with one line, before any work."""
        code, out, err = run(capsys, "growth", "--poly", "1-2z-z^3", "--tol", tol)
        assert code == 3
        assert err.count("\n") == 1 and "tolerance" in err and "Traceback" not in err
        assert not out

    def test_tolerance_at_1e_300_succeeds(self, capsys):
        code, out, _ = run(capsys, "growth", "--poly", "1-2z-z^3", "--tol", "1e-300")
        assert code == 0
        assert out.splitlines()[0] == "growth = 2.20556943"

    @pytest.mark.parametrize("tol", ["inf", "nan", "sNaN"])
    def test_non_finite_tolerance(self, capsys, tol):
        code, _, err = run(capsys, "growth", "--poly", "1-2z-z^3", "--tol", tol)
        assert code == 2
        assert "tolerance" in err

    def test_malformed_tolerance(self, capsys):
        code, _, err = run(capsys, "growth", "--poly", "1-2z-z^3", "--tol", "abc")
        assert code == 2
        assert "tolerance" in err

    def test_digits_below_one(self, capsys):
        code, out, err = run(capsys, "growth", "--poly", "1-2z-z^3", "--digits", "0")
        assert code == 3
        assert "digits" in err and not out

    @pytest.mark.parametrize("digits", ["1001", "10000000000000000000"])
    def test_digits_above_the_bound_fail_fast(self, capsys, digits):
        """The decimal is divided out at ``digits`` precision, so an
        unbounded request would allocate that many digits."""
        start = time.perf_counter()
        code, out, err = run(capsys, "growth", "--poly", "1-2z-z^3", "--digits", digits)
        assert time.perf_counter() - start < 1
        assert code == 3 and not out
        assert err.count("\n") == 1 and "digits must be at most 1000" in err

    def test_needs_spec_or_poly(self, capsys):
        code, _, err = run(capsys, "growth")
        assert code == 2

    def test_spec_and_poly_rejected(self, capsys):
        """A spec next to --poly would be ignored, so the pair is refused."""
        code, out, err = run(capsys, "growth", "1(ru)*", "--poly", "1-2z-z^3")
        assert code == 2
        assert err == "error: growth takes a spec or --poly, not both\n"
        assert not out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "growth", "--format", "json", "1(ru)*")
        data = json.loads(out)
        assert data["growth"]["decimal"] == "2.20556943"
        assert data["growth"]["polynomial"] == "1 - 2z - z^3"
        assert data["mode"] == "closure"


class TestVerifyTables:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "--n-max", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all("match" in line for line in lines)

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "--n-max", "4", "--format", "json")
        data = json.loads(out)["reports"]
        assert [d["length"] for d in data] == [1, 2, 3, 4]
        assert all(d["table_match"] for d in data)

    def test_bound_below_two(self, capsys):
        code, out, err = run(capsys, "verify-tables", "--n-max", "1")
        assert code == 3
        assert "n_max" in err and not out

    def test_bound_above_guard(self, capsys):
        """--n-max 30 would hold 2^32 images; above 16 it exits 3 at once."""
        for n_max in ("17", "30"):
            code, out, err = run(capsys, "verify-tables", "--n-max", n_max)
            assert code == 3
            assert err == f"error: verify-tables depth {n_max} exceeds the guard 16\n"
            assert not out


class TestOracle:
    @pytest.mark.parametrize("method", ["subset", "composition"])
    def test_spec_over_the_length_cap_fails_fast(self, capsys, method):
        """A spec eight times MAX_SPEC_LENGTH exits 3 with one line, before
        the census or the recurrence test, which take seconds on it."""
        from pinclasses.pipeline import MAX_SPEC_LENGTH

        rng = random.Random(7)
        letters = [rng.choice("ud") + rng.choice("lr") for _ in range(4 * MAX_SPEC_LENGTH)]
        spec = "1(" + "".join(letters) + ")*"
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", spec, "--n", "2", "--method", method)
        assert time.perf_counter() - start < 1
        assert code == 3 and not out
        assert f"at most {MAX_SPEC_LENGTH}" in err and err.count("\n") == 1

    def test_composition_match(self, capsys):
        code, out, _ = run(capsys, "oracle", "1(ru)*", "--n", "5", "--method", "composition")
        assert code == 0
        assert "match: yes" in out
        assert "counts: [1, 1, 2, 5, 11, 24]" in out

    def test_subset_match(self, capsys):
        code, out, _ = run(capsys, "oracle", "1(ru)*", "--n", "4", "--method", "subset")
        assert code == 0
        assert "match: yes" in out

    def test_representation(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "4", "--method", "representation")
        assert code == 0
        assert "counts: [1, 4, 18, 92, 484]" in out

    def test_representation_rejects_a_spec(self, capsys):
        code, out, err = run(
            capsys, "oracle", "1(ru)*", "--n", "4", "--method", "representation"
        )
        assert code == 2
        assert out == ""
        assert "the representation oracle takes no spec" in err

    def test_dump_perms(self, capsys, tmp_path):
        path = tmp_path / "perms.txt"
        code, out, _ = run(
            capsys, "oracle", "1(ru)*", "--n", "3", "--method", "composition",
            "--dump-perms", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 1 + 2 + 5
        assert "[1]" in lines

    def test_counts_build_no_members(self, capsys, tmp_path, monkeypatch):
        """The census keeps one-line keys with origin masks; only a dump of
        the members builds them, and the dump's bytes are those of the
        per-member census (SHA-256 of its 2796 lines, one per member)."""
        from pinclasses import cperm, oracle

        calls = []
        expand = cperm.expand_level

        def spy(level):
            calls.append(len(level))
            return expand(level)

        monkeypatch.setattr(cperm, "expand_level", spy)
        monkeypatch.setattr(oracle, "expand_level", spy)
        argv = ["oracle", "1(ldru)*", "--n", "6", "--method", "composition", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["match"] is True
        assert calls == []
        path = tmp_path / "perms.txt"
        code, dumped, _ = run(capsys, *argv, "--dump-perms", str(path))
        assert code == 0 and dumped == out
        assert len(calls) == 7
        data = path.read_bytes()
        assert data.count(b"\n") == 1 + 4 + 14 + 48 + 165 + 572 + 1992
        assert hashlib.sha256(data).hexdigest() == (
            "ce31d2f11feaf1725f5b2c686448508dfd4fd2c932558eb45d4fbc3bce26bf44"
        )

    def test_dump_perms_unwritable_path(self, capsys, tmp_path, monkeypatch):
        def no_census(*args, **kwargs):
            raise AssertionError("the census ran before the output path was opened")

        monkeypatch.setattr("pinclasses.oracle.enumerate_class_composition", no_census)
        path = tmp_path / "missing" / "x.txt"
        code, out, err = run(
            capsys, "oracle", "1(ru)*", "--n", "3", "--method", "composition",
            "--dump-perms", str(path),
        )
        assert code == 3
        assert out == ""
        assert str(path) in err

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "1(ru)*", "--n", "4", "--method", "composition",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["counts"] == [1, 1, 2, 5, 11]
        assert data["match"] is True

    def test_composition_rejects_nonrecurrent(self, capsys):
        code, _, err = run(capsys, "oracle", "1(ul)*", "--n", "3", "--method", "composition")
        assert code == 3

    def test_negative_depth(self, capsys):
        code, out, err = run(capsys, "oracle", "1(ru)*", "--n", "-3", "--method", "composition")
        assert code == 3
        assert "depth" in err
        assert "match" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["1(ru)*", "--method", "subset"],
            ["1(ru)*", "--method", "composition"],
            ["--method", "representation"],
        ],
    )
    def test_depth_zero_refused_before_any_census(self, capsys, monkeypatch, argv):
        """A depth-0 census compares only the empty permutation, 1 = 1, so
        the CLI refuses it rather than print a vacuous match."""
        from pinclasses import oracle

        def no_census(*args, **kwargs):
            raise AssertionError("a census ran")

        for name in ("enumerate_class_subset", "enumerate_class_composition",
                     "enumerate_pin_permutations"):
            monkeypatch.setattr(oracle, name, no_census)
        code, out, err = run(capsys, "oracle", *argv, "--n", "0")
        assert code == 3
        assert out == ""
        assert err == "error: oracle depth --n must be at least 1, got 0\n"

    def test_guard_exit(self, capsys):
        code, _, err = run(capsys, "oracle", "1(ru)*", "--n", "11", "--method", "subset")
        assert code == 3
        assert "guard" in err


class TestComplete:
    def test_all_quadrants(self, capsys):
        code, out, _ = run(capsys, "complete")
        assert code == 0
        assert "growth = 5.241124652" in out

    def test_two_quadrants(self, capsys):
        code, out, _ = run(capsys, "complete", "--quadrants", "1,2")
        assert code == 0
        assert "growth = 3.512049606" in out
        assert "1 - 2z - 4z^2 - 2z^3 - 8z^4 - 4z^5" in out

    def test_opposite_quadrants(self, capsys):
        code, _, err = run(capsys, "complete", "--quadrants", "1,3")
        assert code == 3

    def test_quadrant_out_of_range(self, capsys):
        code, _, err = run(capsys, "complete", "--quadrants", "1,5")
        assert code == 3

    def test_digits_below_one(self, capsys):
        code, out, err = run(capsys, "complete", "--digits", "0")
        assert code == 3
        assert "digits" in err and not out

    def test_bad_quadrant_literal(self, capsys):
        code, _, err = run(capsys, "complete", "--quadrants", "1,alpha")
        assert code == 2


class TestClosureOf:
    def test_named_generators(self, capsys):
        code, out, _ = run(capsys, "closure-of", "--perms", "41[3]52")
        assert code == 0
        assert "f = (1)/(1 - 4z + 2z^2 - z^4)" in out
        assert "growth = 3.443718375" in out

    def test_below_two(self, capsys):
        code, out, _ = run(capsys, "closure-of", "--perms", "[1]2", "1[2]")
        assert code == 0
        assert "below 2" in out

    def test_digits_below_one_is_not_below_two(self, capsys):
        code, out, err = run(capsys, "closure-of", "--perms", "41[3]52", "--digits", "0")
        assert code == 3
        assert "below 2" not in out

    def test_malformed_perm(self, capsys):
        code, _, err = run(capsys, "closure-of", "--perms", "4[1]52")
        assert code == 2

    def test_bare_origin_is_a_precondition(self, capsys):
        code, out, err = run(capsys, "closure-of", "--perms", "[1]")
        assert code == 3
        assert out == ""
        assert "bare origin" in err


class TestRender:
    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "render", "1ru", "--format", "ascii")
        assert code == 0
        assert "o" in out

    def test_svg_to_file(self, capsys, tmp_path):
        path = tmp_path / "diagram.svg"
        code, out, _ = run(capsys, "render", "2lurdld", "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg")

    def test_out_to_unwritable_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "diagram.svg"
        code, out, err = run(capsys, "render", "2lurdld", "--out", str(path))
        assert code == 3
        assert out == ""
        assert str(path) in err

    def test_spec_needs_steps_or_default(self, capsys):
        code, out, _ = run(capsys, "render", "1(ul)*", "--format", "ascii", "--steps", "6")
        assert code == 0

    def test_word_truncation(self, capsys):
        code, out, _ = run(capsys, "render", "1ururu", "--steps", "3", "--format", "ascii")
        assert code == 0
        # 3 placed points plus the origin
        assert sum(ch.isdigit() for ch in out) + out.count("o") == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["1(ru)*", "--steps", "1000000"],
            ["1(ru)*", "--steps", str(RENDER_MAX_POINTS + 1)],
            ["1" + "ru" * 2500],
            ["1" + "ru" * 2500, "--steps", "100000"],
        ],
        ids=["spec-steps", "spec-one-past", "long-word", "long-word-steps"],
    )
    def test_too_many_points_fail_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "render", *argv)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and f"at most {RENDER_MAX_POINTS} points" in err

    def test_points_at_the_bound(self, capsys):
        code, out, _ = run(capsys, "render", "1" + "ru" * 2500, "--steps", str(RENDER_MAX_POINTS))
        assert code == 0
        assert len(out.splitlines()) == RENDER_MAX_POINTS + 1

    def test_help_names_the_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["render", "--help"])
        assert f"at most {RENDER_MAX_POINTS} points" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["1ru", "1(ul)*"])
    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_steps_below_one(self, capsys, text, steps):
        code, out, err = run(capsys, "render", text, "--steps", steps)
        assert code == 3
        assert out == ""
        assert "--steps" in err


class TestTopLevel:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonexistent"])
        assert exc.value.code == 2

    def test_bare_invocation_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestImport:
    def test_cli_import_loads_no_numpy(self):
        """The package has no runtime dependencies: a fresh interpreter that
        imports the CLI has not imported numpy.  Nor has it imported
        `dataclasses` or `inspect`, which alone cost about 11 ms of every
        command's start-up.  Modules the interpreter loaded before the
        import (a site hook's, say) do not count."""
        src = str(Path(pinclasses.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys; bare = set(sys.modules); import pinclasses.cli; "
            "print(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - bare)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
