"""Golden CLI output: stdout of each command, byte for byte.

Each case's expected stdout is stored in ``tests/golden/<case>.out``.  The
files record the output of the code before the single-home refactor of the
quadrant rule, coercion helpers, mode dispatch and value types; any change
to them is a change of the CLI's output and must be deliberate.

Each dump case writes the census members with ``--dump-perms`` and compares
that file byte for byte with ``tests/golden/<case>.perms``.  The dump files
record the member sets of the census before the composition census dropped
the pieces that shorter pieces already generate.
"""

from pathlib import Path

import pytest

from pinclasses.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "perm": ["perm", "2lurdld", "1ul", "3"],
    "perm_json": ["perm", "--format", "json", "2lurdld"],
    "perm_json_multi": ["perm", "--format", "json", "1", "4dr"],
    "render_word": ["render", "2lurdld"],
    "render_spec": ["render", "1(ldrdluru)*", "--steps", "16"],
    "render_spec_default": ["render", "2(urul)*"],
    "render_svg": ["render", "1ruld", "--format", "svg"],
    "gf_class": ["gf", "1(ru)*"],
    "gf_class_json": ["gf", "2(urul)*", "--format", "json"],
    "gf_closure": ["gf", "1(ul)*", "--mode", "closure"],
    "gf_closure_json": ["gf", "1(ul)*", "--mode", "closure", "--format", "json"],
    "gf_interior": ["gf", "1(ul)*", "--mode", "interior", "--digits", "6"],
    "gf_interior_json": ["gf", "1ru(ldlu)*", "--mode", "interior", "--format", "json"],
    "growth_closure": ["growth", "1(ul)*"],
    "growth_class_json": ["growth", "1(ldru)*", "--mode", "class", "--format", "json"],
    "growth_interior": ["growth", "1(ul)*", "--mode", "interior", "--tol", "1e-20"],
    "growth_poly": ["growth", "--poly", "1-2z-z^3"],
    "growth_poly_json": ["growth", "--poly", "1-3z-2z^4", "--format", "json", "--digits", "15"],
    "verify_tables": ["verify-tables", "--n-max", "8"],
    "verify_tables_json": ["verify-tables", "--n-max", "8", "--format", "json"],
    "oracle_subset": ["oracle", "1(ru)*", "--n", "5", "--method", "subset"],
    "oracle_subset_json": ["oracle", "1(ul)*", "--n", "4", "--method", "subset", "--format", "json"],
    "oracle_composition": ["oracle", "2(urul)*", "--n", "6", "--method", "composition"],
    "oracle_composition_json": [
        "oracle", "1(ldru)*", "--n", "5", "--method", "composition", "--format", "json",
    ],
    "oracle_representation": ["oracle", "--n", "5", "--method", "representation"],
    "oracle_representation_json": [
        "oracle", "--n", "4", "--method", "representation", "--format", "json",
    ],
    "complete": ["complete", "--quadrants", "1,2,3,4"],
    "complete_json": ["complete", "--format", "json"],
    "complete_two": ["complete", "--quadrants", "1,2"],
    "complete_two_json": ["complete", "--quadrants", "1,2", "--format", "json"],
    "closure_of": ["closure-of", "--perms", "41[3]52"],
    "closure_of_json": ["closure-of", "--perms", "41[3]52", "2[1]", "--format", "json"],
    "closure_of_below_two": ["closure-of", "--perms", "1[2]", "[1]2"],
    "closure_of_below_two_json": ["closure-of", "--perms", "1[2]", "--format", "json"],
}

DUMPS = {
    "oracle_composition_dump": ["oracle", "1(ldru)*", "--n", "5", "--method", "composition"],
    "oracle_representation_dump": ["oracle", "--n", "4", "--method", "representation"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout(case, capsys):
    code = main(list(CASES[case]))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()


@pytest.mark.parametrize("case", sorted(DUMPS))
def test_golden_dump(case, tmp_path, capsys):
    path = tmp_path / f"{case}.perms"
    code = main([*DUMPS[case], "--dump-perms", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith(f"permutations written to {path}\n")
    assert path.read_bytes() == (GOLDEN / f"{case}.perms").read_bytes()
