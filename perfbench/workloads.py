"""Seeded op lists for the three workloads, and the second-route checks.

A workload is `ops(seed)` -> (argv lists, context), plus
`check(ops, outputs, context)` -> {op index: failure message}.  The
program only ever sees the generated argv.  Checks run outside the timed
region, on the parsed JSON output of every op.
"""

from __future__ import annotations

import random
from fractions import Fraction

from pinclasses.oracle import enumerate_class_composition
from pinclasses.pinword import is_recurrent, parse_pin_spec
from pinclasses.series import Poly, RatGF

TOL = Fraction(1, 10**12)
HEADLINE = ("1(ru)*", "2(urul)*", "1(uldlur)*", "1(ldru)*")
SINGLE_POINTS = ("[1]2", "2[1]", "1[2]", "[2]1")

# Published generating functions (numerator, denominator; None where only
# the denominator is published) and growth rates, as pinned by
# tests/test_acceptance.py.
PUBLISHED = {
    ("gf", "1(ru)*"): ("1 - z", "1 - 2z - z^3", 2.20557),
    ("gf", "2(urul)*"): ("1 - z", "1 - 3z - 2z^4", 3.06918),
    ("gf", "1(uldlur)*"): ("1 - z", "1 - 4z + 2z^2 + z^3 - z^4 - 2z^5 - 3z^6", 3.36637),
    ("gf", "1(ldru)*"): ("1 - z", "1 - 5z + 6z^2 - 2z^3 - z^4 - 3z^5", 3.48806),
    ("complete", "1,2,3,4"): (
        "1 - 4z + 5z^2 - 2z^3",
        "1 - 8z + 19z^2 - 26z^3 + 14z^4 - 12z^5 - 8z^6 + 20z^7 - 8z^8",
        5.24112,
    ),
    ("complete", "1,2"): (None, "1 - 2z - 4z^2 - 2z^3 - 8z^4 - 4z^5", 3.51205),
    ("closure-of", "41[3]52"): ("1", "1 - 4z + 2z^2 - z^4", 3.44372),
    ("closure-of", " ".join(SINGLE_POINTS)): ("1", "1 - 4z + 2z^2", 3.41421),
}

# verify-tables: decomposable-word counts and collision-group sizes per
# length, from the closed-form tables (tests/test_acceptance.py).
TABLES_N_MAX = 12


def _expected_tables(n: int) -> tuple[int, list[int]]:
    decomposables = {1: 0, 2: 8, 3: 8}.get(n, 16)
    groups = {1: [], 2: [2] * 4, 3: [2] * 8, 4: [4] * 2, 5: [2] * 12}.get(n, [2] * 8)
    return decomposables, groups


# -- seeded spec generation -------------------------------------------------


def _letters(rng: random.Random, axis: str, count: int) -> tuple[str, str]:
    """`count` random letters alternating axes from `axis`; returns the
    letters and the axis the next letter must take."""
    out = []
    for _ in range(count):
        out.append(rng.choice(axis))
        axis = "lr" if axis == "ud" else "ud"
    return "".join(out), axis


def _balanced_cycle(rng: random.Random, axis: str, cycle_len: int) -> str:
    """Alternating cycle that starts on `axis` and uses the two letters of
    each axis equally often (up to one letter when an axis gets an odd
    count).  The diagram then grows on all four sides, which keeps the
    origin inside it: a cycle heavy in one direction pushes the origin to
    an edge and costs far less, so the seed would move the cost."""
    half = cycle_len // 2
    by_axis = {}
    for ax in ("ud", "lr"):
        letters = [ax[0], ax[1]] * (half // 2) + [rng.choice(ax)] * (half % 2)
        rng.shuffle(letters)
        by_axis[ax] = letters
    other = "lr" if axis == "ud" else "ud"
    return "".join(a + b for a, b in zip(by_axis[axis], by_axis[other]))


def random_spec(rng: random.Random, prefix_len: int, cycle_len: int) -> str:
    """A spec with exactly these prefix and cycle lengths in normal form.

    Letters alternate axes inside the prefix, across the prefix-cycle
    junction and (the cycle length being even) at the wrap-around.  Draws
    whose normal form is shorter -- a cycle that is a power of a shorter
    one, or prefix letters that fold into the cycle -- are redrawn, so the
    lengths that drive the cost are the stated ones.
    """
    while True:
        prefix, axis = _letters(rng, rng.choice(("ud", "lr")), prefix_len)
        cycle = _balanced_cycle(rng, axis, cycle_len)
        text = f"{rng.randint(1, 4)}{prefix}({cycle})*"
        _, pre, cyc = parse_pin_spec(text).canonical_key()
        if len(pre) == prefix_len and len(cyc) == cycle_len:
            return text


def random_recurrent_spec(rng: random.Random, cycle_len: int) -> str:
    """Empty-prefix spec drawn until recurrent (about 1 in 4 draws is)."""
    while True:
        text = random_spec(rng, 0, cycle_len)
        if is_recurrent(text):
            return text


# -- output checks ------------------------------------------------------------


def _gf(num: str | None, den: str) -> tuple[Poly | None, Poly]:
    return (Poly.parse(num) if num else None), Poly.parse(den)


def _growth_problem(growth: dict) -> str | None:
    lo, hi = (Fraction(x) for x in growth["root_interval"])
    if not 0 < lo < hi or hi - lo > TOL:
        return f"root interval [{lo}, {hi}] is not within tol {TOL}"
    return None


def _interval(growth: dict) -> tuple[Fraction, Fraction]:
    lo, hi = (Fraction(x) for x in growth["interval"])
    return lo, hi


def _published_problem(key, payload: dict) -> str | None:
    num, den, rate = PUBLISHED[key]
    f = RatGF.from_json(payload["f"])
    want_num, want_den = _gf(num, den)
    if f.den != want_den or (want_num is not None and f.num != want_num):
        return f"f = {f}, published ({num})/({den})"
    lo, hi = _interval(payload["growth"])
    if abs(float((lo + hi) / 2) - rate) >= 1e-4:
        return f"growth {float((lo + hi) / 2)} differs from published {rate}"
    return _growth_problem(payload["growth"])


def _anchor_ops() -> list[tuple[list[str], tuple]]:
    ops = [(["gf", s, "--format", "json"], ("gf", s)) for s in HEADLINE]
    ops += [
        (["complete", "--quadrants", q, "--format", "json"], ("complete", q))
        for q in ("1,2,3,4", "1,2")
    ]
    ops += [
        (["closure-of", "--perms", *perms.split(), "--format", "json"], ("closure-of", perms))
        for perms in ("41[3]52", " ".join(SINGLE_POINTS))
    ]
    return ops


# -- specs ------------------------------------------------------------------

SPEC_CYCLES = (2, 4, 8, 12, 16, 20)
COMPOSITION_CHECK_N = 6


def specs_ops(seed: int):
    """Anchors, then per random spec: gf (class if recurrent, else
    closure) and growth --mode interior.  Prefix lengths 0-3 repeat in a
    fixed order so the seed moves letters, not sizes."""
    rng = random.Random(seed)
    ops, context = [], {"anchors": {}, "specs": []}
    for argv, key in _anchor_ops():
        context["anchors"][len(ops)] = key
        ops.append(argv)
    for i, cycle_len in enumerate(SPEC_CYCLES):
        spec = random_spec(rng, i % 4, cycle_len)
        recurrent = is_recurrent(spec)
        mode = "class" if recurrent else "closure"
        context["specs"].append((spec, recurrent, len(ops), len(ops) + 1))
        ops.append(["gf", spec, "--mode", mode, "--format", "json"])
        ops.append(["growth", spec, "--mode", "interior", "--tol", "1e-12", "--format", "json"])
    return ops, context


def specs_check(ops, outputs, context) -> dict[int, str]:
    bad: dict[int, str] = {}
    for i, key in context["anchors"].items():
        problem = _published_problem(key, outputs[i])
        if problem:
            bad[i] = problem
    for spec, recurrent, gf_i, growth_i in context["specs"]:
        whole, interior = outputs[gf_i], outputs[growth_i]
        for i, payload in ((gf_i, whole), (growth_i, interior)):
            problem = _growth_problem(payload["growth"])
            if problem:
                bad[i] = problem
        if recurrent:
            expect = enumerate_class_composition(spec, COMPOSITION_CHECK_N).counts
            got = [int(c) for c in RatGF.from_json(whole["f"]).coeffs(COMPOSITION_CHECK_N)]
            if got != expect:
                bad[gf_i] = f"{spec}: class gf coefficients {got}, composition census {expect}"
        if _interval(interior["growth"])[0] > _interval(whole["growth"])[1]:
            bad[growth_i] = f"{spec}: interior growth interval lies above the closure's"
    return bad


# -- tables -----------------------------------------------------------------


def tables_ops(seed: int):
    """One exhaustive re-derivation; deterministic, so the seed is unused."""
    return [["verify-tables", "--n-max", str(TABLES_N_MAX), "--jobs", "1", "--format", "json"]], {}


def tables_check(ops, outputs, context) -> dict[int, str]:
    reports = outputs[0]["reports"]
    if [r["length"] for r in reports] != list(range(1, TABLES_N_MAX + 1)):
        return {0: "reports do not cover every length"}
    for r in reports:
        decomposables, groups = _expected_tables(r["length"])
        got_groups = sorted(len(g) for g in r["collision_groups"])
        if not r["table_match"] or r["discrepancies"]:
            return {0: f"n={r['length']}: tables do not match: {r['discrepancies']}"}
        if len(r["decomposable_words"]) != decomposables or got_groups != groups:
            return {0: f"n={r['length']}: {len(r['decomposable_words'])} decomposables, groups {got_groups}"}
    return {}


# -- census -----------------------------------------------------------------

SUBSET_N = 5
COMPOSITION_N = 8
REPRESENTATION_N = 7
# (cycle length, composition depth, subset census too?) of the seeded
# recurrent specs
SEEDED_CENSUS = ((2, 9, True), (4, 8, False))


def census_ops(seed: int):
    """Subset and composition censuses of the headline specs and of seeded
    recurrent short-cycle specs, plus one representation census."""
    rng = random.Random(seed)
    seeded = [(random_recurrent_spec(rng, c), n, subset) for c, n, subset in SEEDED_CENSUS]
    ops = []
    for spec in HEADLINE:
        ops.append(["oracle", spec, "--n", str(SUBSET_N), "--method", "subset", "--format", "json"])
    for spec in HEADLINE:
        ops.append(["oracle", spec, "--n", str(COMPOSITION_N), "--method", "composition", "--format", "json"])
    for spec, depth, subset in seeded:
        if subset:
            ops.append(["oracle", spec, "--n", str(SUBSET_N), "--method", "subset", "--format", "json"])
        ops.append(["oracle", spec, "--n", str(depth), "--method", "composition", "--format", "json"])
    ops.append(["oracle", "--n", str(REPRESENTATION_N), "--method", "representation", "--format", "json"])
    return ops, {}


def census_check(ops, outputs, context) -> dict[int, str]:
    bad = {}
    for i, (argv, payload) in enumerate(zip(ops, outputs)):
        depth = int(argv[argv.index("--n") + 1])
        if payload.get("match") is not True or len(payload["counts"]) != depth + 1:
            bad[i] = f"census does not match its reference: {payload}"
    return bad


WORKLOADS = {
    "specs": (specs_ops, specs_check),
    "tables": (tables_ops, tables_check),
    "census": (census_ops, census_check),
}
