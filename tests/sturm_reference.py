"""The integer Sturm-chain route, kept as the reference for the Descartes
bisection in `pinclasses.pipeline.growth_rate`.

The chain is the one the package ran before root isolation moved to
Descartes' rule of signs: the square-free part and each chain member are
primitive pseudo-remainders over the integers, positive multiples of the
members over the rationals, so every sign-variation count is the same as on
`fraction_poly.sturm_chain`.  `sturm_bisection` halves (0, 1/2] by root
counts at dyadic points and checks the final bracket by exact counts, as
`growth_rate` did.
"""

from fractions import Fraction

from pinclasses.pipeline import _square_free
from pinclasses.series import Poly


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_chain(p: Poly) -> list[Poly]:
    """The Sturm chain of p as primitive integer polynomials, each a
    positive multiple of its member over the rationals."""
    chain = [p.primitive(), p.derivative().primitive()]
    while not chain[-1].is_zero():
        chain.append(-chain[-2].pseudo_remainder(chain[-1]).primitive())
    chain.pop()
    return chain


def variations(chain: list[Poly], x: Fraction) -> int:
    return _sign_changes([p(x) for p in chain])


def roots_in(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in the half-open interval (a, b]."""
    return variations(chain, a) - variations(chain, b)


def dyadic_variations(chain: list[Poly], k: int, m: int) -> int:
    """Sign variations of an integer chain at k / 2^m, each member's sign
    read from 2^(m·deg) p(k / 2^m) by integer Horner."""
    values = []
    for p in chain:
        acc = shift = 0
        for c in reversed(p.coeffs):
            acc = acc * k + (c << shift)
            shift += m
        values.append(acc)
    return _sign_changes(values)


def sturm_bisection(poly: Poly, tol: Fraction) -> tuple[Fraction, Fraction] | None:
    """The bracket of the smallest root of poly in (0, 1/2] by Sturm counts:
    (k/2^m, (k+1)/2^m], halved until its width is at most tol and its lower
    end is past 0; None when there is no root there."""
    p = _square_free(poly)
    if p.degree < 1:
        return None
    chain = sturm_chain(p)
    k, m = 0, 1
    var_lo = dyadic_variations(chain, k, m)
    if var_lo - dyadic_variations(chain, k + 1, m) == 0:
        return None
    while k == 0 or tol.denominator > tol.numerator << m:
        k, m = 2 * k, m + 1
        var_mid = dyadic_variations(chain, k + 1, m)
        if var_lo - var_mid < 1:
            k, var_lo = k + 1, var_mid
    lo, hi = Fraction(k, 1 << m), Fraction(k + 1, 1 << m)
    assert roots_in(chain, Fraction(0), lo) == 0 and roots_in(chain, lo, hi) >= 1
    return lo, hi
