"""The Fraction-only polynomial route, kept as the reference for the integer
core in `pinclasses.series` and `pinclasses.pipeline`.

Polynomials are tuples of `Fraction`s, lowest degree first, with no trailing
zeros; every operation is schoolbook arithmetic over the rationals.  The
Euclidean gcd, the square-free part and the Sturm chain are the ones the
package ran before its gcds and Sturm chains moved to primitive
pseudo-remainder sequences over the integers.
"""

from fractions import Fraction


def frac_poly(p) -> tuple[Fraction, ...]:
    """A Poly, or a list of exact numbers, as a tuple of Fractions."""
    cs = [Fraction(c) for c in getattr(p, "coeffs", p)]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return frac_poly(out)


def neg(a):
    return tuple(-c for c in a)


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return frac_poly(out)


def scale(a, c: Fraction):
    return frac_poly([x * c for x in a])


def divmod_(a, b):
    rem = list(a)
    dd = len(b) - 1
    if len(rem) - 1 < dd:
        return (), frac_poly(rem)
    quo = [Fraction(0)] * (len(rem) - dd)
    for k in range(len(rem) - 1 - dd, -1, -1):
        c = rem[k + dd] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return frac_poly(quo), frac_poly(rem)


def monic(a):
    return scale(a, 1 / a[-1]) if a else a


def gcd(a, b):
    """Monic gcd by Euclid's algorithm over the rationals."""
    while b:
        a, b = b, divmod_(a, b)[1]
    return monic(a)


def derivative(a):
    return frac_poly([k * c for k, c in enumerate(a)][1:])


def evaluate(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def square_free(a):
    d = derivative(a)
    if not d:
        return a
    g = gcd(a, d)
    return divmod_(a, g)[0] if len(g) > 1 else a


def sturm_chain(a):
    chain = [a, derivative(a)]
    while chain[-1]:
        chain.append(neg(divmod_(chain[-2], chain[-1])[1]))
    chain.pop()
    return chain


def variations(chain, x: Fraction) -> int:
    signs = [v > 0 for v in (evaluate(p, x) for p in chain) if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def reduced(num, den):
    """num/den in lowest terms with den(0) = 1, as the pair (num, den)."""
    g = gcd(num, den)
    if len(g) > 1:
        num, den = divmod_(num, g)[0], divmod_(den, g)[0]
    return scale(num, 1 / den[0]), scale(den, 1 / den[0])


def series(num, den, n: int) -> list[Fraction]:
    """The first n+1 power-series coefficients of num/den, den(0) != 0."""
    out = []
    for k in range(n + 1):
        c = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c / den[0])
    return out
