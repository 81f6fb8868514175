"""Exact univariate polynomials and rational generating functions.

A ``Poly`` stores ascending coefficients with no trailing zeros, each an
``int`` when it is integral and a ``fractions.Fraction`` otherwise; there is
no floating point anywhere in this module, and every true division goes
through one exact helper, `_div`.  Greatest common divisors run as a
primitive pseudo-remainder sequence over the integers.  A ``RatGF`` is a
reduced fraction of two polynomials whose denominator has constant term 1,
so its power-series coefficients follow from a recurrence with no division.
Both are immutable values on `_value.Value`.  One builder,
`from_eventually_periodic`, turns an eventually periodic counting sequence
into its generating function, one fraction over 1 - z^p for a period p; an
eventually constant one is the case of a one-term period.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from ._value import Value
from .errors import (
    DivisionByZero,
    MalformedSyntax,
    NonzeroConstantTerm,
    ParameterOutOfRange,
    PoleAtZero,
)


# `Poly.parse` bounds its input so that `growth --poly` always ends in
# seconds and every parsed coefficient prints: exponents are at most
# MAX_PARSE_DEGREE, and each coefficient's numerator and denominator have at
# most MAX_PARSE_DIGITS digits, CPython's default limit for int-text
# conversion.  Through `growth_rate`, on a shared 2-core x86-64 host with
# CPython 3.11.7, a dense polynomial with random one-digit coefficients takes
# 2 ms at degree 128 and 6 ms at degree 256.  A repeated smallest root sends
# it to the square-free part's gcd, which sets the degree bound: times a
# double root, such a cofactor takes 0.19 s at degree 128 and 2.4 s at 256,
# and one with 20-digit coefficients 6.1 s at degree 128.
MAX_PARSE_DEGREE = 128
MAX_PARSE_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_PARSE_DIGITS
_QUOTE_WIDTH = 140


def _number(x):
    """x as an exact number: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError("floating point coefficients are not allowed")
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(a, b):
    """The exact quotient a / b of two exact numbers, an int when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _number(Fraction(a, b))


class Poly(Value):
    """Polynomial in one variable z over the rationals.

    >>> Poly([Fraction(2, 1), Fraction(1, 2)])
    Poly([2, Fraction(1, 2)])
    >>> str(Poly([1, -2, 0, -1]))
    '1 - 2z - z^3'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _number(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "Poly":
        return cls([])

    @classmethod
    def one(cls) -> "Poly":
        return cls([1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Poly":
        """Multiply by z**k."""
        if self.is_zero():
            return self
        return Poly((0,) * k + self.coeffs)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division; ``other`` must be nonzero."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        lead = other.coeffs[-1]
        if dn < dd:
            return Poly(), self
        quo = [0] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = _div(rem[k + dd], lead)
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quo), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.over(self.coeffs[-1])

    def over(self, d) -> "Poly":
        """The polynomial divided by a nonzero number d, exactly."""
        if d == 1:
            return self
        return Poly([_div(c, d) for c in self.coeffs])

    def primitive(self) -> "Poly":
        """The positive rational multiple of the polynomial whose
        coefficients are coprime integers; zero stays zero.

        >>> Poly([Fraction(-1, 2), 3, Fraction(3, 4)]).primitive()
        Poly([-2, 12, 3])
        """
        cs = self.coeffs
        if any(type(c) is not int for c in cs):
            scale = lcm(*(c.denominator for c in cs))
            cs = [c.numerator * (scale // c.denominator) for c in cs]
        g = gcd(*cs)
        if g == 1 and cs is self.coeffs:
            return self
        return Poly([c // g for c in cs])

    def pseudo_remainder(self, other: "Poly") -> "Poly":
        """A positive multiple of the remainder of the polynomial by
        ``other``, both with integer coefficients, found without division.

        ``other`` is negated if its leading coefficient is negative, which
        leaves the remainder unchanged; then each elimination step scales the
        running remainder by that now positive leading coefficient."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        b = other.coeffs
        if b[-1] < 0:
            b = [-c for c in b]
        lead, top = b[-1], len(b) - 1
        rem = list(self.coeffs)
        while len(rem) > top:
            c = rem.pop()
            if c:
                if lead != 1:
                    rem = [x * lead for x in rem]
                k = len(rem) - top
                for j in range(top):
                    rem[k + j] -= c * b[j]
        return Poly(rem)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor, by the primitive pseudo-remainder
        sequence over the integers (Collins; Knuth, TAOCP vol. 2, 4.6.1)."""
        a, b = self.primitive(), other.primitive()
        while not b.is_zero():
            a, b = b, a.pseudo_remainder(b).primitive()
        return a.monic()

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate at an exact rational point: integer Horner on the
        numerator of x, each coefficient scaled by its power of x's
        denominator, and one division at the end."""
        if not self.coeffs:
            return 0
        x = _number(x)
        num, den = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * num + c * scale
            scale *= den
        return _div(acc, scale // den)

    def _term(self, c, k: int, number) -> str:
        if k == 0:
            return number(c)
        mono = "z" if k == 1 else f"z^{k}"
        if c == 1:
            return mono
        if c == -1:
            return f"-{mono}"
        if c.denominator == 1:
            return f"{number(c)}{mono}"
        return f"({number(c)}){mono}"

    def __str__(self) -> str:
        return self._text(str)

    def quoted(self) -> str:
        """The text of the polynomial for an error message, one line within
        _QUOTE_WIDTH characters: `str`, except that a coefficient whose
        numerator or denominator has more than MAX_PARSE_DIGITS digits, which
        CPython will not write out, shows as its sign and that bound.  A
        longer text keeps its leading terms, "...", its last term and its
        degree, each run of over 12 digits cut to six and its length."""
        text = self._text(_short_number)
        if len(text) <= _QUOTE_WIDTH:
            return text
        text = re.sub(r"\d{13,}", lambda m: f"{m[0][:6]}...<{len(m[0])} digits>", text)
        *head, last = re.split(r" (?=[+-] )", text)
        tail = f"{last} (degree {self.degree})"
        ends = accumulate(len(term) + 1 for term in head)
        shown = [t for t, end in zip(head, ends) if end + len(tail) + 4 <= _QUOTE_WIDTH] or head[:1]
        return " ".join(shown + ["..."] * (len(shown) < len(head)) + [tail])

    def _text(self, number) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            t = self._term(c, k, number)
            if not parts:
                parts.append(t)
            elif t.startswith("-"):
                parts.append(f"- {t[1:]}")
            else:
                parts.append(f"+ {t}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    # Leading zeros stay outside the number groups, so their lengths are
    # digit counts.
    _TERM_RE = re.compile(
        r"^\(?(?P<coeff>(?P<sign>[+-]?)0*(?P<num>\d+)(?:/0*(?P<den>\d+))?)?\)?"
        r"\*?(?P<z>z(?:\^0*(?P<exp>\d+))?)?$"
    )

    @classmethod
    def parse(cls, text: str) -> "Poly":
        """Parse text like ``1 - 2z - z^3``, ``1-2*z+ (1/2)z^2`` or
        ``1 + (-1/2)z``: a parenthesised coefficient may carry its own sign,
        so the text of every Poly reads back.

        An exponent above MAX_PARSE_DEGREE raises ParameterOutOfRange before
        any coefficient list is built; a coefficient whose numerator or
        denominator has more than MAX_PARSE_DIGITS digits raises
        MalformedSyntax, as does anything but text.  Every whitespace
        character is ignored."""
        if not isinstance(text, str):
            raise MalformedSyntax(f"expected polynomial text, got {type(text).__name__}")
        s = re.sub(r"\s+", "", text).replace("**", "^").lower()
        if not s:
            raise MalformedSyntax("empty polynomial")
        # split into signed terms; a sign inside parentheses splits nothing
        chunks = re.findall(r"[+-]?(?:\([^()]*\)|[^+-])+", s)
        if "".join(chunks) != s:
            raise MalformedSyntax(f"cannot tokenize polynomial: {text!r}")
        acc: dict[int, int | Fraction] = {}
        for chunk in chunks:
            sign = 1
            body = chunk
            if body[0] in "+-":
                sign = -1 if body[0] == "-" else 1
                body = body[1:]
            m = cls._TERM_RE.match(body)
            if not m or (m.group("coeff") is None and m.group("z") is None):
                raise MalformedSyntax(f"bad polynomial term {chunk!r} in {text!r}")
            exp = m.group("exp") or ("1" if m.group("z") else "0")
            if len(exp) > len(str(MAX_PARSE_DEGREE)) or int(exp) > MAX_PARSE_DEGREE:
                raise ParameterOutOfRange(
                    f"polynomial exponents are at most {MAX_PARSE_DEGREE}, in {chunk[:40]!r}"
                )
            exp = int(exp)
            num, den = m.group("num") or "1", m.group("den") or "1"
            if len(num) > MAX_PARSE_DIGITS or len(den) > MAX_PARSE_DIGITS:
                raise _long_coefficient()
            try:
                coeff = Fraction(int((m.group("sign") or "") + num), int(den))
            except ZeroDivisionError:
                raise MalformedSyntax(f"zero denominator in term {chunk!r} of {text!r}") from None
            acc[exp] = acc.get(exp, 0) + sign * coeff
        if any(
            abs(c.numerator) >= _DIGITS_BOUND or c.denominator >= _DIGITS_BOUND
            for c in acc.values()
        ):
            raise _long_coefficient()
        out = [0] * (max(acc) + 1)
        for k, c in acc.items():
            out[k] = c
        return cls(out)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "Poly":
        return cls([Fraction(c) for c in data])


def _short_number(c) -> str:
    if abs(c.numerator) < _DIGITS_BOUND and c.denominator < _DIGITS_BOUND:
        return str(c)
    return f"{'-' if c < 0 else ''}<number of more than {MAX_PARSE_DIGITS} digits>"


def _long_coefficient() -> MalformedSyntax:
    return MalformedSyntax(
        f"a polynomial coefficient has a numerator or denominator of more "
        f"than {MAX_PARSE_DIGITS} digits"
    )


def _as_poly(x) -> Poly:
    """A Poly as given, a constant one from a number, or one from coefficients."""
    if isinstance(x, Poly):
        return x
    return Poly([x]) if isinstance(x, (int, Fraction)) else Poly(x)


class RatGF(Value):
    """Rational generating function num/den in lowest terms, den(0) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        c0 = den[0]
        if c0 == 0:
            raise PoleAtZero(f"denominator {den.quoted()} vanishes at z = 0")
        object.__setattr__(self, "num", num.over(c0))
        object.__setattr__(self, "den", den.over(c0))

    @classmethod
    def zero(cls) -> "RatGF":
        return cls(Poly.zero())

    @classmethod
    def one(cls) -> "RatGF":
        return cls(Poly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __add__(self, other: "RatGF") -> "RatGF":
        return RatGF(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatGF") -> "RatGF":
        return RatGF(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatGF":
        return RatGF(-self.num, self.den)

    def __mul__(self, other) -> "RatGF":
        if isinstance(other, (int, Fraction)):
            return RatGF(self.num * other, self.den)
        return RatGF(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatGF") -> "RatGF":
        if other.is_zero():
            raise DivisionByZero("division of generating functions by zero")
        return RatGF(self.num * other.den, self.den * other.num)

    def __call__(self, x):
        return _div(self.num(x), self.den(x))

    def coefficient(self, k: int):
        return self.coeffs(k)[k]

    def coeffs(self, n: int) -> list:
        """First n+1 power-series coefficients, [z^0 .. z^n], by the
        recurrence den·f = num, which needs no division since den(0) = 1."""
        num, den = self.num.coeffs, self.den.coeffs
        out = []
        for k in range(n + 1):
            c = num[k] if k < len(num) else 0
            for j in range(1, min(k + 1, len(den))):
                c -= den[j] * out[k - j]
            out.append(c if type(c) is int else _number(c))
        return out

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatGF({self.num!r}, {self.den!r})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "RatGF":
        return cls(Poly.from_json(data["num"]), Poly.from_json(data["den"]))


def from_eventually_constant(initial, constant, from_index: int) -> RatGF:
    """Generating function of a sequence a_1, a_2, ... that is eventually constant.

    ``initial`` lists a_1 .. a_{from_index-1}; a_n = ``constant`` for every
    n >= from_index.  The constant term a_0 is taken to be 0 (these are
    counting sequences indexed from length 1).

    >>> print(from_eventually_constant([1], 2, 2))
    (z + z^2)/(1 - z)
    """
    return from_eventually_periodic(initial, [constant], from_index)


def from_eventually_periodic(initial, block, from_index: int) -> RatGF:
    """Generating function of a sequence that is eventually periodic.

    ``initial`` (the head) lists a_1 .. a_{from_index-1}; thereafter
    a_{from_index + i} = block[i mod len(block)].  That is one fraction,
    (head·(1 - z^p) + block·z^s) / (1 - z^p), p = len(block), s = from_index.
    """
    if from_index < 1:
        raise ParameterOutOfRange("from_index must be at least 1")
    if len(initial) != from_index - 1:
        raise ParameterOutOfRange(
            f"initial must list exactly the {from_index - 1} terms before from_index"
        )
    if not block:
        raise ParameterOutOfRange("period block must be non-empty")
    den = Poly([1] + [0] * (len(block) - 1) + [-1])
    return RatGF(Poly([0, *initial]) * den + Poly(block).shift(from_index), den)


def seq(g: RatGF) -> RatGF:
    """The sequence construction 1/(1 - g); needs g(0) = 0."""
    if g.num[0] != 0:
        raise NonzeroConstantTerm("Seq needs a generating function with G(0) = 0")
    return RatGF(g.den, g.den - g.num)


def coeffs(f: RatGF, n: int) -> list:
    """First n+1 power-series coefficients of f."""
    return f.coeffs(n)
