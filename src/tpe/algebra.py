"""Exact arithmetic kernels: integers, rationals, dense polynomials, prime fields.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator),
F_p elements are plain ints in [0, p), and polynomials are dense coefficient
tuples over an explicit coefficient domain.  Every domain offers the same
small ring interface (zero, one, coerce, coerce_all, div), so one polynomial
class serves Q, F_p and number-field towers; the domain, not the element,
knows p.  Tuples stay dense, zeros included, but the constructor coerces in
bulk (an element already of the domain's exact type costs no call), and
every pass that multiplies coefficients skips the zeros, which are false in
every domain.
All values are immutable and every operation is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

Rational = Fraction


class NonIntegralError(ValueError):
    """A denominator is divisible by the reduction prime."""


# ---------------------------------------------------------------------------
# integer utilities


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; valid for every input below 2**64."""
    if n < 0 or n.bit_length() > 64:
        raise ValueError("primality test restricted to 64-bit nonnegative integers")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by Newton iteration on integers."""
    if n < 0 or k < 1:
        raise ValueError("integer_nth_root needs n >= 0 and k >= 1")
    if n == 0 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def exact_sqrt(n: int):
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def exact_fifth_root(n: int):
    """Integer fifth root of n (any sign) if n is a perfect fifth power."""
    r = integer_nth_root(abs(n), 5)
    if r ** 5 != abs(n):
        return None
    return -r if n < 0 else r


@dataclass(frozen=True)
class PowerProfile:
    tenth_power_free: bool
    perfect_square: bool
    perfect_fifth_power: bool


def integer_power_classification(d: int) -> PowerProfile:
    """Exact square / fifth-power / tenth-power-free classification of d != 0."""
    if d == 0:
        raise ValueError("d must be nonzero")
    a = abs(d)
    square = exact_sqrt(d) is not None
    fifth = exact_fifth_root(d) is not None
    tenth_free = True
    m = 2
    while m ** 10 <= a:
        if a % m ** 10 == 0:
            tenth_free = False
            break
        m += 1
    return PowerProfile(tenth_free, square, fifth)


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, via a^((p-1)/2) mod p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def small_divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, by trial division."""
    n = abs(n)
    if n == 0:
        raise ValueError("n must be nonzero")
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def power(x, e: int, one):
    """x^e for e >= 0 by square-and-multiply from the highest bit of e, so
    x ** 2 is one multiplication; `one` is the result for e = 0."""
    if e == 0:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


# ---------------------------------------------------------------------------
# coefficient domains


class RationalDomain:
    """The field of exact rationals, used as a Poly coefficient domain."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if type(value) is Fraction or isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def coerce_all(self, values) -> list:
        """[coerce(c) for c in values]; a Fraction is kept without a call."""
        coerce = self.coerce
        return [c if type(c) is Fraction else coerce(c) for c in values]

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return a / b

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalDomain)

    def __hash__(self) -> int:
        return hash("RationalDomain")


QQ = RationalDomain()


class PrimeField:
    """F_p for an odd prime p, usable as a Poly coefficient domain.

    The constructor is the library's only odd-prime test: every function that
    takes a reduction prime builds its field (or calls one that does) and
    reports this ValueError unchanged.  Elements are plain ints in [0, p);
    `coerce` reduces ints and p-integral rationals into that range (raising
    NonIntegralError otherwise), so Poly arithmetic may leave its intermediate
    sums and products unreduced."""

    __slots__ = ("p",)

    zero = 0
    one = 1

    def __init__(self, p: int):
        if p.bit_length() > 64:
            raise ValueError(f"p = {p} is beyond the 64-bit primality test")
        if p < 3 or not is_prime(p):
            raise ValueError(f"p = {p} is not an odd prime")
        self.p = p

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise NonIntegralError(
                    f"denominator {value.denominator} divisible by {self.p}"
                )
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def coerce_all(self, values) -> list:
        """[coerce(c) for c in values]; an int or integral Fraction n is n % p."""
        p, coerce = self.p, self.coerce
        return [
            c % p if type(c) is int
            else c.numerator % p if type(c) is Fraction and c.denominator == 1
            else coerce(c)
            for c in values
        ]

    def div(self, a: int, b: int) -> int:
        p = self.p
        if b % p == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return a * pow(b, -1, p) % p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


# ---------------------------------------------------------------------------
# dense univariate polynomials


class Poly:
    """Dense univariate polynomial; coeffs[i] is the coefficient of x^i.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Coefficients live in an explicit domain (QQ, PrimeField, TowerSpec)
    whose elements support +, - and * and are false exactly when zero; the
    domain supplies zero, one, `coerce` (which also reduces F_p ints into
    [0, p)), its bulk form `coerce_all`, and `div`.  Polys over different
    domains, such as F_7 and F_11, never combine.  The constructor is the
    one place coefficients are checked, in bulk by `coerce_all`.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = field.coerce_all(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def over_q(cls, coeffs) -> "Poly":
        return cls(QQ, coeffs)

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, (field.zero, field.one))

    @classmethod
    def const(cls, field, c) -> "Poly":
        return cls(field, (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        other = self._as_poly(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=self.field.zero)
        return Poly(self.field, [a + b for a, b in pairs])

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._as_poly(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=self.field.zero)
        return Poly(self.field, [a - b for a, b in pairs])

    def __rsub__(self, other):
        return self._as_poly(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = self.field.coerce(other)
            return Poly(self.field, [a * c if a else a for a in self.coeffs])
        if other.field != self.field:
            raise ValueError("coefficient domain mismatch")
        if not self.coeffs or not other.coeffs:
            return Poly(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        if other is self:
            # a square: a_i ** 2 once and 2 a_i a_j for i < j; a reduced
            # Fraction raised with ** skips the cross-gcds of a_i * a_i
            cs = self.coeffs
            for i, a in enumerate(cs):
                if not a:
                    continue
                out[2 * i] += a**2
                twice = 2 * a
                for j in range(i + 1, len(cs)):
                    out[i + j] += twice * cs[j]
            return Poly(self.field, out)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        return power(self, e, Poly.const(self.field, self.field.one))

    def _as_poly(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.field != self.field:
                raise ValueError("coefficient domain mismatch")
            return other
        return Poly.const(self.field, self.field.coerce(other))

    def _divide(self, other) -> tuple[list, list]:
        """The coefficient lists (quotient, remainder) of long division, not
        yet coerced; the quotient list is empty exactly when
        deg self < deg other, and the remainder is then self's own tuple.
        The divisor's nonzero terms below its leading one are listed once,
        and each quotient step updates the remainder at those terms only, so
        a step costs the divisor's nonzero terms, not its degree."""
        other = self._as_poly(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return [], self.coeffs
        cs = other.coeffs
        n = len(cs) - 1
        lead = cs[n]
        inv = None if lead == field.one else field.div(field.one, lead)
        terms = [(j, b) for j, b in enumerate(cs) if b]
        terms.pop()  # the leading term cancels rem[i + n] by construction
        rem = list(self.coeffs)
        quo = [field.zero] * (dq + 1)
        for i in range(dq, -1, -1):
            top = field.coerce(rem[i + n])
            if not top:
                continue
            c = top if inv is None else field.coerce(top * inv)
            quo[i] = c
            for j, b in terms:
                rem[i + j] = rem[i + j] - c * b
        del rem[n:]
        return quo, rem

    def __divmod__(self, other):
        """(quotient, remainder) by long division (`_divide`)."""
        quo, rem = self._divide(other)
        return Poly(self.field, quo), (Poly(self.field, rem) if quo else self)

    def __floordiv__(self, other):
        return Poly(self.field, self._divide(other)[0])

    def __mod__(self, other):
        quo, rem = self._divide(other)
        return Poly(self.field, rem) if quo else self

    def exact_div(self, other) -> "Poly":
        """The quotient, when the remainder is zero; the remainder's
        coefficients are tested without building a Poly from them."""
        quo, rem = self._divide(other)
        if any(self.field.coerce_all(rem)):
            raise ValueError("division is not exact")
        return Poly(self.field, quo)

    def monic(self) -> "Poly":
        if not self.coeffs:
            return self
        field = self.field
        if self.leading == field.one:
            return self
        inv = field.div(field.one, self.leading)
        return Poly(field, [c * inv if c else c for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly(self.field, [c * i if c else c for i, c in enumerate(self.coeffs[1:], 1)])

    def gcd(self, other) -> "Poly":
        """Monic greatest common divisor (Euclid)."""
        a, b = self, self._as_poly(other)
        while b:
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other):
        """(g, s) with g = gcd(self, other), monic (or zero), and
        g = s*self mod other.  The cofactor of `other` is not built: where it
        is needed, it is (g - s*self).exact_div(other).

        A nonzero constant remainder ends the chain: the gcd is 1, and its
        cofactor is the current one over that constant."""
        field = self.field
        a, b = self, self._as_poly(other)
        s0, s1 = Poly.const(field, field.one), Poly(field)
        while b.degree > 0:
            q, r = divmod(a, b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
        if b:
            a, s0 = b, s1
        if not a:
            return a, s0
        inv = field.div(field.one, a.leading)
        return a * inv, s0 * inv

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        """self^e mod `mod`, by square-and-multiply."""
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.const(self.field, self.field.one) % mod
        base = self % mod
        while e:
            if e & 1:
                result = result * base % mod
            base = base * base % mod
            e >>= 1
        return result

    def __call__(self, x):
        """Value at x by Horner's rule over the nonzero terms only.

        Between two nonzero coefficients the accumulator is multiplied by
        x^gap (`power`), and a trailing x^k factor is applied at the end, so
        the cost counts nonzero terms, not the degree; a dense polynomial
        (every gap 1) takes the plain Horner steps.  x lives in the
        coefficient domain, or, for a polynomial over Q, in a tower ring
        (anything with a `tower`), where the value is then taken."""
        ring = self.field
        if ring == QQ and hasattr(x, "tower"):
            ring = x.tower
        x = ring.coerce(x)
        cs = self.coeffs
        if not cs:
            return ring.zero
        k = len(cs) - 1
        acc = cs[k]
        for i in range(k - 1, -1, -1):
            c = cs[i]
            if c:
                gap = k - i
                acc = acc * (x if gap == 1 else power(x, gap, ring.one)) + c
                k = i
        if k:
            acc = acc * power(x, k, ring.one)
        return ring.coerce(acc)

    def map_domain(self, field) -> "Poly":
        """Re-coerce all coefficients into another domain."""
        return Poly(field, self.coeffs)

    def __repr__(self):
        return f"Poly({poly_str(self)})"


def poly_str(f: Poly, var: str = "x") -> str:
    """Human-readable rendering, highest degree first."""
    if not f:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if c == f.field.zero:
            continue
        cs = str(c)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        if i == 0:
            term = mag
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            term = xpow if mag == "1" else f"{mag}*{xpow}"
        if not parts:
            parts.append(("-" if neg else "") + term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# resultants and discriminants


def resultant(f: Poly, g: Poly):
    """res(f, g) over the coefficient field, via the Euclidean remainder chain."""
    if f.field != g.field:
        raise ValueError("coefficient domain mismatch")
    field = f.field
    if not f or not g:
        return field.zero
    res = field.one
    sign = 1
    a, b = f, g
    while b.degree > 0:
        r = a % b
        if not r:
            return field.zero
        if (a.degree * b.degree) % 2 == 1:
            sign = -sign
        res = field.coerce(res * b.leading ** (a.degree - r.degree))
        a, b = b, r
    res = field.coerce(res * b.leading ** a.degree)
    return res if sign == 1 else field.coerce(-res)


def discriminant(f: Poly):
    """disc(f) = (-1)^(n(n-1)/2) * res(f, f') / lc(f), for deg f >= 2.

    res is taken with f' at its formal degree n - 1: over F_p with p | n the
    degree of f' drops, and res(f, f') then lacks lc(f)^(n - 1 - deg f')."""
    n = f.degree
    if n < 2:
        raise ValueError("discriminant requires degree >= 2")
    df = f.derivative()
    res = f.field.coerce(resultant(f, df) * f.leading ** (n - 1 - df.degree))
    d = f.field.div(res, f.leading)
    return f.field.coerce(-d) if (n * (n - 1) // 2) % 2 else d


def is_squarefree(f: Poly) -> bool:
    """True iff gcd(f, f') is constant; f must be nonzero."""
    if not f:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return True
    return f.gcd(f.derivative()).degree == 0


# ---------------------------------------------------------------------------
# reduction mod p and splitting tests


def reduce_poly_mod_p(f: Poly, p: int) -> Poly:
    """Coefficient-wise reduction of a rational polynomial into F_p[x]."""
    return Poly(PrimeField(p), f.coeffs)


def values_mod_p(g: Poly, xs) -> list[int]:
    """[g(x) for x in xs] in [0, p), g over a PrimeField: the one evaluation
    at residues (point counts, root searches, reduced points).

    The nonzero terms of g are listed once for all residues, and each value
    is Horner's rule over them with pow(x, gap, p) between two terms and
    pow(x, k, p) for a trailing x^k factor, so the cost per residue counts
    nonzero terms, not the degree."""
    if not isinstance(g.field, PrimeField):
        raise TypeError("values_mod_p expects a polynomial over F_p")
    p = g.field.p
    terms = [(i, c) for i, c in enumerate(g.coeffs) if c]
    if not terms:
        return [0 for _ in xs]
    k, lead = terms[-1]
    steps = []
    for i, c in reversed(terms[:-1]):
        steps.append((k - i, c))
        k = i
    out = []
    for x in xs:
        acc = lead
        for gap, c in steps:
            acc = (acc * pow(x, gap, p) + c) % p
        out.append(acc * pow(x, k, p) % p if k else acc)
    return out


def roots_mod_p(g: Poly) -> list[int]:
    """All roots of g in F_p, by full enumeration; g over a PrimeField."""
    if not isinstance(g.field, PrimeField):
        raise TypeError("roots_mod_p expects a polynomial over F_p")
    if g.degree < 1:
        raise ValueError("roots_mod_p requires degree >= 1")
    values = values_mod_p(g, range(g.field.p))
    return [a for a, v in enumerate(values) if v == 0]


def splits_completely_mod_p(g: Poly, p: int) -> bool:
    """True iff g mod p is a product of deg(g) distinct linear factors.

    Tested without factoring: x^p == x (mod g) by square-and-multiply
    (so g | x^p - x) together with gcd(g, g') = 1 (distinct roots).
    """
    if g.degree < 1:
        raise ValueError("splitting test requires degree >= 1")
    gp = reduce_poly_mod_p(g, p)
    if gp.degree != g.degree:
        raise ValueError("leading coefficient divisible by p")
    gp = gp.monic()
    x = Poly.x(gp.field)
    if x.pow_mod(p, gp) != x % gp:
        return False
    return gp.gcd(gp.derivative()).degree == 0


# ---------------------------------------------------------------------------
# cyclotomic polynomials and rational roots


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """n-th cyclotomic polynomial, by the exact quotient recursion
    Phi_n(x) = (x^n - 1) / prod_{d | n, d < n} Phi_d(x); memoized."""
    if n < 1:
        raise ValueError("n must be positive")
    f = Poly.over_q([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            f = f.exact_div(cyclotomic(d))
    return f


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of f in Q[x], by the rational-root bound."""
    if f.field != QQ:
        raise TypeError("rational_roots expects a polynomial over Q")
    if not f:
        raise ValueError("zero polynomial")
    roots = []
    cs = list(f.coeffs)
    if not cs[0]:
        roots.append(Fraction(0))
        while not cs[0]:
            cs.pop(0)
    if len(cs) <= 1:
        return sorted(set(roots))
    lcm_den = math.lcm(*(c.denominator for c in cs))
    ics = [c.numerator * (lcm_den // c.denominator) for c in cs]
    a0, an = ics[0], ics[-1]
    g = Poly.over_q(ics)
    for num in small_divisors(a0):
        for den in small_divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if g(cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))
