"""Radical/cyclotomic tower rings Q[t1..tk]/(m1(t1),...,mk(tk)).

Every relation m_i is monic and squarefree with rational coefficients, so the
quotient is a finite-dimensional Q-algebra (a product of number fields; a
single field whenever each relation stays irreducible).  Elements are sparse
tables from bounded multi-exponents to rationals, immutable and freely
shareable.  Exact inversion is supported for at most one generator, which is
all the divisor arithmetic needs; reduction to F_p at a completely split
place works for any k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from tpe.algebra import (
    NonIntegralError,
    Poly,
    QQ,
    PrimeField,
    discriminant,
    is_squarefree,
    power,
    roots_mod_p,
    splits_completely_mod_p,
)


class ZeroDivisorError(ArithmeticError):
    """Inversion met a zero divisor: some tower relation is reducible."""


class TowerSpec:
    """An ordered list of (name, monic relation) pairs defining the ring.

    k = 0 encodes plain Q.  Doubles as a Poly coefficient domain, so
    polynomials with tower coefficients reuse the generic Poly machinery.
    """

    __slots__ = ("generators", "degrees", "zero", "one", "_pow_tables")

    def __init__(self, generators=()):
        gens = []
        names = set()
        for name, relation in generators:
            if not isinstance(name, str) or not name:
                raise ValueError("generator names must be nonempty strings")
            if name in names:
                raise ValueError(f"duplicate generator name {name!r}")
            names.add(name)
            if not isinstance(relation, Poly) or relation.field != QQ:
                raise ValueError("relations must be polynomials over Q")
            if relation.degree < 1:
                raise ValueError("relations must have degree >= 1")
            if relation.leading != 1:
                raise ValueError("relations must be monic")
            if not is_squarefree(relation):
                raise ValueError(f"relation for {name!r} is not squarefree")
            gens.append((name, relation))
        self.generators = tuple(gens)
        self.degrees = tuple(rel.degree for _, rel in self.generators)
        self.zero = TowerElement(self, {})
        self.one = TowerElement(self, {(0,) * self.k: Fraction(1)})
        self._pow_tables = None

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def dimension(self) -> int:
        dim = 1
        for d in self.degrees:
            dim *= d
        return dim

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def rational(self, value) -> "TowerElement":
        q = Fraction(value)
        if q == 0:
            return self.zero
        return TowerElement(self, {(0,) * self.k: q})

    def gen(self, i: int) -> "TowerElement":
        exps = [0] * self.k
        exps[i] = 1
        return TowerElement(self, {tuple(exps): Fraction(1)})

    def gen_by_name(self, name: str) -> "TowerElement":
        for i, (n, _) in enumerate(self.generators):
            if n == name:
                return self.gen(i)
        raise KeyError(name)

    def element(self, coeffs: dict) -> "TowerElement":
        out = {}
        for exps, c in coeffs.items():
            exps = tuple(exps)
            if len(exps) != self.k:
                raise ValueError("exponent arity mismatch")
            for e, d in zip(exps, self.degrees):
                if not 0 <= e < d:
                    raise ValueError("exponent out of range")
            q = Fraction(c)
            if q != 0:
                out[exps] = out.get(exps, Fraction(0)) + q
        return TowerElement(self, {e: c for e, c in out.items() if c != 0})

    def coerce(self, value) -> "TowerElement":
        if isinstance(value, TowerElement):
            if value.tower != self:
                raise ValueError("tower mismatch")
            return value
        if isinstance(value, (int, Fraction)):
            return self.rational(value)
        raise TypeError(f"cannot coerce {value!r} into tower ring")

    def coerce_all(self, values) -> list:
        """[coerce(c) for c in values]; an element of this tower object is kept."""
        coerce = self.coerce
        return [c if type(c) is TowerElement and c.tower is self else coerce(c) for c in values]

    def div(self, a: "TowerElement", b: "TowerElement") -> "TowerElement":
        return a * tower_invert(b)

    def _power_table(self, i: int, e: int) -> tuple:
        """Coefficient vector of t_i^e reduced mod m_i, for d_i <= e <= 2d_i-2."""
        if self._pow_tables is None:
            tables = []
            for _, rel in self.generators:
                d = rel.degree
                table = {}
                # t^d = -(tail of the relation)
                vec = [-c for c in rel.coeffs[:d]]
                table[d] = tuple(vec)
                for exp in range(d + 1, 2 * d - 1):
                    shifted = [Fraction(0)] + list(table[exp - 1])
                    top = shifted.pop()
                    if top:
                        shifted = [
                            a + top * b for a, b in zip(shifted, table[d])
                        ]
                    table[exp] = tuple(shifted)
                tables.append(table)
            self._pow_tables = tables
        return self._pow_tables[i][e]

    def __eq__(self, other):
        return isinstance(other, TowerSpec) and other.generators == self.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        if self.k == 0:
            return "Q"
        rels = ", ".join(
            f"{name}: {rel!r}" for name, rel in self.generators
        )
        return f"TowerSpec({rels})"

    def describe(self) -> str:
        if self.k == 0:
            return "Q"
        from tpe.algebra import poly_str

        parts = [
            f"{poly_str(rel, name)} = 0" for name, rel in self.generators
        ]
        return "Q(" + ", ".join(self.names) + ") with " + ", ".join(parts)


class TowerElement:
    """Sparse element of a TowerSpec ring; immutable by convention."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: TowerSpec, coeffs: dict):
        self.tower = tower
        self.coeffs = coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_rational(self):
        """The element as a Fraction if its non-constant coefficients vanish."""
        if not self.coeffs:
            return Fraction(0)
        zero_key = (0,) * self.tower.k
        if set(self.coeffs) == {zero_key}:
            return self.coeffs[zero_key]
        return None

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            if other.tower != self.tower:
                raise ValueError("tower mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for exps, c in o.coeffs.items():
            v = out.get(exps, Fraction(0)) + c
            if v:
                out[exps] = v
            else:
                out.pop(exps, None)
        return TowerElement(self.tower, out)

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(
            self.tower, {e: -c for e, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        tower = self.tower
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                _accumulate(tower, out, exps, c1 * c2)
        return TowerElement(tower, {e: c for e, c in out.items() if c != 0})

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power; use tower_invert")
        return power(self, e, self.tower.one)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * tower_invert(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * tower_invert(self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.is_rational()
            return r is not None and r == other
        return (
            isinstance(other, TowerElement)
            and other.tower == self.tower
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        names = self.tower.names
        parts = []
        for exps, c in sorted(self.coeffs.items()):
            mon = "*".join(
                (n if e == 1 else f"{n}^{e}")
                for n, e in zip(names, exps)
                if e
            )
            if not mon:
                parts.append(str(c))
            elif c == 1:
                parts.append(mon)
            elif c == -1:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{c}*{mon}")
        return " + ".join(parts).replace("+ -", "- ")


def _accumulate(tower: TowerSpec, out: dict, exps: tuple, coeff: Fraction):
    """Fold coeff * t^exps into `out`, rewriting overflowing exponents."""
    for i, (e, d) in enumerate(zip(exps, tower.degrees)):
        if e >= d:
            vec = tower._power_table(i, e)
            for j, cj in enumerate(vec):
                if cj:
                    _accumulate(
                        tower, out, exps[:i] + (j,) + exps[i + 1 :], coeff * cj
                    )
            return
    out[exps] = out.get(exps, Fraction(0)) + coeff


def tower_invert(a: TowerElement) -> TowerElement:
    """Exact inverse for towers with at most one generator.

    For k = 1 the inverse comes from the extended Euclidean algorithm
    against the relation; a nontrivial gcd means the relation is reducible
    and the representative is a zero divisor, which is reported rather
    than silently mis-handled.
    """
    tower = a.tower
    if not a.coeffs:
        raise ZeroDivisionError("inverting zero")
    if tower.k == 0:
        return tower.rational(1 / a.coeffs[()])
    if tower.k > 1:
        raise ValueError("exact inversion supports at most one generator")
    _, relation = tower.generators[0]
    d = relation.degree
    vec = [Fraction(0)] * d
    for (e,), c in a.coeffs.items():
        vec[e] = c
    rep = Poly.over_q(vec)
    g, s = rep.xgcd(relation)
    if g.degree > 0:
        raise ZeroDivisorError(
            f"zero divisor: gcd with relation has degree {g.degree}"
        )
    s = s % relation
    return tower.element({(i,): c for i, c in enumerate(s.coeffs)})


@dataclass(frozen=True)
class ResidueAssignment:
    """A completely split place: the prime and one root of each relation."""

    p: int
    residues: tuple[int, ...]

    def mapping(self, tower: TowerSpec) -> dict[str, int]:
        return dict(zip(tower.names, self.residues))


def split_places(tower: TowerSpec, p: int) -> list[ResidueAssignment]:
    """All places of the tower over p, empty unless p splits completely.

    This is the library's only test of "w is a completely split place over
    p": `torsion_decide` and `verify_tpe` ask it.  p splits completely in the
    compositum iff it splits completely in each generator field, so the
    assignments are the Cartesian product of the per-relation root choices,
    in lexicographic order of residues.  A p that is not an odd prime gets
    PrimeField's ValueError (also for k = 0), a relation that is not
    p-integral gets PrimeField.coerce's NonIntegralError, and ramified primes
    (p dividing some relation discriminant) are rejected; the discriminant is
    taken in F_p, which is exact because the relations are monic, so
    reduction keeps their degree.
    """
    field = PrimeField(p)
    root_lists = []
    for name, relation in tower.generators:
        rp = relation.map_domain(field)
        if relation.degree >= 2 and discriminant(rp) == 0:
            raise ValueError(
                f"p = {p} divides the discriminant of the relation "
                f"for {name!r} (ramified); rejected"
            )
        if not splits_completely_mod_p(relation, p):  # O(log p), before the O(p) roots
            return []
        root_lists.append(roots_mod_p(rp))  # ascending
    return [
        ResidueAssignment(p, combo)
        for combo in itertools.product(*root_lists)
    ]


def reduce_element(a: TowerElement, w: ResidueAssignment) -> int:
    """Image of a tower element in F_p at the place w; a ring homomorphism."""
    p = w.p
    total = 0
    for exps, c in a.coeffs.items():
        if c.denominator % p == 0:
            raise NonIntegralError(
                f"denominator {c.denominator} divisible by {p}"
            )
        term = c.numerator * pow(c.denominator, -1, p) % p
        for r, e in zip(w.residues, exps):
            if e:
                term = term * pow(r, e, p) % p
        total = (total + term) % p
    return total
