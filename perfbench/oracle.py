"""Independent answers for the order scan: #J(F_p) from point counts.

#J(F_p) = L(1), where L is the numerator of the zeta function.  Its first g
coefficients follow from the point counts N_1..N_g over F_(p^k) by Newton's
identities and the rest from the functional equation.  jacobian_order
calls no Cantor code, so a class order found by the program's scan can be
checked against a group order that the program did not compute; only
class_order, which strips that group order down, uses Jacobian.mul.
"""

from __future__ import annotations

import itertools


def _legendre_table(p: int) -> list[int]:
    table = [-1] * p
    table[0] = 0
    for y in range(1, p):
        table[y * y % p] = 1
    return table


def _extension(p: int, k: int) -> int:
    """r such that t^k - r is irreducible over F_p (k = 1, 2 or 3)."""
    if k not in (1, 2, 3):
        raise ValueError("point counts here stop at F_(p^3), genus 3")
    if k == 1:
        return 0
    if k == 3 and p % 3 != 1:
        raise ValueError("cubic extensions here need p = 1 mod 3")
    e = (p - 1) // k
    return next(r for r in range(2, p) if pow(r, e, p) != 1)


def count_points(f: list[int], p: int, k: int) -> int:
    """#C(F_(p^k)) for the odd model y^2 = f(x), f given low to high.

    F_(p^k) is F_p[t]/(t^k - r); an element is a square exactly when its
    norm to F_p is, so each f(x) is classified by one Legendre lookup.
    """
    if len(f) % 2:
        raise ValueError("odd-degree model expected")
    legendre = _legendre_table(p)
    r = _extension(p, k)
    cs = [c % p for c in reversed(f)]
    total = 1  # the point at infinity
    if k == 1:
        for x in range(p):
            acc = 0
            for c in cs:
                acc = (acc * x + c) % p
            total += 1 + legendre[acc]
    elif k == 2:
        # x and its conjugate (b -> -b) have conjugate f(x), of equal norm
        for a, b in itertools.product(range(p), range((p + 1) // 2)):
            u = v = 0
            for c in cs:
                u, v = (u * a + r * v * b + c) % p, (u * b + v * a) % p
            total += (2 if b else 1) * (1 + legendre[(u * u - r * v * v) % p])
    else:
        for a, b, e in itertools.product(range(p), repeat=3):
            u = v = w = 0
            for c in cs:
                u, v, w = (
                    (u * a + r * (v * e + w * b) + c) % p,
                    (u * b + v * a + r * w * e) % p,
                    (u * e + v * b + w * a) % p,
                )
            norm = u**3 + r * v**3 + r * r * w**3 - 3 * r * u * v * w
            total += 1 + legendre[norm % p]
    return total


def jacobian_order(f: list[int], p: int) -> int:
    """#J(F_p) of the odd model y^2 = f(x) with good reduction at p."""
    genus = (len(f) - 2) // 2
    sums = [p**k + 1 - count_points(f, p, k) for k in range(1, genus + 1)]
    e = [1]
    for j in range(1, genus + 1):
        s = sum((-1) ** (i - 1) * e[j - i] * sums[i - 1] for i in range(1, j + 1))
        e.append(s // j)
    low = [(-1) ** j * e[j] for j in range(genus + 1)]
    return sum(low) + sum(p ** (genus - j) * low[j] for j in range(genus))


def prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def class_order(jac, D, group_order: int) -> int:
    """Order of D from a known multiple: strip each prime while it still kills D."""
    n = group_order
    for q in prime_factors(group_order):
        while n % q == 0 and jac.mul(n // q, D) == jac.identity:
            n //= q
    return n
