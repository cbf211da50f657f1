"""Theta series, the Gauss identity and the eight-squares count.

The square-count oracle deliberately stays away from the theta machinery
and from `series`: r8 is obtained by direct enumeration of
four-dimensional integer vectors, over the orthant of nonnegative
coordinates with each vector counted for its sign patterns, paired against
itself by a plain list convolution, and checked against the eighth power
of theta and against the twisted cubic divisor sum.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .series import QL, GradedSeries, apply_pochhammer, mul


@lru_cache(maxsize=None)
def theta(order: int, sign: int = 1) -> GradedSeries:
    """sum_j (sign*q)^{j^2}, truncated."""
    terms = {(0,): 1}
    j = 1
    while j * j <= order:
        terms[(j * j,)] = 2 * (sign ** (j * j))
        j += 1
    return GradedSeries.from_terms(QL, order, terms)


@lru_cache(maxsize=None)
def theta_power8(order: int, sign: int = 1) -> GradedSeries:
    t2 = mul(theta(order, sign), theta(order, sign))
    t4 = mul(t2, t2)
    return mul(t4, t4)


def _conv(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(0, order - i + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _count4_enumeration(order: int) -> list[int]:
    """Number of v in Z^4 with |v|^2 = n, by direct enumeration.

    Visits the vectors with nonnegative coordinates, each coordinate running
    over what the earlier ones leave of the order, and counts each for its
    2^k sign patterns, k its number of nonzero coordinates.  Each sign
    pattern is a distinct vector of the same norm, so every v in Z^4 is
    counted once.
    """
    out = [0] * (order + 1)
    isqrt = math.isqrt
    for v1 in range(isqrt(order) + 1):
        n1, w1 = v1 * v1, 2 if v1 else 1
        for v2 in range(isqrt(order - n1) + 1):
            n2, w2 = n1 + v2 * v2, 2 * w1 if v2 else w1
            for v3 in range(isqrt(order - n2) + 1):
                n3, w3 = n2 + v3 * v3, 2 * w2 if v3 else w2
                out[n3] += w3
                for v4 in range(1, isqrt(order - n3) + 1):
                    out[n3 + v4 * v4] += 2 * w3
    return out


def r8_oracle(order: int) -> list[int]:
    """r8(0..order): ordered representations as a sum of eight squares,
    the enumerated four-square counts convolved with themselves."""
    c4 = _count4_enumeration(order)
    return _conv(c4, c4, order)


def gauss_series(order: int) -> GradedSeries:
    """(1-q)_q^inf / (1+q)_q^inf as a truncated series."""
    s = GradedSeries.one(QL, order)
    s = apply_pochhammer(s, (1,), (1,), -1)
    return apply_pochhammer(s, (1,), (1,), +1, inverse=True)


def jacobi_formula(order: int, twist: bool = False) -> GradedSeries:
    """1 + 16 sum_{j,k>=1} (-1)^{(j+1)k} k^3 q^{jk}.

    With twist=True, the companion form 1 + 16 sum (-1)^k k^3 q^{jk}
    (the expansion of the alternating-sign theta power).
    """
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for j in range(1, order + 1):
        for k in range(1, order // j + 1):
            s = (-1) ** k if twist else (-1) ** ((j + 1) * k)
            coeffs[j * k] += 16 * s * k ** 3
    return GradedSeries.from_terms(QL, order,
                                   {(n,): c for n, c in enumerate(coeffs) if c})


def _binom_inv4(j: int) -> int:
    # coefficient of a^j in (1+a)^{-4}
    return (-1) ** j * (j + 1) * (j + 2) * (j + 3) // 6


def intermediate_identity(order: int) -> tuple[GradedSeries, GradedSeries]:
    """Both sides of the evaluated identity:
    ((1-q)_q^inf/(1+q)_q^inf)^8 = 1 - 16 sum_n q^n (q^{2n} - 4 q^n + 1)/(1+q^n)^4,
    with every (1+q^n)^{-4} expanded by the cubic binomial series."""
    g = gauss_series(order)
    g2 = mul(g, g)
    g4 = mul(g2, g2)
    lhs = mul(g4, g4)
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for n in range(1, order + 1):
        for j in range(0, (order - n) // n + 1):
            b = _binom_inv4(j)
            for shift, w in ((2 * n, 1), (n, -4), (0, 1)):
                e = n + shift + j * n
                if e <= order:
                    coeffs[e] += -16 * w * b
    rhs = GradedSeries.from_terms(QL, order,
                                  {(n,): c for n, c in enumerate(coeffs) if c})
    return lhs, rhs


def verify_jacobi(order: int) -> dict:
    """The eight-squares verdict: a row per n <= order, and the Gauss and
    intermediate identities.

    Row n compares r8(n) by enumeration, from theta^8 and from the divisor
    formula; it matches only if the sign-twisted companion, theta(-q)^8
    against the twisted formula, also agrees at q^n.  The Gauss identity
    is checked to at least order 100.
    """
    enum = r8_oracle(order)
    t8, formula = theta_power8(order), jacobi_formula(order)
    t8_twisted = theta_power8(order, -1)
    formula_twisted = jacobi_formula(order, twist=True)
    rows = []
    for n in range(order + 1):
        a, b, c = enum[n], t8.coeff((n,)), formula.coeff((n,))
        twisted_ok = t8_twisted.coeff((n,)) == formula_twisted.coeff((n,))
        rows.append({"n": n, "r8_enum": a, "r8_theta": b, "r8_formula": c,
                     "match": a == b == c and twisted_ok})
    n_gauss = max(order, 100)
    inter_lhs, inter_rhs = intermediate_identity(order)
    return {"rows": rows, "all_match": all(r["match"] for r in rows),
            "gauss": gauss_series(n_gauss) == theta(n_gauss, -1),
            "intermediate": inter_lhs == inter_rhs}
