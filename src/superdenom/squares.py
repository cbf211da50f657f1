"""Theta series, the Gauss identity and the eight-squares count.

Every q-series here is a plain list of int coefficients, index = degree,
truncated at the order: one list convolution, `_conv`, multiplies two of
them and one list Pochhammer, `_pochhammer`, builds the Gauss product.  The
module imports nothing from `series`, so the eight-squares check shares no
arithmetic with the slice kernel behind the denominator identities.

The square-count oracle deliberately stays away from the theta machinery:
r8 is obtained by direct enumeration of four-dimensional integer vectors,
over the orthant of nonnegative coordinates with each vector counted for
its sign patterns, paired against itself by the list convolution, and
checked against the eighth power of theta and against the twisted cubic
divisor sum.
"""

from __future__ import annotations

import math
import operator


def _conv(a: list[int], b: list[int]) -> list[int]:
    """Product of two coefficient lists of one order, truncated there: one
    sum per degree d over the pairs of degrees that add up to d."""
    return [sum(map(operator.mul, a[:d + 1], b[d::-1])) for d in range(len(a))]


def _pochhammer(c: list[int], sign: int, inverse: bool = False) -> list[int]:
    """c times (or, if inverse, divided by) prod_{n>=1} (1 + sign q^n), as a
    new list of the same order.

    Only factors of degree up to the order differ from 1 below the
    truncation.  A multiplication by 1 + sign q^d adds the list shifted up
    by d; a division walks the degrees up, each coefficient less sign times
    the finished quotient coefficient d below it.
    """
    c = list(c)
    for d in range(1, len(c)):
        if inverse:
            for n in range(d, len(c)):
                c[n] -= sign * c[n - d]
        else:
            c[d:] = [x + sign * y for x, y in zip(c[d:], c)]
    return c


def theta(order: int, sign: int = 1) -> list[int]:
    """sum_j (sign*q)^{j^2}, truncated."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for j in range(1, math.isqrt(order) + 1):
        coeffs[j * j] = 2 * (sign ** (j * j))
    return coeffs


def theta_power8(order: int, sign: int = 1) -> list[int]:
    t = theta(order, sign)
    t2 = _conv(t, t)
    t4 = _conv(t2, t2)
    return _conv(t4, t4)


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
    return _conv(c4, c4)


def gauss_series(order: int) -> list[int]:
    """(1-q)_q^inf / (1+q)_q^inf, truncated."""
    one = [1] + [0] * order
    return _pochhammer(_pochhammer(one, -1), +1, inverse=True)


def jacobi_formula(order: int, twist: bool = False) -> list[int]:
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
    return coeffs


def _binom_inv4(j: int) -> int:
    # coefficient of a^j in (1+a)^{-4}
    return (-1) ** j * (j + 1) * (j + 2) * (j + 3) // 6


def intermediate_identity(g: list[int]) -> tuple[list[int], list[int]]:
    """Both sides of the evaluated identity:
    ((1-q)_q^inf/(1+q)_q^inf)^8 = 1 - 16 sum_n q^n (q^{2n} - 4 q^n + 1)/(1+q^n)^4,
    with every (1+q^n)^{-4} expanded by the cubic binomial series, to the
    order of g, the Gauss product `gauss_series`."""
    order = len(g) - 1
    g2 = _conv(g, g)
    g4 = _conv(g2, g2)
    lhs = _conv(g4, g4)
    rhs = [0] * (order + 1)
    rhs[0] = 1
    for n in range(1, order + 1):
        for j in range(0, (order - n) // n + 1):
            b = _binom_inv4(j)
            for shift, w in ((2 * n, 1), (n, -4), (0, 1)):
                e = n + shift + j * n
                if e <= order:
                    rhs[e] += -16 * w * b
    return lhs, rhs


def verify_jacobi(order: int) -> dict:
    """The eight-squares verdict: a row per n <= order, and the Gauss and
    intermediate identities.

    Row n compares r8(n) by enumeration, from theta^8 and from the divisor
    formula; it matches only if the sign-twisted companion, theta(-q)^8
    against the twisted formula, also agrees at q^n.  The Gauss identity
    is checked to at least order 100, and the intermediate identity on the
    prefix of that one Gauss product.
    """
    columns = zip(r8_oracle(order), theta_power8(order), jacobi_formula(order),
                  theta_power8(order, -1), jacobi_formula(order, twist=True))
    rows = [{"n": n, "r8_enum": a, "r8_theta": b, "r8_formula": c,
             "match": a == b == c and twisted == formula_twisted}
            for n, (a, b, c, twisted, formula_twisted) in enumerate(columns)]
    n_gauss = max(order, 100)
    gauss = gauss_series(n_gauss)
    inter_lhs, inter_rhs = intermediate_identity(gauss[:order + 1])
    return {"rows": rows, "all_match": all(r["match"] for r in rows),
            "gauss": gauss == theta(n_gauss, -1),
            "intermediate": inter_lhs == inter_rhs}
