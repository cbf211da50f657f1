"""Reference implementations that only the tests use.

Each is written through the public API of `superdenom`, and as plainly as
possible, so that it can check that API rather than repeat it: series are
built only through the checked `GradedSeries.from_terms` and read only
through `GradedSeries.items_canonical`.
"""

import math
import sys

from superdenom.analytic import TAIL_EPS
from superdenom.series import (
    BeyondCutoff,
    GradedSeries,
    LatticeSpec,
    cone_coords,
    linear_combine,
    mul,
)

# -- series ------------------------------------------------------------------

# A generic rank-3 lattice: K is the identity, so raw exponents are cone
# coordinates.
ID3 = LatticeSpec(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
# The rank-1 lattice of the powers of q.
QL = LatticeSpec(1, ((1,),))


def to_exps(lattice, coords):
    """The raw exponents Kinv.c of cone coordinates c."""
    if len(coords) != lattice.rank:
        raise ValueError(f"expected {lattice.rank} coordinates, got {len(coords)}")
    return tuple(sum(k * c for k, c in zip(row, coords)) for row in lattice.Kinv)


def from_coords(lattice, cutoff, terms):
    """The series of a {cone coordinates: coefficient} mapping."""
    return GradedSeries.from_terms(
        lattice, cutoff, {to_exps(lattice, k): c for k, c in terms.items()})


def degree_slice(s, d):
    """The monomials of degree exactly d, as {raw exponents: coefficient}."""
    if d > s.cutoff:
        raise BeyondCutoff(f"degree {d} beyond truncation {s.cutoff}")
    return {e: c for k, e, c in s.items_canonical() if sum(k) == d}


def coeff(s, exps):
    """Exact coefficient of the raw-exponent monomial: 0 outside the cone,
    BeyondCutoff for an in-cone monomial above the truncation degree."""
    _, in_cone, deg = cone_coords(s.lattice, exps)
    if not in_cone:
        return 0
    return degree_slice(s, deg).get(tuple(exps), 0)


def q0_face(s):
    """The terms of a series of raw exponents (n, ...) that have n = 0, the
    q^0 face of the gl(2|2)^ lattice, as a series of the same lattice and
    cutoff."""
    return GradedSeries.from_terms(
        s.lattice, s.cutoff, {e: c for _, e, c in s.items_canonical() if e[0] == 0})


def restrict(s, m):
    """The truncation law: s cut at the lower cutoff m is the series of
    its terms of degree at most m."""
    if m > s.cutoff:
        raise BeyondCutoff(f"cannot extend cutoff {s.cutoff} to {m}")
    return GradedSeries.from_terms(
        s.lattice, m, {e: c for k, e, c in s.items_canonical() if sum(k) <= m})


def invert(s):
    """1 / s up to the cutoff, for a constant term c0 = +-1: c0 times the
    sum of u**n with u = 1 - c0 * s, which has no constant term, so n runs
    to the cutoff at most."""
    one = GradedSeries.one(s.lattice, s.cutoff)
    c0 = coeff(s, (0,) * s.lattice.rank)
    assert c0 in (1, -1), f"constant term {c0} is not a unit"
    u = linear_combine([(1, one), (-c0, s)])
    inv = one
    for _ in range(s.cutoff):
        inv = linear_combine([(1, one), (1, mul(u, inv))])
    return linear_combine([(c0, inv)])


def eval_series(s, values):
    """s evaluated at numeric values of its variables, in raw-exponent
    order."""
    total = 0j
    for _, exps, c in s.items_canonical():
        v = complex(c)
        for val, e in zip(values, exps):
            if e:
                v *= val ** e
        total += v
    return total


# -- float evaluation ----------------------------------------------------------


def pole_distance(q, y):
    """Relative distance |y^2 -+ q^m| / q^m of y^2 from the nearest +-q^m,
    the pole set of B, which stays meaningful where both are tiny."""
    m = round(math.log(abs(y) ** 2, q))
    return min(abs(y * y - s * q ** k) / q ** k
               for k in range(m - 2, m + 3) for s in (1, -1))


def b_rounding_bound(q, y):
    """A bound on the rounding of B(y): eps times the number of summands
    times the sum of their absolute values, summed to the point where
    `analytic.eval_B` stops."""
    def parts(n):
        t = q ** n
        return [t / ((1 + t * y) * (1 + t * y * y)),
                t / ((1 - t * y) * (1 - t * y * y))]

    total, size, n = sum(parts(0)), sum(map(abs, parts(0))), 0
    while True:
        n += 1
        pair = parts(n) + parts(-n)
        total += sum(pair)
        size += sum(map(abs, pair))
        if abs(sum(pair)) < TAIL_EPS * max(1.0, abs(total)):
            return sys.float_info.epsilon * (4 * n + 2) * size
