"""Reference implementations that only the tests use.

Each is written through the public API of `superdenom`, and as plainly as
possible, so that it can check that API rather than repeat it: series are
built only through the checked `GradedSeries.from_terms`, and weights are
read as exact `Fraction` coordinates.
"""

from fractions import Fraction

from superdenom.roots import ALPHA, BETA1, BETA2, DELTA, Weight, WeylElement
from superdenom.series import BeyondCutoff, GradedSeries, linear_combine, mul

# -- series ------------------------------------------------------------------


def from_coords(lattice, cutoff, terms):
    """The series of a {cone coordinates: coefficient} mapping."""
    return GradedSeries.from_terms(
        lattice, cutoff, {lattice.to_exps(k): c for k, c in terms.items()})


def degree_slice(s, d):
    """The monomials of degree exactly d, as {raw exponents: coefficient}."""
    if d > s.cutoff:
        raise BeyondCutoff(f"degree {d} beyond truncation {s.cutoff}")
    return {e: c for k, e, c in s.items_canonical() if sum(k) == d}


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
    c0 = s.coeff((0,) * s.lattice.rank)
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


# -- weights and the Weyl group ----------------------------------------------


def coords(w):
    """The six coordinates of a weight, as Fractions."""
    return tuple(Fraction(h, 2) for h in w.halves)


def form(x, y):
    """The bilinear form on coordinate tuples: +1, +1, -1, -1 on the first
    four basis vectors, delta and Lambda0 isotropic and paired to 1."""
    return (x[0] * y[0] + x[1] * y[1] - x[2] * y[2] - x[3] * y[3]
            + x[4] * y[5] + x[5] * y[4])


def inner(a, b):
    """The form (a, b) of two weights, as an exact Fraction."""
    return form(coords(a), coords(b))


def weight_of(*vals):
    """The weight of six rational coordinates, each in 1/2 Z."""
    halves = [2 * Fraction(v) for v in vals]
    if len(halves) != 6 or any(h.denominator != 1 for h in halves):
        raise ValueError(f"{vals} are not six coordinates in 1/2 Z")
    return Weight(tuple(int(h) for h in halves))


def exp_to_weight(exps, affine=True):
    """The weight lam of the monomial e^lam of raw exponents exps."""
    n, a, b1, b2 = exps if affine else (0, *exps)
    return -(n * DELTA + a * ALPHA + b1 * BETA1 + b2 * BETA2)


def compose(w1, w2):
    """The Weyl composition law: w1 w2 in normal form, from s t_p s =
    t_{-p} within each infinite dihedral factor."""
    p = w1.p + (-w2.p if w1.eps else w2.p)
    pp = w1.pp + (-w2.pp if w1.epsp else w2.pp)
    return WeylElement(p, (w1.eps + w2.eps) % 2, pp, (w1.epsp + w2.epsp) % 2)
