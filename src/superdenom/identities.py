"""Builders and verifiers for the denominator identities.

The main object is the rank-4 series in (q, x, y1, y2): the infinite
product side, the cyclotomic prefactor in y1/y2, and the signed affine
orbit sum.  Auxiliary verifiers cover the finite identity (its q^0 face),
the affine sl(2|1) identity, the two-translation-lattice lemma and the
support shape of the ratio of the two sides.
"""

from __future__ import annotations

from functools import lru_cache

from . import roots
from .report import MAX_DIFFS, compare_series
from .series import (
    GL,
    SL21,
    GradedSeries,
    apply_binomials,
    apply_pochhammer,
    mul,
    ring_sum,
)

Q = (1, 0, 0, 0)

# The product side as Pochhammer families (head, sign, inverse), each
# prod_{n>=0} (1 + sign head q^n) or its inverse: the factor of a finite root
# and its translates by delta = q.  A family splits as
# (h; q)_inf = (1 + sign h)(1 + sign h q) (h q^2; q)_inf.  `_product` applies
# the 16 tails (h q^2; q)_inf first, in this order, then the low binomials,
# the h q layer before the h layer, families in this order within a layer;
# divide_by_lhs walks it all backwards.  Low-degree binomials touch nearly
# every term and grow the series most, so applying them last does the least
# work.  Counted in source terms the kernel `series._add_shifted` visits,
# build_lhs(40) costs 59,773 against 91,940 for whole families in the earlier
# order (64,381 for the split in that order), and build_lhs(24) 11,460
# against 14,761 (11,665).  The largest partial product falls from 7,807 to
# 5,696 terms at N = 40 (the final series has 3,704) and from 1,706 to 1,550
# at N = 24 (final 1,183).  The family order came from a local search over
# single moves of one family that lowers the count at both N = 24 and 40
# without raising either peak.  The ratio check does not divide by this
# product: it divides the orbit sum O by P' = LHS / prefactor, whose families
# `_quotient_families` derives from this schedule and `_PREFACTOR`.
_SCHEDULE = (
    (Q, -1, False),                # 1-q
    ((0, 1, 0, 0), -1, False),     # x
    ((1, -1, -1, -1), -1, False),  # q/(x y1 y2)
    (Q, -1, False), (Q, -1, False),
    (Q, -1, False),                # with the first: ((1-q)_q^inf)^4
    ((1, -1, 0, 0), -1, False),    # q/x
    ((0, 1, 1, 1), -1, False),     # x y1 y2
    ((1, 0, -1, 0), +1, True),     # q/y1
    ((1, -1, -1, 0), +1, True),    # q/(x y1)
    ((1, 0, 0, -1), +1, True),     # q/y2
    ((0, 1, 1, 0), +1, True),      # x y1
    ((1, -1, 0, -1), +1, True),    # q/(x y2)
    ((0, 1, 0, 1), +1, True),      # x y2
    ((0, 0, 1, 0), +1, True),      # y1
    ((0, 0, 0, 1), +1, True),      # y2
)

# The prefactor ((q; q)_inf)^2 / ((q y2/y1; q)_inf (q y1/y2; q)_inf) as
# families (head, sign, inverse), as in _SCHEDULE.
_PREFACTOR = (
    (Q, -1, False),
    (Q, -1, False),
    ((1, 0, -1, 1), -1, True),     # q y2/y1
    ((1, 0, 1, -1), -1, True),     # q y1/y2
)

# Where P' puts its two families that no schedule entry cancels, (q y2/y1; q)
# and (q y1/y2; q): before the last four surviving schedule entries.  The
# division of O by P' then visits 8,757 source terms at N = 24 and 45,349 at
# N = 40 (peaks 905 and 2,645), against 10,051 and 51,652 (923 and 3,183)
# with the two first; it was the best slot for the pair at both cutoffs.
_QUOTIENT_TAIL = 4

# Binomials split off the bottom of every family.  Splitting off more, up to
# all of them, changes the term count by under 0.3% at N = 24 and 40 but
# turns the 16 tails into about 200 single binomials; two keep one
# `apply_pochhammer` call per family.
_LOW_LAYERS = 2


def _delta(lattice):
    """Raw exponents of delta, the first basis vector: q on GL, z on SL21."""
    return (1,) + (0,) * (lattice.rank - 1)


def _shift(head, n):
    """Raw exponents of head * delta^n."""
    return (head[0] + n, *head[1:])


def _split_schedule(lattice, order: int, families):
    """The tails (head, sign, inverse) of families, in their order, and the
    low binomials (monomial, sign, inverse), top layer first, derived from
    each family's head; binomials above the cutoff are left out."""
    tails = [(_shift(h, _LOW_LAYERS), sign, inverse)
             for h, sign, inverse in families]
    low = [(_shift(h, n), sign, inverse)
           for n in reversed(range(_LOW_LAYERS))
           for h, sign, inverse in families
           if lattice.degree(_shift(h, n)) <= order]
    return tails, low


# build_lhs, build_prefactor and _divide_by keep this split: perfbench pins
# denom-stretch's 20 apply_pochhammer calls, and the ratio retrace is tuned.
def _product(lattice, order: int, families) -> GradedSeries:
    """The product of families: the tail of every family, one
    `apply_pochhammer` call each, then their low binomials in one
    `apply_binomials` call, top layer first (see `_split_schedule`)."""
    tails, low = _split_schedule(lattice, order, families)
    s = GradedSeries.one(lattice, order)
    for head, sign, inverse in tails:
        s = apply_pochhammer(s, head, _delta(lattice), sign, inverse)
    return apply_binomials(s, low)


def _root_families(lattice, finite, cartan: int):
    """The positive affine roots a as families (head, sign, inverse) of
    factors (1 - e^{-a}) for a even and 1/(1 + e^{-a}) for a odd: (v; delta)
    and (delta - v; delta) with the parity of v for each finite root v, a
    factor (raw exponents of e^{-v}, sign, inverse), and (delta; delta),
    even, `cartan` times."""
    return (list(finite)
            + [(_shift(tuple(-x for x in v), 1), sign, inverse)
               for v, sign, inverse in finite]
            + [(_delta(lattice), -1, False)] * cartan)


def _root_product(lattice, order: int, families) -> GradedSeries:
    """The product of families in one `apply_binomials` call: every
    binomial of degree <= order, the numerators first and then the inverse
    factors, each from the highest degree down; ties keep family order."""
    dg = lattice.degree(_delta(lattice))
    factors = []
    for head, sign, inverse in families:
        d = lattice.degree(head)
        factors += [(inverse, -d - n * dg, _shift(head, n), sign)
                    for n in range((order - d) // dg + 1)]
    factors.sort(key=lambda f: f[:2])
    return apply_binomials(GradedSeries.one(lattice, order),
                           [(e, sign, inverse) for inverse, _, e, sign in factors])


@lru_cache(maxsize=None)
def build_lhs(order: int) -> GradedSeries:
    """The infinite-product side, the product of the `_SCHEDULE` families;
    no partial product reaches twice the final series at N = 40.  Its
    independent cross-check is `lhs_from_roots`."""
    return _product(GL, order, _SCHEDULE)


def lhs_from_roots(order: int) -> GradedSeries:
    """The infinite-product side, the product by `_root_product` of the
    positive-root families `_root_families` reads off `roots.R_RHO_SEED`
    and the Cartan dimension 4: a cross-check of `build_lhs` that is
    independent of the hand-listed Pochhammer heads of `_SCHEDULE`."""
    return _root_product(GL, order, _root_families(GL, roots.R_RHO_SEED, 4))


def _divide_by(s: GradedSeries, families) -> GradedSeries:
    """Exact division by the product of families, factor by factor.

    Retraces the split build of that product (see `_split_schedule`)
    backwards, each factor inverted: the low binomials from the last one
    applied to the first, then the tails in reverse order.  When s equals
    the product, every intermediate is one of the build's partial
    products, so none is larger than those.
    """
    tails, low = _split_schedule(s.lattice, s.cutoff, families)
    s = apply_binomials(s, [(e, sign, not inverse)
                            for e, sign, inverse in reversed(low)])
    for head, sign, inverse in reversed(tails):
        s = apply_pochhammer(s, head, _delta(s.lattice), sign, not inverse)
    return s


def divide_by_lhs(s: GradedSeries) -> GradedSeries:
    """Exact division by the product side: `build_lhs` retraced backwards.

    No run path calls it since the ratio check divides by P'.  It stays only
    because perfbench/spans.py traces it by name, and goes with the next
    change to the benchmark.
    """
    return _divide_by(s, _SCHEDULE)


def _quotient_families():
    """P' = LHS / prefactor as families: `_SCHEDULE` times every
    `_PREFACTOR` family inverted.  An inverted family cancels one schedule
    entry equal to the prefactor family, if there is one; the uncancelled
    ones go in before the last `_QUOTIENT_TAIL` surviving schedule entries,
    which keep their order."""
    rest = list(_SCHEDULE)
    new = []
    for family in _PREFACTOR:
        if family in rest:
            rest.remove(family)
        else:
            head, sign, inverse = family
            new.append((head, sign, not inverse))
    cut = len(rest) - _QUOTIENT_TAIL
    return rest[:cut] + new + rest[cut:]


@lru_cache(maxsize=None)
def build_prefactor(order: int) -> GradedSeries:
    """((1-q)_q^inf)^2 / ((1-q y2/y1)_q^inf (1-q y1/y2)_q^inf), the product
    of the `_PREFACTOR` families.  Its independent cross-check is
    `prefactor_fn_series`."""
    return _product(GL, order, _PREFACTOR)


def prefactor_fn_series(order: int) -> GradedSeries:
    """The prefactor from the closed-form coefficients of its cyclotomic
    pieces f_n(y1/y2): a cross-check of `build_prefactor` that is
    independent of series multiplication and division.  A monomial
    q^m (y1/y2)^k has degree 4m and needs |k| <= m to stay in the cone.
    """
    terms = {(0, 0, 0, 0): 1}
    n = 1
    while 4 * n <= order:
        j = 0
        while True:
            m = (j + 1) * (j + 2 * n) // 2
            if 4 * m > order:
                break
            c = (-1) ** j
            for k, w in ((n, 1), (-n, 1), (n - 1, -1), (1 - n, -1)):
                e = (m, 0, k, -k)
                terms[e] = terms.get(e, 0) + w * c
            j += 1
        n += 1
    return GradedSeries.from_terms(GL, order, terms)


def _closed_ring(n: int):
    """The terms (sign, base, factors) of translation power n, on GL."""
    return [(1, (n, 0, 0, 0), [((n, 0, 1, 0), 1, True), ((n, 0, 0, 1), 1, True)]),
            (-1, (n, 1, 0, 0), [((n, 1, 1, 0), 1, True), ((n, 1, 0, 1), 1, True)])]


@lru_cache(maxsize=None)
def build_orbit_sum(order: int) -> GradedSeries:
    """Signed affine orbit sum of e^rho/((1+e^{-b1})(1+e^{-b2})), rho-normalized.

    Sums the two hand-derived terms of each translation power.  Its
    independent cross-check is ``roots.orbit_sum("What_alpha",
    roots.STANDARD_SEED, order)``, which applies the What_alpha group
    elements to rho and to every seed root by the Gram-matrix reflection
    and translation (`roots.act`), so it does not rely on that derivation.
    """
    return ring_sum(GL, order, _closed_ring)


@lru_cache(maxsize=None)
def build_rhs(order: int) -> GradedSeries:
    return mul(build_prefactor(order), build_orbit_sum(order))


def verify_denominator(order: int) -> dict:
    """Product side versus prefactor times orbit sum, coefficient by coefficient."""
    return compare_series("denominator-gl22-affine",
                          build_lhs(order), build_rhs(order))


def verify_prefactor(order: int) -> dict:
    return compare_series("prefactor-product-vs-series",
                          build_prefactor(order), prefactor_fn_series(order))


@lru_cache(maxsize=None)
def build_finite_r(order: int) -> GradedSeries:
    """(1-x)(1-x y1 y2) / ((1+y1)(1+y2)(1+x y1)(1+x y2)), on the q^0 face
    of GL: `roots.R_RHO_SEED` expanded under the empty word, so no
    reflection or translation enters, independent of the Weyl action the
    W_alpha and W_gamma sums use."""
    return roots.expand_orbit_term(roots.GL22, (), roots.R_RHO_SEED, order)


def verify_finite_identity(order: int) -> dict:
    """Three-way equality: product form, W_alpha sum and W_gamma sum; the
    verdict is that of the first of the two pairs that differs."""
    r = build_finite_r(order)
    wa = roots.orbit_sum("W_alpha", roots.STANDARD_SEED, order)
    wg = roots.orbit_sum("W_gamma", roots.STANDARD_SEED, order)
    rep = compare_series("denominator-gl22-finite", r, wa)
    rep2 = compare_series("denominator-gl22-finite", wa, wg)
    extra = {"product_vs_walpha": rep["matched"], "walpha_vs_wgamma": rep2["matched"]}
    rep = rep2 if rep["matched"] else rep
    rep["extra"] = extra
    return rep


def verify_talpha_tgamma(order: int) -> dict:
    """Translation orbit sums along alpha and along gamma of R e^rho agree."""
    ta = roots.orbit_sum("T_alpha", roots.R_RHO_SEED, order)
    tg = roots.orbit_sum("T_gamma", roots.R_RHO_SEED, order)
    return compare_series("talpha-vs-tgamma", ta, tg)


@lru_cache(maxsize=None)
def build_sl21_lhs(order: int) -> GradedSeries:
    """The sl(2|1) product side, the product by `_root_product` of the
    positive-root families `_root_families` reads off
    `roots.SL21_POSITIVE` and the Cartan dimension 2."""
    return _root_product(SL21, order, _root_families(SL21, roots.SL21_POSITIVE, 2))


def _sl21_ring(n: int):
    # z^{n^2} e^{-n alpha'} / (1 + z^n u1)  -  z^{n^2} e^{n alpha'} / (1 + z^n u2^{-1})
    return [(1, (n * n, n, n), [((n, 1, 0), 1, True)]),
            (-1, (n * n, -n, -n), [((n, 0, -1), 1, True)])]


@lru_cache(maxsize=None)
def build_sl21_rhs(order: int) -> GradedSeries:
    """The sl(2|1) orbit sum from the hand-derived `_sl21_ring`.  Its
    independent cross-check is ``roots.orbit_sum("sl21", roots.SL21_SEED,
    order)``, which applies t_{-k alpha'} and t_{-k alpha'} s_{alpha'} to
    rho-hat and the seed root by the Gram-matrix action at level 1."""
    return ring_sum(SL21, order, _sl21_ring)


def verify_sl21(order: int) -> dict:
    return compare_series("denominator-sl21-affine",
                          build_sl21_lhs(order), build_sl21_rhs(order))


def ratio_support_check(order: int) -> dict:
    """Y = RHS / LHS: support must lie in {q^n (y1/y2)^j, |j| <= n} and Y = 1.

    Y is computed as O / P', the orbit sum O divided by P' = LHS /
    prefactor, whose families `_quotient_families` derives; no right side
    is built.  The support inclusion is the useful diagnostic when a
    builder is off; the identity itself forces Y = 1.
    """
    y = _divide_by(build_orbit_sum(order), _quotient_families())
    bad = [e for e in y.support() if e[1] != 0 or e[3] != -e[2]]
    rep = compare_series("ratio-support", y, GradedSeries.one(GL, order))
    rep["extra"] = {"support_ok": not bad, "is_one": rep["matched"],
                    "bad_monomials": [list(e) for e in bad[:MAX_DIFFS]]}
    rep["matched"] = rep["matched"] and not bad
    return rep
