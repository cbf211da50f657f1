"""Builders and verifiers for the denominator identities.

The main object is the rank-4 series in (q, x, y1, y2): the infinite
product side, the cyclotomic prefactor in y1/y2, and the signed affine
orbit sum.  Auxiliary verifiers cover the finite rank-3 identity, the
affine sl(2|1) identity, the two-translation-lattice lemma and the
support shape of the ratio of the two sides.
"""

from __future__ import annotations

from functools import lru_cache

from . import roots
from .report import QReport, compare_series
from .series import (
    GradedSeries,
    apply_binomials,
    apply_pochhammer,
    expand_term,
    finite_gl_lattice,
    gl_lattice,
    mul,
    ring_sum,
    sl21_lattice,
)

GL = gl_lattice()
GL3 = finite_gl_lattice()
SL21 = sl21_lattice()

Q = (1, 0, 0, 0)

# The product side as Pochhammer families (head, step, sign, inverse), each
# prod_{n>=0} (1 + sign head step^n) or its inverse; every step is q.  A
# family splits as (h; g)_inf = (1 + sign h)(1 + sign h g) (h g^2; g)_inf.
# `_product` applies the 16 tails (h g^2; g)_inf first, in this order, then
# the low binomials, the h g layer before the h layer, families in this order
# within a layer; divide_by_lhs walks it all backwards.  Low-degree binomials
# touch nearly every term and grow the series most, so applying them last
# does the least work.  Counted in source terms the kernel
# `series._add_shifted` visits, build_lhs(40) costs 59,773 against 91,940 for
# whole families in the earlier order (64,381 for the split in that order),
# and build_lhs(24) 11,460 against 14,761 (11,665).  The largest partial
# product falls from 7,807 to 5,696 terms at N = 40 (the final series has
# 3,704) and from 1,706 to 1,550 at N = 24 (final 1,183).  The family order
# came from a local search over single moves of one family that lowers the
# count at both N = 24 and 40 without raising either peak.  The ratio check
# does not divide by this product: it divides the orbit sum O by
# P' = LHS / prefactor, whose families `_quotient_families` derives from
# this schedule and `_PREFACTOR`.
_SCHEDULE = (
    (Q, Q, -1, False),                # 1-q
    ((0, 1, 0, 0), Q, -1, False),     # x
    ((1, -1, -1, -1), Q, -1, False),  # q/(x y1 y2)
    (Q, Q, -1, False), (Q, Q, -1, False),
    (Q, Q, -1, False),                # with the first: ((1-q)_q^inf)^4
    ((1, -1, 0, 0), Q, -1, False),    # q/x
    ((0, 1, 1, 1), Q, -1, False),     # x y1 y2
    ((1, 0, -1, 0), Q, +1, True),     # q/y1
    ((1, -1, -1, 0), Q, +1, True),    # q/(x y1)
    ((1, 0, 0, -1), Q, +1, True),     # q/y2
    ((0, 1, 1, 0), Q, +1, True),      # x y1
    ((1, -1, 0, -1), Q, +1, True),    # q/(x y2)
    ((0, 1, 0, 1), Q, +1, True),      # x y2
    ((0, 0, 1, 0), Q, +1, True),      # y1
    ((0, 0, 0, 1), Q, +1, True),      # y2
)

# The prefactor ((q; q)_inf)^2 / ((q y2/y1; q)_inf (q y1/y2; q)_inf) as
# families (head, step, sign, inverse), as in _SCHEDULE.
_PREFACTOR = (
    (Q, Q, -1, False),
    (Q, Q, -1, False),
    ((1, 0, -1, 1), Q, -1, True),     # q y2/y1
    ((1, 0, 1, -1), Q, -1, True),     # q y1/y2
)

# The sl(2|1) product side on the (z, u1, u2) lattice as families, as in
# _SCHEDULE; every step is z.
Z = (1, 0, 0)
_SL21_PRODUCT = (
    ((0, 1, 1), Z, -1, False), ((1, -1, -1), Z, -1, False),  # u1 u2, z/(u1 u2)
    (Z, Z, -1, False), (Z, Z, -1, False),
    ((0, 1, 0), Z, +1, True), ((1, -1, 0), Z, +1, True),     # u1, z/u1
    ((0, 0, 1), Z, +1, True), ((1, 0, -1), Z, +1, True),     # u2, z/u2
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


def _shift(head, step, n):
    """Raw exponents of head * step^n."""
    return tuple(h + n * g for h, g in zip(head, step))


def _split_schedule(lattice, order: int, families):
    """The tails (head, step, sign, inverse) of families, in their order,
    and the low binomials (monomial, sign, inverse), top layer first, each
    family's factors derived from its (head, step); binomials above the
    cutoff are left out."""
    tails = [(_shift(h, g, _LOW_LAYERS), g, sign, inverse)
             for h, g, sign, inverse in families]
    low = [(_shift(h, g, n), sign, inverse)
           for n in reversed(range(_LOW_LAYERS))
           for h, g, sign, inverse in families
           if lattice.degree(_shift(h, g, n)) <= order]
    return tails, low


def _product(lattice, order: int, families) -> GradedSeries:
    """The product of families: the tail of every family, one
    `apply_pochhammer` call each, then their low binomials in one
    `apply_binomials` call, top layer first (see `_split_schedule`)."""
    tails, low = _split_schedule(lattice, order, families)
    s = GradedSeries.one(lattice, order)
    for head, step, sign, inverse in tails:
        s = apply_pochhammer(s, head, step, sign, inverse)
    return apply_binomials(s, low)


def _positive_root_monomials(order: int):
    """(is_even, raw exponents of e^{-root}) for all positive affine roots
    whose monomial has degree <= order; imaginary roots s*delta enter with
    multiplicity 4 (the Cartan dimension)."""
    even_fin = [(0, 1, 0, 0), (0, 1, 1, 1)]                      # alpha, gamma
    odd_fin = [(0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    out = [(True, e) for e in even_fin] + [(False, e) for e in odd_fin]
    s = 1
    while True:
        layer = []
        for sgn in (1, -1):
            for e in even_fin:
                layer.append((True, (s, sgn * e[1], sgn * e[2], sgn * e[3])))
            for e in odd_fin:
                layer.append((False, (s, sgn * e[1], sgn * e[2], sgn * e[3])))
        layer.extend((True, (s, 0, 0, 0)) for _ in range(4))
        layer = [(p, e) for p, e in layer if GL.degree(e) <= order]
        if not layer:
            break
        out.extend(layer)
        s += 1
    return [(p, e) for p, e in out if GL.degree(e) <= order]


@lru_cache(maxsize=None)
def build_lhs(order: int) -> GradedSeries:
    """The infinite-product side, the product of the `_SCHEDULE` families;
    no partial product reaches twice the final series at N = 40.  Its
    independent cross-check is `lhs_from_roots`."""
    return _product(GL, order, _SCHEDULE)


def lhs_from_roots(order: int) -> GradedSeries:
    """The infinite-product side, one binomial per positive affine root
    from `_positive_root_monomials`: a cross-check of `build_lhs` that is
    independent of the hand-listed Pochhammer heads of `_SCHEDULE`."""
    return apply_binomials(GradedSeries.one(GL, order),
                           [(e, -1, False) if is_even else (e, 1, True)
                            for is_even, e in _positive_root_monomials(order)])


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
    for head, step, sign, inverse in reversed(tails):
        s = apply_pochhammer(s, head, step, sign, not inverse)
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
            head, step, sign, inverse = family
            new.append((head, step, sign, not inverse))
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


def _closed_orbit_term(order: int, n: int):
    return [expand_term(GL, order, 1, (n, 0, 0, 0),
                        dens=[(n, 0, 1, 0), (n, 0, 0, 1)]),
            expand_term(GL, order, -1, (n, 1, 0, 0),
                        dens=[(n, 1, 1, 0), (n, 1, 0, 1)])]


@lru_cache(maxsize=None)
def build_orbit_sum(order: int) -> GradedSeries:
    """Signed affine orbit sum of e^rho/((1+e^{-b1})(1+e^{-b2})), rho-normalized.

    Sums the two hand-derived terms of each translation power.  Its
    independent cross-check is ``roots.orbit_sum("What_alpha",
    roots.STANDARD_SEED, GL, order)``, which applies the What_alpha group
    elements to the seed weight by weight (`roots.WeylElement.apply`), so
    it does not rely on that derivation.
    """
    return ring_sum(lambda n: _closed_orbit_term(order, n))


@lru_cache(maxsize=None)
def build_rhs(order: int) -> GradedSeries:
    return mul(build_prefactor(order), build_orbit_sum(order))


def verify_denominator(order: int) -> QReport:
    """Product side versus prefactor times orbit sum, coefficient by coefficient."""
    return compare_series("denominator-gl22-affine",
                          build_lhs(order), build_rhs(order))


def verify_prefactor(order: int) -> QReport:
    return compare_series("prefactor-product-vs-series",
                          build_prefactor(order), prefactor_fn_series(order))


@lru_cache(maxsize=None)
def build_finite_r(order: int) -> GradedSeries:
    """(1-x)(1-x y1 y2) / ((1+y1)(1+y2)(1+x y1)(1+x y2)) on the rank-3 lattice."""
    return expand_term(GL3, order, 1, (0, 0, 0),
                       nums=[(1, 0, 0), (1, 1, 1)],
                       dens=[(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)])


def verify_finite_identity(order: int) -> QReport:
    """Three-way equality: product form, W_alpha sum and W_gamma sum."""
    r = build_finite_r(order)
    wa = roots.orbit_sum("W_alpha", roots.STANDARD_SEED, GL3, order)
    wg = roots.orbit_sum("W_gamma", roots.STANDARD_SEED, GL3, order)
    rep = compare_series("denominator-gl22-finite", r, wa)
    rep2 = compare_series("denominator-gl22-finite", wa, wg)
    rep.extra = {"product_vs_walpha": rep.matched, "walpha_vs_wgamma": rep2.matched}
    rep.matched = rep.matched and rep2.matched
    rep.first_diffs = rep.first_diffs or rep2.first_diffs
    return rep


def verify_talpha_tgamma(order: int) -> QReport:
    """Translation orbit sums along alpha and along gamma of R e^rho agree."""
    ta = roots.orbit_sum("T_alpha", roots.R_RHO_SEED, GL, order)
    tg = roots.orbit_sum("T_gamma", roots.R_RHO_SEED, GL, order)
    return compare_series("talpha-vs-tgamma", ta, tg)


@lru_cache(maxsize=None)
def build_sl21_lhs(order: int) -> GradedSeries:
    """The sl(2|1) product side, the product of the `_SL21_PRODUCT`
    families."""
    return _product(SL21, order, _SL21_PRODUCT)


def _sl21_ring(order: int, n: int):
    # z^{n^2} e^{-n alpha'} / (1 + z^n u1)  -  z^{n^2} e^{n alpha'} / (1 + z^n u2^{-1})
    t1 = expand_term(SL21, order, 1, (n * n, n, n), dens=[(n, 1, 0)])
    t2 = expand_term(SL21, order, -1, (n * n, -n, -n), dens=[(n, 0, -1)])
    return [t1, t2]


@lru_cache(maxsize=None)
def build_sl21_rhs(order: int) -> GradedSeries:
    return ring_sum(lambda n: _sl21_ring(order, n))


def verify_sl21(order: int) -> QReport:
    return compare_series("denominator-sl21-affine",
                          build_sl21_lhs(order), build_sl21_rhs(order))


def ratio_support_check(order: int) -> QReport:
    """Y = RHS / LHS: support must lie in {q^n (y1/y2)^j, |j| <= n} and Y = 1.

    Y is computed as O / P', the orbit sum O divided by P' = LHS /
    prefactor, whose families `_quotient_families` derives; no right side
    is built.  The support inclusion is the useful diagnostic when a
    builder is off; the identity itself forces Y = 1.
    """
    y = _divide_by(build_orbit_sum(order), _quotient_families())
    bad = [e for e in y.support() if e[1] != 0 or e[3] != -e[2]]
    one = GradedSeries.one(GL, order)
    rep = compare_series("ratio-support", y, one)
    rep.extra = {"support_ok": not bad,
                 "is_one": rep.matched,
                 "bad_monomials": [list(e) for e in bad[:20]]}
    rep.matched = rep.matched and not bad
    return rep
