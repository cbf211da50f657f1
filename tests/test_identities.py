"""Builders and verifiers for the denominator identities."""

import json
import pathlib

import pytest
from oracles import coeff, degree_slice, q0_face, restrict

from superdenom import identities as ids
from superdenom import roots, series
from superdenom.series import (
    GradedSeries,
    apply_binomials,
    apply_pochhammer,
    expand_term,
    linear_combine,
    mul,
    serialize,
)

GL = ids.GL
SL21 = ids.SL21

DATA = pathlib.Path(__file__).parent / "data"


def _golden_slices():
    doc = json.loads((DATA / "denom_slice1.json").read_text())
    return ({tuple(r["e"]): r["c"] for r in doc["degree0"]},
            {tuple(r["e"]): r["c"] for r in doc["degree1"]})


# -- product side ------------------------------------------------------------


def test_passes_leave_cached_lhs_unchanged():
    # build_lhs is lru_cached, so the in-place binomial passes must run on a
    # copy of their input, never on the cached series itself
    lhs = ids.build_lhs(10)
    before = serialize(lhs)
    apply_pochhammer(lhs, (0, 1, 0, 0), ids.Q, -1)
    apply_pochhammer(lhs, (0, 0, 1, 0), ids.Q, 1, inverse=True)
    apply_binomials(lhs, [((0, 1, 0, 0), -1, False)])
    apply_binomials(lhs, [((0, 0, 1, 0), 1, True)])
    ids._divide_by(lhs, ids._SCHEDULE)
    assert ids.build_lhs(10) is lhs
    assert serialize(lhs) == before


def test_lhs_low_degree_slices_match_golden():
    d0, d1 = _golden_slices()
    lhs = ids.build_lhs(8)
    assert degree_slice(lhs, 0) == d0
    assert degree_slice(lhs, 1) == d1


def test_lhs_methods_agree():
    for order in (0, 1, 2, 16, 32, 48):
        assert ids.lhs_from_roots(order) == ids.build_lhs(order), order


def test_lhs_restriction_consistency():
    # building at a high cutoff and truncating equals building low, so a
    # match at N implies a match at every smaller cutoff
    assert restrict(ids.build_lhs(20), 10) == ids.build_lhs(10)
    assert restrict(ids.build_rhs(20), 10) == ids.build_rhs(10)


def test_schedule_families_are_the_positive_roots():
    # the hand-listed families are, as a multiset, (v; q) and (q/v; q) for
    # the six finite roots v and (q; q) four times; sl(2|1)^ has three
    # finite roots and Cartan dimension 2
    assert sorted(ids._SCHEDULE) == sorted(ids._root_families(GL, roots.R_RHO_SEED, 4))
    assert len(ids._root_families(SL21, roots.SL21_POSITIVE, 2)) == 8


def _family_product(order):
    # the product side one whole Pochhammer family after another
    s = GradedSeries.one(GL, order)
    for head, step, sign, inverse in ids._SCHEDULE:
        s = apply_pochhammer(s, head, step, sign, inverse)
    return s


@pytest.mark.parametrize("order", range(49))
def test_split_build_is_the_family_product(order):
    lhs = ids.build_lhs(order)
    assert lhs == _family_product(order)
    assert ids._divide_by(lhs, ids._SCHEDULE) == GradedSeries.one(GL, order)


class _Trace:
    """What the product-side passes do: the source terms the kernel visits
    and the size of every intermediate series."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.visited = 0
        self.sizes = []


@pytest.fixture
def trace(monkeypatch):
    # A source is counted when zip takes it, so a slice that an in-place
    # division reads is counted once it is finished.  `apply_binomials` is
    # replayed one factor at a time, which makes the same kernel calls and
    # records each low binomial's output too.
    t = _Trace()
    kernel = series._add_shifted

    def counting(dsts, srcs, m, scale):
        def taken():
            for src in srcs:
                t.visited += len(src)
                yield src
        kernel(dsts, taken(), m, scale)

    def pochhammer(*args, **kwargs):
        out = apply_pochhammer(*args, **kwargs)
        t.sizes.append(len(out))
        return out

    def binomials(s, factors):
        for factor in factors:
            s = apply_binomials(s, [factor])
            t.sizes.append(len(s))
        return s

    monkeypatch.setattr(series, "_add_shifted", counting)
    monkeypatch.setattr(ids, "apply_pochhammer", pochhammer)
    monkeypatch.setattr(ids, "apply_binomials", binomials)
    return t


def test_factor_schedule_keeps_intermediates_small(trace):
    # the factor order is the whole optimisation: the build never holds more
    # than 1,550 terms at N = 24, and the division of the right side
    # retraces the build's partial products backwards down to 1
    rhs = ids.build_rhs(24)  # its prefactor calls apply_pochhammer too
    trace.reset()
    ids.build_lhs.__wrapped__(24)
    built = trace.sizes
    assert max(built) <= 1_550
    tails, low = ids._split_schedule(GL, 24, ids._SCHEDULE)
    assert len(built) == len(tails) + len(low) == 48
    trace.reset()
    ids._divide_by(rhs, ids._SCHEDULE)
    assert trace.sizes == built[-2::-1] + [1]


def test_factor_schedule_makes_few_term_operations(monkeypatch, trace):
    # the work of the build and of the ratio division, in source terms the
    # kernel visits.  Whole families in the earlier order visit 91,940 and
    # 12,518 with a peak of 7,807 terms; the split in that order 64,381
    # and 11,665 with a peak of 6,207.
    rhs = ids.build_rhs(24)
    trace.reset()
    lhs = ids.build_lhs.__wrapped__(40)
    assert trace.visited <= 59_773
    assert max(trace.sizes) <= 5_696
    trace.reset()
    assert ids._divide_by(rhs, ids._SCHEDULE) == GradedSeries.one(GL, 24)
    assert trace.visited <= 11_460
    monkeypatch.undo()
    assert lhs == ids.build_lhs(40)


def test_root_rule_makes_few_term_operations(monkeypatch, trace):
    # the root rule applies numerators before inverse factors, each from the
    # highest degree down; the positive roots lowest degree first visit
    # 305,660 source terms at N = 40 with a peak of 16,848
    lhs = ids.lhs_from_roots(40)
    assert trace.visited <= 52_867
    assert max(trace.sizes) <= 5_696
    trace.reset()
    ids.lhs_from_roots(24)
    assert trace.visited <= 11_049
    assert max(trace.sizes) <= 1_550
    monkeypatch.undo()
    assert lhs == ids.build_lhs(40)


def test_sl21_root_rule_makes_few_term_operations(trace):
    # the sl(2|1) side's eight families in the root rule's order; the
    # result has 259 terms
    assert len(ids.build_sl21_lhs.__wrapped__(60)) == 259
    assert trace.visited <= 14_037
    assert max(trace.sizes) <= 965


def test_quotient_division_makes_few_term_operations(trace):
    # the ratio check divides the orbit sum (583 terms at N = 24) by
    # P' = LHS / prefactor; the right side's multiply (4,488 source terms)
    # and its division by the product side (11,460, peak 1,550) together
    # visit 15,948
    orbit = ids.build_orbit_sum(24)
    trace.reset()
    y = ids._divide_by(orbit, ids._quotient_families())
    assert y == GradedSeries.one(GL, 24)
    assert trace.visited <= 8_757
    assert max(trace.sizes) <= 905


# -- prefactor ---------------------------------------------------------------


def test_prefactor_known_coefficients():
    p = ids.build_prefactor(12)
    assert coeff(p, (0, 0, 0, 0)) == 1
    assert coeff(p, (1, 0, 0, 0)) == -2      # q
    assert coeff(p, (1, 0, 1, -1)) == 1      # q y1/y2
    assert coeff(p, (1, 0, -1, 1)) == 1      # q y2/y1
    assert coeff(p, (2, 0, 2, -2)) == 1      # q^2 (y1/y2)^2
    assert coeff(p, (0, 1, 0, 0)) == 0       # no bare x anywhere
    # support is confined to q^m (y1/y2)^k
    for _, e, _ in p.items_canonical():
        assert e[1] == 0 and e[3] == -e[2]


@pytest.mark.parametrize("order", [8, 17, 25, 40])
def test_prefactor_methods_agree(order):
    assert ids.build_prefactor(order) == ids.prefactor_fn_series(order)


# -- orbit sum ---------------------------------------------------------------


@pytest.mark.parametrize("order", [16, 24, 32, 40])
def test_orbit_sum_methods_agree(order):
    closed = ids.build_orbit_sum(order)
    assert closed == roots.orbit_sum("What_alpha", roots.STANDARD_SEED, order)
    # the sum over the What_gamma rings gives the same series
    assert closed == roots.orbit_sum("What_gamma", roots.STANDARD_SEED, order)


@pytest.mark.parametrize("order", [18, 60])
def test_sl21_orbit_sum_methods_agree(order):
    # the hand-derived sl(2|1) rings against the level-1 Weyl-group route
    assert ids.build_sl21_rhs(order) == roots.orbit_sum("sl21", roots.SL21_SEED, order)


def _rings(ring, n, order=40):
    """The expansion of the terms of rings n and -n, ring 0 once."""
    return linear_combine((1, expand_term(GL, order, *t))
                          for k in sorted({n, -n}) for t in ring(k))


def _weyl_ring(group):
    return lambda k: [roots.normalized_term(roots.GL22, w, roots.STANDARD_SEED)
                      for w in roots._ring(group, k)]


@pytest.mark.parametrize("n", range(8))
def test_closed_rings_are_the_weyl_rings(n):
    # ring by ring, not only in total: the closed terms of translation
    # power +-n are those the What_alpha and What_gamma elements give
    closed = _rings(ids._closed_ring, n)
    assert closed == _rings(_weyl_ring("What_alpha"), n)
    assert closed == _rings(_weyl_ring("What_gamma"), n)
    # ring n >= 1 starts at degree 4n - 3, the bound `ring_sum` relies on
    assert min(GL.degree(e) for e in closed.support()) == max(4 * n - 3, 0)


def test_orbit_sum_leading_terms():
    s = ids.build_orbit_sum(8)
    # degree 0: the n = 0 identity term contributes 1, s_alpha nothing
    assert coeff(s, (0, 0, 0, 0)) == 1
    # degree 1 matches the product side: the prefactor has nothing below
    # degree 4, so the orbit sum must already produce the four monomials
    assert degree_slice(s, 1) == {(0, 0, 1, 0): -1, (0, 0, 0, 1): -1,
                                  (0, 1, 0, 0): -1, (1, -1, -1, -1): -1}


# -- main identity -----------------------------------------------------------


@pytest.mark.parametrize("order", [4, 8, 16])
def test_denominator_small_orders(order):
    rep = ids.verify_denominator(order)
    assert rep["matched"] and not rep["first_diffs"]
    assert rep["lhs_terms"] == rep["rhs_terms"] > 0


def test_denominator_report_records_mismatch():
    # a perturbed right side must be flagged with the offending monomial
    lhs = ids.build_lhs(6)
    bad = linear_combine([(1, ids.build_rhs(6)),
                          (1, GradedSeries.from_terms(GL, 6, {(1, 0, 0, 0): 1}))])
    from superdenom.report import compare_series
    rep = compare_series("perturbed", lhs, bad)
    assert not rep["matched"]
    assert rep["first_diffs"][0]["e"] == [1, 0, 0, 0]


# -- finite identity ---------------------------------------------------------


def test_finite_product_closed_form():
    # 1/((1+y1)(1+y2)) - x/((1+x y1)(1+x y2)) equals the product form
    a = expand_term(GL, 16, 1, (0, 0, 0, 0),
                    [((0, 0, 1, 0), 1, True), ((0, 0, 0, 1), 1, True)])
    b = expand_term(GL, 16, -1, (0, 1, 0, 0),
                    [((0, 1, 1, 0), 1, True), ((0, 1, 0, 1), 1, True)])
    assert linear_combine([(1, a), (1, b)]) == ids.build_finite_r(16)


@pytest.mark.parametrize("order", [8, 24])
def test_finite_identity(order):
    rep = ids.verify_finite_identity(order)
    assert rep["matched"]
    assert rep["extra"] == {"product_vs_walpha": True, "walpha_vs_wgamma": True}


@pytest.mark.parametrize("order", [0, 1, 8, 24, 40])
def test_finite_identity_is_the_q0_face_of_the_affine_one(order):
    # on the shared lattice the finite product and orbit sum are the q^0
    # terms of the affine product side, orbit sum and right side
    walpha = roots.orbit_sum("W_alpha", roots.STANDARD_SEED, order)
    assert q0_face(ids.build_lhs(order)) == ids.build_finite_r(order)
    assert q0_face(ids.build_orbit_sum(order)) == walpha
    assert q0_face(ids.build_rhs(order)) == walpha
    assert len(ids.build_finite_r(order)) > 0


# -- translation lemma -------------------------------------------------------


def test_rrho_seed_expansion_closed_form():
    # the seed term is (1-x)(1-x y1 y2)/((1+y1)(1+y2)(1+x y1)(1+x y2))
    direct = expand_term(GL, 12, 1, (0, 0, 0, 0),
                         [((0, 1, 0, 0), -1, False), ((0, 1, 1, 1), -1, False),
                          ((0, 0, 1, 0), 1, True), ((0, 0, 0, 1), 1, True),
                          ((0, 1, 1, 0), 1, True), ((0, 1, 0, 1), 1, True)])
    assert roots.expand_orbit_term(roots.GL22, (), roots.R_RHO_SEED, 12) == direct


def test_rrho_seed_isotropic_for_both_lattices():
    # rho-hat has level 0 on gl(2|2)^, so the translated tops stay at level
    # 0, which keeps both orbit sums inside the cone ring by ring
    form = roots.GL22.form
    assert roots.GL22.level == 0
    assert form(roots.ALPHA, roots.ALPHA) == -form(roots.GAMMA, roots.GAMMA)


@pytest.mark.parametrize("order", [8, 16])
def test_talpha_tgamma_orbit_sums(order):
    assert ids.verify_talpha_tgamma(order)["matched"]


# -- sl(2|1) -----------------------------------------------------------------


def test_sl21_lhs_low_slices():
    lhs = ids.build_sl21_lhs(9)
    assert degree_slice(lhs, 0) == {(0, 0, 0): 1}
    # -u1 - u2 - z/(u1 u2)
    assert degree_slice(lhs, 1) == {(0, 1, 0): -1, (0, 0, 1): -1, (1, -1, -1): -1}


def test_sl21_rhs_low_slices():
    rhs = ids.build_sl21_rhs(9)
    assert degree_slice(rhs, 0) == {(0, 0, 0): 1}
    assert degree_slice(rhs, 1) == {(0, 1, 0): -1, (0, 0, 1): -1, (1, -1, -1): -1}


@pytest.mark.parametrize("order", range(61))
def test_sl21_identity(order):
    rep = ids.verify_sl21(order)
    assert rep["matched"] and not rep["first_diffs"]


# -- ratio support -----------------------------------------------------------


def test_ratio_support(order=16):
    rep = ids.ratio_support_check(order)
    assert rep["matched"]
    assert rep["extra"]["support_ok"] and rep["extra"]["is_one"]
    assert rep["extra"]["bad_monomials"] == []


@pytest.mark.parametrize("order", range(49))
def test_quotient_families_are_lhs_over_prefactor(order):
    p = ids._divide_by(ids.build_lhs(order), ids._quotient_families())
    assert p == ids.build_prefactor(order)


def test_ratio_support_builds_no_right_side(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the ratio check built a right side")

    for name in ("mul", "build_rhs", "build_prefactor"):
        monkeypatch.setattr(ids, name, forbidden)
    monkeypatch.setattr(series, "mul", forbidden)
    rep = ids.ratio_support_check(24)
    assert rep["matched"] and rep["lhs_terms"] == rep["rhs_terms"] == 1


def test_ratio_support_flags_bad_builder():
    # dividing something that is not a multiple of the product side by the
    # product side leaves support outside the q^n (y1/y2)^j diagonal
    y = ids._divide_by(GradedSeries.from_terms(GL, 8, {(0, 1, 0, 0): 1}),
                       ids._SCHEDULE)
    assert any(e[1] != 0 or e[3] != -e[2] for e in y.support())
