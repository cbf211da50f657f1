"""Core series layer: lattices, cone grading, exact arithmetic, serialization."""

import json
import random
import re
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ID3,
    QL,
    coeff,
    degree_slice,
    from_coords,
    invert,
    restrict,
    to_exps,
)

from superdenom import series, squares
from superdenom.report import compare_series
from superdenom.series import (
    GL,
    SL21,
    GradedSeries,
    LatticeSpec,
    MAX_CUTOFF,
    MAX_RANK,
    SeriesError,
    _invert_unimodular,
    apply_binomials,
    apply_pochhammer,
    cone_coords,
    deserialize,
    expand_term,
    linear_combine,
    mul,
    ring_sum,
    serialize,
)


# -- lattice and grading -----------------------------------------------------


def test_gl_cone_coordinates():
    # q^n x^a y1^b1 y2^b2 -> (b1+n, a+n, b2+n, n)
    coords, in_cone, deg = cone_coords(GL, (1, -1, -1, -1))
    assert coords == (0, 0, 0, 1)
    assert in_cone and deg == 1
    coords, in_cone, deg = cone_coords(GL, (0, 1, 0, 0))
    assert coords == (0, 1, 0, 0) and in_cone and deg == 1
    _, in_cone, _ = cone_coords(GL, (0, -1, 0, 0))
    assert not in_cone


def test_gl_degrees():
    assert GL.degree((1, 0, 0, 0)) == 4          # q
    assert GL.degree((0, 1, 0, 0)) == 1          # x
    assert GL.degree((0, 0, 1, 0)) == 1          # y1
    assert GL.degree((0, 0, 0, 1)) == 1          # y2
    assert GL.degree((2, 0, 3, -3)) == 8         # q^2 (y1/y2)^3


def test_prefactor_monomial_membership():
    # q^m (y1/y2)^k lies in the cone iff |k| <= m
    for m in range(5):
        for k in range(-6, 7):
            _, in_cone, deg = cone_coords(GL, (m, 0, k, -k))
            assert in_cone == (abs(k) <= m)
            if in_cone:
                assert deg == 4 * m


def test_kinv_columns_are_dual_basis_monomials():
    # columns of K^{-1} are the raw exponents of y1, x, y2, q/(x y1 y2)
    cols = list(zip(*GL.Kinv))
    assert cols[0] == (0, 0, 1, 0)
    assert cols[1] == (0, 1, 0, 0)
    assert cols[2] == (0, 0, 0, 1)
    assert cols[3] == (1, -1, -1, -1)


def test_unimodular_round_trip():
    rng = random.Random(7)
    for lattice in (GL, ID3, SL21, QL):
        for _ in range(50):
            e = tuple(rng.randrange(-9, 10) for _ in range(lattice.rank))
            assert to_exps(lattice, lattice.to_coords(e)) == e
            c = tuple(rng.randrange(0, 10) for _ in range(lattice.rank))
            assert lattice.to_coords(to_exps(lattice, c)) == c


def test_non_unimodular_rejected():
    with pytest.raises(ValueError):
        LatticeSpec(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        LatticeSpec(((1, 1), (1, 1)))
    # det = -2, reached through a row swap
    with pytest.raises(ValueError, match="det=-2"):
        LatticeSpec(((0, 2), (1, 0)))
    for K in ((), ((1, 0),), ((1,), (0, 1))):
        with pytest.raises(ValueError, match="K must be a nonempty square matrix"):
            LatticeSpec(K)
    with pytest.raises(SeriesError):
        deserialize('{"rank":2,"K":[[0,2],[1,0]],"cutoff":1,"terms":[]}')


def _fraction_inverse(rows):
    """Gauss-Jordan over Fraction: (inverse rows, det, whether a row swap
    was needed), the reference for `_invert_unimodular`."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    det, swapped = Fraction(1), False
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det, swapped = -det, True
        det *= a[col][col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a), det, swapped


def _random_unimodular(rng, n):
    """The identity put through random row swaps, row negations and
    integer row additions."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randrange(1, 3 * n + 1)):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0:
            a[i], a[j] = a[j], a[i]
        elif op == 1:
            a[i] = [-x for x in a[i]]
        elif i != j:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return tuple(map(tuple, a))


def test_invert_unimodular_matches_fraction_reference_600_cases():
    rng = random.Random(8080)
    dets, swaps = set(), 0
    for case in range(600):
        n = 1 + case % 6
        K = _random_unimodular(rng, n)
        expected, det, swapped = _fraction_inverse(K)
        dets.add(det)
        swaps += swapped
        inv = _invert_unimodular(K)
        assert inv == expected, K
        assert all(type(x) is int for row in inv for x in row)
        assert LatticeSpec(K).Kinv == inv
        # K . Kinv = I
        assert all(sum(K[i][k] * inv[k][j] for k in range(n)) == int(i == j)
                   for i in range(n) for j in range(n))
    # both signs of det, and elimination that needs row swaps, were covered
    assert dets == {1, -1}
    assert swaps >= 100


# -- constructors and queries ------------------------------------------------


def test_monomial_and_coeff():
    s = GradedSeries.from_terms(GL, 10, {(1, -1, -1, -1): -3})
    assert coeff(s, (1, -1, -1, -1)) == -3
    assert coeff(s, (0, 1, 0, 0)) == 0
    assert coeff(s, (0, -1, 0, 0)) == 0         # out of cone: exactly zero
    with pytest.raises(SeriesError, match="degree 44 beyond truncation 10"):
        coeff(s, (11, 0, 0, 0))                 # in cone, beyond truncation


def test_monomial_outside_cone_rejected():
    with pytest.raises(SeriesError, match="outside cone"):
        GradedSeries.from_terms(GL, 10, {(0, 0, -1, 0): 1})
    with pytest.raises(SeriesError, match="beyond cutoff 3"):
        GradedSeries.from_terms(GL, 3, {(1, 0, 0, 0): 1})   # q has degree 4


def test_from_terms_refuses_what_is_not_an_int_term():
    # the one checked constructor: int coefficients, int exponents, a
    # nonnegative cutoff; a zero coefficient is skipped, whatever its monomial
    for c in (0.5, 1.0, Fraction(1, 2), Fraction(2), "1", None):
        with pytest.raises(ValueError, match="bad coefficient"):
            GradedSeries.from_terms(QL, 4, {(1,): c})
    for e in ((1.0,), (Fraction(1),), (0, 1.0, 0)):
        with pytest.raises(SeriesError, match="non-int exponent"):
            GradedSeries.from_terms(QL if len(e) == 1 else ID3, 4, {e: 1})
    with pytest.raises(ValueError, match="cutoff must be nonnegative"):
        GradedSeries.from_terms(QL, -1, {})
    with pytest.raises(ValueError, match="expected 3 exponents"):
        GradedSeries.from_terms(ID3, 4, {(1, 0): 1})
    assert GradedSeries.from_terms(QL, 4, {(1,): 0, (9,): 0, (-1,): 0,
                                          (0.5,): 0}).is_zero()


def test_coordinate_rejections_come_from_from_terms():
    # every refusal of the former {cone coordinates: c} constructor, now
    # made by from_terms through the exponents of those coordinates
    with pytest.raises(SeriesError, match="outside cone"):
        from_coords(ID3, 4, {(-1, 0, 0): 1})
    with pytest.raises(SeriesError, match="beyond cutoff 4"):
        from_coords(ID3, 4, {(2, 2, 1): 1})
    with pytest.raises(SeriesError, match="non-int exponent"):
        from_coords(ID3, 4, {(0.5, 0, 0): 1})
    with pytest.raises(ValueError, match="bad coefficient"):
        from_coords(ID3, 4, {(1, 0, 0): 0.5})
    with pytest.raises(ValueError):
        from_coords(ID3, 4, {(1, 0): 1})
    with pytest.raises(ValueError, match="cutoff must be nonnegative"):
        from_coords(ID3, -1, {})
    with pytest.raises(TypeError):
        GradedSeries(ID3, 4, {(1, 0, 0): 1})


def test_slice_and_support():
    s = GradedSeries.from_terms(GL, 4, {(0, 1, 0, 0): 2, (1, -1, -1, -1): -1,
                                        (1, 0, 0, 0): 5})
    assert degree_slice(s, 1) == {(0, 1, 0, 0): 2, (1, -1, -1, -1): -1}
    assert degree_slice(s, 4) == {(1, 0, 0, 0): 5}
    assert degree_slice(s, 2) == {}
    assert s.support() == [(1, -1, -1, -1), (0, 1, 0, 0), (1, 0, 0, 0)]
    with pytest.raises(SeriesError, match="degree 5 beyond truncation 4"):
        degree_slice(s, 5)


def test_restrict():
    s = GradedSeries.from_terms(GL, 8, {(0, 1, 0, 0): 1, (1, 0, 0, 0): 2,
                                        (2, 0, 0, 0): 3})
    r = restrict(s, 4)
    assert r.cutoff == 4
    assert coeff(r, (1, 0, 0, 0)) == 2
    assert len(r) == 2
    with pytest.raises(SeriesError, match="cannot extend cutoff 4 to 8"):
        restrict(r, 8)


# -- arithmetic --------------------------------------------------------------


def test_linear_combine_cancellation():
    a = GradedSeries.from_terms(QL, 10, {(3,): 4})
    b = GradedSeries.from_terms(QL, 10, {(3,): 2})
    c = linear_combine([(1, a), (-2, b)])
    assert c.is_zero()


def test_mul_small_example():
    # (1 - q)(1 + q + q^2) = 1 - q^3
    a = GradedSeries.from_terms(QL, 5, {(0,): 1, (1,): -1})
    b = GradedSeries.from_terms(QL, 5, {(0,): 1, (1,): 1, (2,): 1})
    c = mul(a, b)
    assert c == GradedSeries.from_terms(QL, 5, {(0,): 1, (3,): -1})


# one lattice, one cutoff: every binary operation refuses operands of two
# lattices or of two cutoffs, in either order, instead of re-basing keys
_BINARY_OPS = {
    "mul": mul,
    "linear_combine": lambda a, b: linear_combine([(1, a), (2, b)]),
    "diff_up_to": lambda a, b: a.diff_up_to(b, 1),
    "compare_series": lambda a, b: compare_series("pair", a, b),
}


@pytest.mark.parametrize("op", _BINARY_OPS)
@pytest.mark.parametrize("other, message", [
    pytest.param(GradedSeries.one(ID3, 8), "different lattices", id="GL-vs-ID3"),
    pytest.param(GradedSeries.from_terms(GL, 3, {(0, 1, 0, 0): 1}),
                 "cutoffs {} and {}", id="cutoff-8-vs-3"),
])
def test_binary_ops_need_one_lattice_and_one_cutoff(op, other, message):
    a = GradedSeries.from_terms(GL, 8, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1})
    with pytest.raises(SeriesError, match=message.format(8, 3)):
        _BINARY_OPS[op](a, other)
    with pytest.raises(SeriesError, match=message.format(3, 8)):
        _BINARY_OPS[op](other, a)


def test_invert_geometric():
    s = GradedSeries.from_terms(QL, 6, {(0,): 1, (1,): -1})
    inv = invert(s)
    assert all(coeff(inv, (n,)) == 1 for n in range(7))
    assert mul(s, inv) == GradedSeries.one(QL, 6)


def _random_series(rng, lattice, cutoff, n_terms, unit=False):
    terms = {}
    if unit:
        terms[(0,) * lattice.rank] = rng.choice([1, -1])
    zero = (0,) * lattice.rank
    while len(terms) < n_terms:
        k = tuple(rng.randrange(0, cutoff + 1) for _ in range(lattice.rank))
        if sum(k) <= cutoff and not (unit and k == zero):
            terms[k] = rng.randrange(-9, 10) or 1
    return from_coords(lattice, cutoff, terms)


def _coord_terms(s):
    """{cone coordinates: coefficient}, read through the public API."""
    return {k: c for k, _, c in s.items_canonical()}


def test_invert_round_trip_100_random():
    rng = random.Random(20240817)
    one3 = GradedSeries.one(ID3, 10)
    for _ in range(100):
        s = _random_series(rng, ID3, 10, rng.randrange(1, 9), unit=True)
        assert mul(s, invert(s)) == one3


def test_binomial_ops_match_generic():
    rng = random.Random(5)
    for _ in range(20):
        s = _random_series(rng, ID3, 9, 6)
        e = (1, 1, 0)
        binom = GradedSeries.from_terms(ID3, 9, {(0, 0, 0): 1, e: -1})
        assert apply_binomials(s, [(e, -1, False)]) == mul(s, binom)
        assert apply_binomials(s, [(e, -1, True)]) == mul(s, invert(binom))
        assert apply_binomials(apply_binomials(s, [(e, 1, False)]),
                               [(e, 1, True)]) == s


@pytest.mark.parametrize("lattice", [GL, ID3, SL21, QL])
def test_carry_boundary_coordinate_at_cutoff(lattice):
    # a coordinate equal to the cutoff is the largest digit of a packed key;
    # products that leave the cutoff must vanish, not carry into a neighbour
    n, rank = 5, lattice.rank
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    for i in range(rank):
        top = tuple(n * x for x in units[i])
        below = tuple((n - 1) * x for x in units[i])
        t = from_coords(lattice, n, {top: 3})
        b = from_coords(lattice, n, {below: -2})
        for u in units:
            g = to_exps(lattice, u)
            assert apply_binomials(t, [(g, 1, False)]) == t
            assert apply_binomials(t, [(g, -1, True)]) == t
            assert mul(t, from_coords(lattice, n, {u: 1})).is_zero()
            up = apply_binomials(b, [(g, 1, False)])
            assert up == from_coords(lattice, n, {below: -2,
                                                  tuple(map(add, below, u)): -2})
            assert apply_binomials(up, [(g, 1, True)]) == b
        geo = invert(from_coords(lattice, n, {(0,) * rank: 1, units[i]: -1}))
        assert _coord_terms(geo) == {tuple(j * x for x in units[i]): 1
                                     for j in range(n + 1)}


def test_binomial_degree_zero_rejected():
    s = GradedSeries.one(ID3, 5)
    with pytest.raises(SeriesError, match=r"binomial monomial \(0, 0, 0\) must "
                                          "lie in the cone with positive degree"):
        apply_binomials(s, [((0, 0, 0), 1, False)])
    with pytest.raises(SeriesError, match=r"binomial monomial \(-1, 0, 0\) must "
                                          "lie in the cone with positive degree"):
        apply_binomials(s, [((-1, 0, 0), 1, False)])


# -- pochhammer --------------------------------------------------------------


def _euler_product_oracle(order):
    # prod_{n>=1} (1 - q^n) via direct list convolution
    out = [0] * (order + 1)
    out[0] = 1
    for n in range(1, order + 1):
        for d in range(order, n - 1, -1):
            out[d] -= out[d - n]
    return out


def test_pochhammer_pentagonal_numbers():
    order = 60
    s = apply_pochhammer(GradedSeries.one(QL, order), (1,), (1,), -1)
    oracle = _euler_product_oracle(order)
    assert [coeff(s, (n,)) for n in range(order + 1)] == oracle
    # Euler: nonzero exactly at generalized pentagonal numbers, coefficient (-1)^k
    pent = {k * (3 * k - 1) // 2: (-1) ** k for k in range(-7, 8)}
    for n, c in enumerate(oracle):
        assert c == pent.get(n, 0)


def test_apply_pochhammer_inverse_round_trip():
    rng = random.Random(11)
    s = _random_series(rng, ID3, 8, 5)
    t = apply_pochhammer(s, (1, 0, 0), (1, 1, 1), 1)
    assert apply_pochhammer(t, (1, 0, 0), (1, 1, 1), 1, inverse=True) == s


# -- expand_term -------------------------------------------------------------


def test_expand_term_negative_degree_rewrite():
    # (1 - x) e^0 with x of degree 1 versus the pulled-out form of (1 - 1/x) x
    direct = expand_term(ID3, 6, 1, (0, 0, 0), [((1, 0, 0), -1, False)])
    pulled = expand_term(ID3, 6, -1, (1, 0, 0), [((-1, 0, 0), -1, False)])
    assert direct == pulled
    # 1/(1 + y1) versus (1/y1) / (1 + 1/y1)
    a = expand_term(ID3, 6, 1, (0, 0, 0), [((0, 1, 0), 1, True)])
    b = expand_term(ID3, 6, 1, (0, -1, 0), [((0, -1, 0), 1, True)])
    assert a == b
    assert coeff(a, (0, 2, 0)) == 1 and coeff(a, (0, 3, 0)) == -1


def test_expand_term_out_of_cone_base():
    with pytest.raises(SeriesError,
                       match=r"leading monomial \(-1, 0, 0\) outside cone"):
        expand_term(ID3, 6, 1, (-1, 0, 0))


def test_expand_term_vanishing_numerator():
    assert expand_term(ID3, 6, 1, (0, 0, 0), [((0, 0, 0), -1, False)]).is_zero()


def test_expand_term_unexpandable_factors_rejected():
    # only the constant numerator (1 - 1) has a meaning at degree 0, and a
    # factor of negative degree is rewritten only for a sign of +-1:
    # x (1 + 2/x) = x + 2 is not 2 (1 + 2x)
    for factor in [((0, 0, 0), -1, True), ((0, 0, 0), 1, True),
                   ((0, 0, 0), 1, False), ((1, -1, 0), -1, False),
                   ((1, -1, 0), 1, True), ((-1, 0, 0), 2, False)]:
        e, sign, _ = factor
        with pytest.raises(SeriesError,
                           match=re.escape(f"factor {e} of sign {sign} and degree")):
            expand_term(ID3, 6, 1, (1, 0, 0), [factor])


def test_expand_term_inverse_numerator_is_geometric():
    # 1/(1 - x), the factor a ring of B in the one-variable identity needs
    s = expand_term(ID3, 6, 1, (0, 0, 0), [((1, 0, 0), -1, True)])
    assert s == GradedSeries.from_terms(ID3, 6, {(k, 0, 0): 1 for k in range(7)})


def test_expand_term_plus_numerator():
    # -y (1 + x)(1 + x y) = -y - x y - x y^2 - x^2 y^2, and the form
    # -x y (1 + 1/x)(1 + x y), whose first factor has negative degree
    s = expand_term(ID3, 6, -1, (0, 1, 0),
                    [((1, 0, 0), 1, False), ((1, 1, 0), 1, False)])
    assert s == GradedSeries.from_terms(
        ID3, 6, {(0, 1, 0): -1, (1, 1, 0): -1, (1, 2, 0): -1, (2, 2, 0): -1})
    pulled = expand_term(ID3, 6, -1, (1, 1, 0),
                         [((-1, 0, 0), 1, False), ((1, 1, 0), 1, False)])
    assert pulled == s


def test_expand_term_beyond_cutoff_is_zero():
    assert expand_term(ID3, 2, 1, (3, 0, 0), [((0, 1, 0), 1, True)]).is_zero()


def test_expand_term_maps_each_monomial_once(monkeypatch):
    # one cone-coordinate map per factor, the rewritten one included, and one
    # for the leading monomial: the packed factors go straight to the kernel
    to_coords, seen = LatticeSpec.to_coords, []
    monkeypatch.setattr(LatticeSpec, "to_coords",
                        lambda self, e: seen.append(e) or to_coords(self, e))
    s = expand_term(GL, 12, 1, (0, 1, 0, 0),
                    [((0, 0, 1, 0), 1, True), ((0, -1, 0, 0), -1, False)])
    assert seen == [(0, 0, 1, 0), (0, -1, 0, 0), (0, 0, 0, 0)]
    monkeypatch.undo()
    # x (1 - 1/x) = -(1 - x)
    assert s == expand_term(GL, 12, -1, (0, 0, 0, 0),
                            [((0, 0, 1, 0), 1, True), ((0, 1, 0, 0), -1, False)])


# -- ring_sum ----------------------------------------------------------------


# terms (sign, base, factors) on QL: 1, q, and 1 * (1 - 1) = 0
ONE, Q1, ZERO = (1, (0,), []), (1, (1,), []), (1, (0,), [((0,), -1, False)])


def test_ring_sum_stops_at_first_empty_ring():
    # a finite group's ring 1 is empty; ring 2 would contribute but must
    # never be reached, and an all-zero ring stops the sum the same way
    one = GradedSeries.one(QL, 6)
    q = GradedSeries.from_terms(QL, 6, {(1,): 1})
    for ring1 in ([], [ZERO, ZERO]):
        visited = []

        def ring(k):
            visited.append(k)
            return {0: [ONE, Q1], 1: ring1, -1: ring1}.get(k, [Q1])

        assert ring_sum(QL, 6, ring) == linear_combine([(1, one), (1, q)])
        assert visited == [0, 1, -1]


def test_ring_sum_raises_when_a_ring_past_its_bound_contributes():
    one = GradedSeries.one(QL, 4)
    with pytest.raises(SeriesError):
        ring_sum(QL, 4, lambda k: [ONE])      # a nonzero monomial forever
    # the bound is the cutoff 4: rings 1..4 may contribute, ring 5 may not
    four = lambda k: [ONE] if abs(k) <= 4 else []
    assert ring_sum(QL, 4, four) == linear_combine([(9, one)])
    with pytest.raises(SeriesError, match="ring 5 past the bound 4"):
        ring_sum(QL, 4, lambda k: [ONE] if abs(k) <= 5 else [])


def test_ring_sum_of_no_terms_is_zero():
    # the lattice and cutoff come from the arguments, not from ring 0;
    # equality compares both
    for lattice, cutoff in ((QL, 0), (SL21, 5), (GL, 8)):
        zero = GradedSeries.zero(lattice, cutoff)
        assert ring_sum(lattice, cutoff, lambda k: []) == zero


# -- property suites ---------------------------------------------------------

coords3 = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
series3 = st.dictionaries(coords3.filter(lambda k: sum(k) <= 10),
                          st.integers(-20, 20).filter(bool), max_size=8).map(
    lambda terms: from_coords(ID3, 10, terms))


@settings(max_examples=120, deadline=None)
@given(series3, series3, series3)
def test_ring_axioms(a, b, c):
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    ab_plus_ac = linear_combine([(1, mul(a, b)), (1, mul(a, c))])
    assert mul(a, linear_combine([(1, b), (1, c)])) == ab_plus_ac
    assert mul(a, GradedSeries.one(ID3, 10)) == a


@settings(max_examples=120, deadline=None)
@given(series3, series3)
def test_grading_additivity(a, b):
    # every product monomial has degree = sum of factor degrees
    p = mul(a, b)
    degrees_a = {sum(k) for k in _coord_terms(a)}
    degrees_b = {sum(k) for k in _coord_terms(b)}
    allowed = {da + db for da in degrees_a for db in degrees_b if da + db <= 10}
    assert {sum(k) for k in _coord_terms(p)} <= allowed


@settings(max_examples=80, deadline=None)
@given(series3, series3, st.integers(0, 10))
def test_truncation_soundness(a, b, m):
    # computing at high cutoff then restricting equals computing low; the
    # keys of the lower cutoff decode to the coordinates of degree <= m
    assert _coord_terms(restrict(a, m)) == {k: c for k, c in _coord_terms(a).items()
                                            if sum(k) <= m}
    assert restrict(mul(a, b), m) == mul(restrict(a, m), restrict(b, m))
    s = linear_combine([(3, a), (-2, b)])
    assert restrict(s, m) == linear_combine([(3, restrict(a, m)),
                                             (-2, restrict(b, m))])


# Every series operation is a few calls of one kernel over lists of degree
# slices.  A plain coordinate-dict reference checks each operation on random
# series of rank 1 to 4 whose small coefficients often cancel.  The factor
# monomials of degree 1, cutoff and cutoff + 1 reach both ends of each
# slice-list zip: the longest shift pairing, a single pair and no pair.

KERNEL_LATTICES = [QL, LatticeSpec(((1, 1), (0, 1))), SL21, GL]


def _ref_mul(a, b, cutoff):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(map(add, ka, kb))
            if sum(k) <= cutoff:
                out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _ref_combine(pairs):
    out = {}
    for scalar, terms in pairs:
        for k, c in terms.items():
            out[k] = out.get(k, 0) + scalar * c
    return {k: c for k, c in out.items() if c}


def _ref_geometric(t, ratio, cutoff):
    """sum of (ratio * t)^n up to the cutoff, t of positive degree given by
    its coordinates."""
    return {tuple(n * x for x in t): ratio ** n
            for n in range(cutoff // sum(t) + 1)}


@st.composite
def kernel_cases(draw, unit=False):
    lattice = draw(st.sampled_from(KERNEL_LATTICES))
    cutoff = draw(st.integers(0, 7))
    rank = lattice.rank
    coords = st.lists(st.integers(0, cutoff), min_size=rank, max_size=rank).map(
        tuple).filter(lambda k: sum(k) <= cutoff)
    coeffs = st.sampled_from([-2, -1, 1, 2])
    series = [draw(st.dictionaries(coords, coeffs, max_size=10)) for _ in range(2)]
    if unit:
        series[0][(0,) * rank] = draw(st.sampled_from([-1, 1]))
    return lattice, cutoff, series


def _monomial_of_degree(draw, rank, degree):
    parts = draw(st.lists(st.integers(0, rank - 1), min_size=degree, max_size=degree))
    return tuple(parts.count(i) for i in range(rank))


@settings(max_examples=150, deadline=None)
@given(kernel_cases(), st.sampled_from([-2, -1, 1, 2]), st.sampled_from([-1, 1, 3]))
def test_mul_and_linear_combine_match_reference(case, x, y):
    lattice, cutoff, (ta, tb) = case
    a, b = from_coords(lattice, cutoff, ta), from_coords(lattice, cutoff, tb)
    assert _coord_terms(mul(a, b)) == _ref_mul(ta, tb, cutoff)
    assert _coord_terms(mul(a, a)) == _ref_mul(ta, ta, cutoff)
    assert _coord_terms(linear_combine([(x, a), (y, b), (-x, a)])) == \
        _ref_combine([(y, tb)])
    assert _coord_terms(linear_combine([(x, a), (y, b), (0, a)])) == \
        _ref_combine([(x, ta), (y, tb)])
    diffs = [(to_exps(lattice, k), ta.get(k, 0), tb.get(k, 0))
             for k in sorted(ta.keys() | tb.keys(), key=lambda k: (sum(k), k))
             if ta.get(k, 0) != tb.get(k, 0)]
    assert a.diff_up_to(b, len(diffs) + 1) == diffs
    assert a.diff_up_to(b, 2) == diffs[:2]


@settings(max_examples=150, deadline=None)
@given(kernel_cases(unit=True))
def test_invert_matches_reference(case):
    lattice, cutoff, (ts, _) = case
    c0 = ts[(0,) * lattice.rank]
    # 1 / (c0 s) = sum of u^n with u = 1 - c0 s, which has no constant term
    u = _ref_combine([(1, {(0,) * lattice.rank: 1}), (-c0, ts)])
    power, total = {(0,) * lattice.rank: 1}, {}
    for _ in range(cutoff + 1):
        total = _ref_combine([(1, total), (1, power)])
        power = _ref_mul(power, u, cutoff)
    assert _coord_terms(invert(from_coords(lattice, cutoff, ts))) == \
        _ref_combine([(c0, total)])


@settings(max_examples=200, deadline=None)
@given(kernel_cases(), st.data())
def test_apply_binomials_matches_reference(case, data):
    lattice, cutoff, (ts, _) = case
    degrees = sorted({1, cutoff, cutoff + 1} - {0})
    factors, expected = [], ts
    for _ in range(data.draw(st.integers(1, 4))):
        degree = data.draw(st.sampled_from(degrees))
        t = _monomial_of_degree(data.draw, lattice.rank, degree)
        sign = data.draw(st.sampled_from([-1, 1]))
        inverse = data.draw(st.booleans())
        factors.append((to_exps(lattice, t), sign, inverse))
        factor = (_ref_geometric(t, -sign, cutoff) if inverse
                  else _ref_combine([(1, {(0,) * lattice.rank: 1}),
                                     (sign, {t: 1} if degree <= cutoff else {})]))
        expected = _ref_mul(expected, factor, cutoff)
    s = from_coords(lattice, cutoff, ts)
    assert _coord_terms(apply_binomials(s, factors)) == expected
    assert _coord_terms(s) == ts


# `squares` keeps its q-series as plain coefficient lists, index = degree,
# and every series rank, 1 included, runs on the slice kernel.  Dense
# q-series of the sizes `jacobi` reaches, as lists, as `QL` series and as
# the same coefficients on the axis (n, 0, 0) of ID3, must agree under each
# operation the eight-squares check uses: the kernel is the reference for
# the list arithmetic.


def _dense_q(rng, cutoff):
    coeffs = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(cutoff + 1)]
    return (coeffs,
            GradedSeries.from_terms(QL, cutoff, {(n,): c for n, c in enumerate(coeffs)}),
            GradedSeries.from_terms(ID3, cutoff,
                                    {(n, 0, 0): c for n, c in enumerate(coeffs)}))


def _q_list(s):
    """Coefficient list of a QL series, or of an ID3 series on the axis
    (n, 0, 0)."""
    out = [0] * (s.cutoff + 1)
    for _, e, c in s.items_canonical():
        assert not any(e[1:])
        out[e[0]] = c
    return out


@pytest.mark.parametrize("cutoff", [64, 224])
def test_rank1_list_path_matches_slice_kernel(cutoff):
    rng = random.Random(cutoff)
    (ca, a, a3), (cb, b, b3) = _dense_q(rng, cutoff), _dense_q(rng, cutoff)
    assert squares._conv(ca, cb) == _q_list(mul(a, b)) == _q_list(mul(a3, b3))
    assert squares._conv(ca, ca) == _q_list(mul(a, a)) == _q_list(mul(a3, a3))
    for sign in (-1, 1):
        for inverse in (False, True):
            assert squares._pochhammer(ca, sign, inverse) == _q_list(
                apply_pochhammer(a3, (1, 0, 0), (1, 0, 0), sign, inverse))
            for head, step in (((1,), (1,)), ((1,), (2,)), ((3,), (2,))):
                got = apply_pochhammer(a, head, step, sign, inverse)
                want = apply_pochhammer(a3, head + (0, 0), step + (0, 0), sign, inverse)
                assert _q_list(got) == _q_list(want)
    factors = [(d, rng.choice([-1, 1]), rng.choice([False, True]))
               for d in (1, 2, 1, 7, cutoff, cutoff + 1)]
    got = apply_binomials(a, [((d,), sign, inv) for d, sign, inv in factors])
    want = apply_binomials(a3, [((d, 0, 0), sign, inv) for d, sign, inv in factors])
    assert _q_list(got) == _q_list(want)
    # the inputs are left untouched
    assert _q_list(a) == _q_list(a3) == ca


# -- serialization -----------------------------------------------------------


def test_serialize_round_trip():
    # the exponents are computed column by column, so the lattices include
    # Kinv entries -1 (the skew rank-2 lattice, SL21, GL) and beyond +-1
    rng = random.Random(3)
    wide = LatticeSpec(((1, 2, 0), (0, 1, 3), (0, 0, 1)))
    assert any(abs(w) > 1 for row in wide.Kinv for w in row)
    for lattice in (*KERNEL_LATTICES, ID3, wide):
        for _ in range(10):
            s = _random_series(rng, lattice, 7, 5)
            assert deserialize(serialize(s)) == s


def test_serialize_deterministic():
    s = GradedSeries.from_terms(GL, 6, {(1, 0, 0, 0): 2, (0, 1, 0, 0): -1,
                                        (0, 0, 1, 1): 7})
    assert serialize(s) == serialize(deserialize(serialize(s)))


def _json_dumps_serialize(s):
    """The encoder `serialize` replaced: one dict per record through json.dumps."""
    records = [{"k": list(k), "e": list(e), "c": str(c)}
               for k, e, c in s.items_canonical()]
    doc = {"rank": s.lattice.rank,
           "K": [list(r) for r in s.lattice.K],
           "cutoff": s.cutoff,
           "terms": records}
    return json.dumps(doc, separators=(",", ":"))


def _byte_identity_cases():
    from superdenom import identities as ids

    big = 2 ** 64
    return {
        "empty": GradedSeries.zero(GL, 5),
        "cutoff 0": GradedSeries.from_terms(GL, 0, {(0, 0, 0, 0): -3}),
        "empty cutoff 0": GradedSeries.zero(QL, 0),
        "rank 1": GradedSeries.from_terms(QL, 9, {(0,): 1, (4,): -2, (9,): 7}),
        "rank 3": GradedSeries.from_terms(SL21, 6, {(0, 0, 0): 1, (1, -1, 0): -5,
                                                    (0, 2, 3): 11}),
        "rank 3 identity K": GradedSeries.from_terms(ID3, 4, {(1, 2, 0): -1,
                                                              (0, 0, 4): 2}),
        "rank 4": GradedSeries.from_terms(GL, 6, {(1, 0, 0, 0): 2, (0, 1, 0, 0): -1,
                                                  (0, 0, 1, 1): 7,
                                                  (1, -1, -1, -1): 3}),
        "big coefficients": GradedSeries.from_terms(
            GL, 4, {(0, 0, 0, 0): big + 1, (0, 1, 0, 0): -(big * big + 5),
                    (1, 0, 0, 0): -big}),
        "build_lhs(12)": ids.build_lhs(12),
        "build_prefactor(12)": ids.build_prefactor(12),
        "build_orbit_sum(40)": ids.build_orbit_sum(40),
    }


def test_serialize_bytes_equal_json_dumps():
    for name, s in _byte_identity_cases().items():
        assert serialize(s) == _json_dumps_serialize(s), name
        assert deserialize(serialize(s)) == s, name


@pytest.mark.parametrize("text", [
    "not json",
    "{}",
    '{"rank": 1, "K": [[1]], "cutoff": 3, "terms": [{"k": [1], "e": [2], "c": "1"}]}',
    '{"rank": 1, "K": [[1]], "cutoff": 3, "terms": [{"k": [4], "e": [4], "c": "1"}]}',
    '{"rank": 1, "K": [[1]], "cutoff": 3, "terms": [{"k": [1], "e": [1], "c": "0"}]}',
    '{"rank": 1, "K": [[1]], "cutoff": 3, "terms": [{"k": [1], "e": [1], "c": "1"},'
    ' {"k": [1], "e": [1], "c": "2"}]}',
    '{"rank": 1, "K": [[1]], "cutoff": 3, "terms": [{"k": [1.5], "e": [1.5], "c": "1"}]}',
    '{"rank": 1, "K": [[1]], "cutoff": 3, "terms": [{"k": [true], "e": [true], "c": "1"}]}',
    '{"rank": 1, "K": [[1]], "cutoff": 3, "terms": [{"k": [1], "e": [1], "c": 1.5}]}',
    '{"rank": 1, "K": [[1]], "cutoff": 3, "terms": [1]}',
    '{"rank": 1, "K": [[1]], "cutoff": 3, "terms": [{"k": [1], "e": [1], "c": "x"}]}',
    '{"rank": 1, "K": [[1]], "cutoff": "3", "terms": []}',
    '{"rank": true, "K": [[1]], "cutoff": 3, "terms": []}',
    # a rank other than len(K)
    '{"rank": 2, "K": [[1, 0]], "cutoff": 3, "terms": []}',
    '{"rank": 1, "K": [[1], [1]], "cutoff": 3, "terms": []}',
    # above the ceiling: rejected before one dict per degree is allocated
    f'{{"rank": 1, "K": [[1]], "cutoff": {MAX_CUTOFF + 1}, "terms": []}}',
    # nested deeper than the JSON decoder recurses
    pytest.param("[" * 100000 + "]" * 100000, id="deeply-nested"),
])
def test_deserialize_rejects_malformed(text):
    with pytest.raises(SeriesError):
        deserialize(text)


def _identity_stream(rank):
    K = [[int(i == j) for j in range(rank)] for i in range(rank)]
    return json.dumps({"rank": rank, "K": K, "cutoff": 1, "terms": []})


def test_deserialize_refuses_a_rank_above_the_ceiling_before_inverting_k(
        monkeypatch):
    assert deserialize(_identity_stream(MAX_RANK)).lattice.rank == MAX_RANK

    def never(rows):
        raise AssertionError("K was inverted")
    monkeypatch.setattr(series, "_invert_unimodular", never)
    with pytest.raises(SeriesError, match=f"series rank {MAX_RANK + 1} above "
                                          f"the ceiling {MAX_RANK}"):
        deserialize(_identity_stream(MAX_RANK + 1))


@st.composite
def mutated_streams(draw):
    """The `serialize` stream of a small random series with one character
    replaced, inserted or deleted at a random place."""
    lattice, cutoff, (terms, _) = draw(kernel_cases())
    text = serialize(from_coords(lattice, cutoff, terms))
    i = draw(st.integers(0, len(text)))
    new = draw(st.one_of(st.just(""), st.sampled_from('0123456789-.e"[]{},: tn'),
                         st.characters()))
    return text[:i] + new + text[i + draw(st.integers(0, 1)):]


@settings(max_examples=300, deadline=None)
@given(mutated_streams())
def test_mutated_stream_deserializes_or_raises_series_error(text):
    # one edit of a valid stream either still reads as a series or is
    # refused with SeriesError, never with another exception
    try:
        deserialize(text)
    except SeriesError:
        pass
