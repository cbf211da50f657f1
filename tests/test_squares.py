"""Theta series, the Gauss identity and the eight-squares count."""

import ast
import inspect
import itertools
import math

from oracles import QL, coeff

from superdenom import squares
from superdenom.series import MAX_CUTOFF, GradedSeries, mul


def test_theta_coefficients():
    t = squares.theta(20)
    assert len(t) == 21 and t[0] == 1
    for n in (1, 4, 9, 16):
        assert t[n] == 2
    for n in (2, 3, 5, 12, 20):
        assert t[n] == 0
    tm = squares.theta(20, -1)
    assert tm[1] == -2 and tm[4] == 2 and tm[9] == -2


def test_theta_power8_is_eighth_power():
    # series.mul on QL is the independent reference for the list convolution
    t = GradedSeries.from_terms(QL, 16, {(n,): c for n, c in enumerate(squares.theta(16))})
    t2 = mul(t, t)
    t8 = mul(mul(t2, t2), mul(t2, t2))
    assert squares.theta_power8(16) == [coeff(t8, (n,)) for n in range(17)]
    # ... and squares shares no arithmetic with series
    imported = {name for node in ast.walk(ast.parse(inspect.getsource(squares)))
                if isinstance(node, ast.ImportFrom)
                for name in [node.module or "", *(a.name for a in node.names)]}
    assert not any("series" in name.split(".") for name in imported)


def test_r8_spot_values():
    r8 = squares.r8_oracle(8)
    assert r8[0] == 1
    assert r8[1] == 16
    assert r8[2] == 112
    assert r8[3] == 448
    assert r8[4] == 1136
    assert r8 == squares.theta_power8(8)


def test_r8_oracles_agree_to_64():
    assert squares.r8_oracle(64) == squares.theta_power8(64)


def test_r8_enumeration_at_max_cutoff():
    assert squares.r8_oracle(MAX_CUTOFF) == squares.theta_power8(MAX_CUTOFF)


def test_bounded_count4_matches_unpruned_cube():
    for order in range(41):
        r = math.isqrt(order)
        cube = [0] * (order + 1)
        for v in itertools.product(range(-r, r + 1), repeat=4):
            norm = sum(x * x for x in v)
            if norm <= order:
                cube[norm] += 1
        assert squares._count4_enumeration(order) == cube, order


def test_count4_against_known_values():
    # representations as a sum of four squares: 8 * sum of divisors not
    # divisible by 4
    def r4(n):
        return 8 * sum(d for d in range(1, n + 1) if n % d == 0 and d % 4 != 0)

    c4 = squares._count4_enumeration(12)
    assert c4[0] == 1
    for n in range(1, 13):
        assert c4[n] == r4(n)


def test_gauss_identity_to_100():
    g = squares.gauss_series(100)
    assert g == squares.theta(100, -1)
    assert len(g) == 101 and g[0] == 1 and g[1] == -2
    assert g[4] == 2 and g[100] == 2
    assert g[99] == 0
    # `verify_jacobi` reads the product at a lower order as this prefix
    assert g[:65] == squares.gauss_series(64)


def test_jacobi_formula_spot_values():
    f = squares.jacobi_formula(8)
    assert f[0] == 1
    assert f[1] == 16
    assert f[2] == 112
    assert f[4] == 1136


def test_binomial_inverse_fourth_power():
    assert [squares._binom_inv4(j) for j in range(5)] == [1, -4, 10, -20, 35]


def test_intermediate_identity_to_64():
    lhs, rhs = squares.intermediate_identity(squares.gauss_series(64))
    assert lhs == rhs
    lhs, rhs = squares.intermediate_identity(squares.gauss_series(8))
    assert lhs[0] == 1
    assert lhs[1] == -16


def test_verify_jacobi():
    doc = squares.verify_jacobi(64)
    assert doc["all_match"] and doc["gauss"] and doc["intermediate"]
    # each row's match covers the sign-twisted companion at q^n
    assert squares.theta_power8(64, -1) == squares.jacobi_formula(64, twist=True)


def test_verify_jacobi_enumerates_above_64():
    doc = squares.verify_jacobi(80)
    assert doc["all_match"]
    assert [r["r8_enum"] for r in doc["rows"]] == squares.r8_oracle(80)


def test_jacobi_table_rows():
    rows = squares.verify_jacobi(10)["rows"]
    assert len(rows) == 11
    assert all(r["match"] for r in rows)
    assert rows[1] == {"n": 1, "r8_enum": 16, "r8_theta": 16,
                       "r8_formula": 16, "match": True}
