"""Theta series, the Gauss identity and the eight-squares count."""

import itertools
import math

from superdenom import squares
from superdenom.series import MAX_CUTOFF, mul


def theta8_coeffs(order):
    t8 = squares.theta_power8(order)
    return [t8.coeff((n,)) for n in range(order + 1)]


def test_theta_coefficients():
    t = squares.theta(20)
    assert t.coeff((0,)) == 1
    for n in (1, 4, 9, 16):
        assert t.coeff((n,)) == 2
    for n in (2, 3, 5, 12, 20):
        assert t.coeff((n,)) == 0
    tm = squares.theta(20, -1)
    assert tm.coeff((1,)) == -2 and tm.coeff((4,)) == 2 and tm.coeff((9,)) == -2


def test_theta_power8_is_eighth_power():
    t = squares.theta(16)
    t2 = mul(t, t)
    assert squares.theta_power8(16) == mul(mul(t2, t2), mul(t2, t2))


def test_r8_spot_values():
    r8 = squares.r8_oracle(8)
    assert r8[0] == 1
    assert r8[1] == 16
    assert r8[2] == 112
    assert r8[3] == 448
    assert r8[4] == 1136
    assert r8 == theta8_coeffs(8)


def test_r8_oracles_agree_to_64():
    assert squares.r8_oracle(64) == theta8_coeffs(64)


def test_r8_enumeration_at_max_cutoff():
    assert squares.r8_oracle(MAX_CUTOFF) == theta8_coeffs(MAX_CUTOFF)


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
    assert g.coeff((0,)) == 1 and g.coeff((1,)) == -2
    assert g.coeff((4,)) == 2 and g.coeff((100,)) == 2
    assert g.coeff((99,)) == 0


def test_jacobi_formula_spot_values():
    f = squares.jacobi_formula(8)
    assert f.coeff((0,)) == 1
    assert f.coeff((1,)) == 16
    assert f.coeff((2,)) == 112
    assert f.coeff((4,)) == 1136


def test_binomial_inverse_fourth_power():
    assert [squares._binom_inv4(j) for j in range(5)] == [1, -4, 10, -20, 35]


def test_intermediate_identity_to_64():
    lhs, rhs = squares.intermediate_identity(64)
    assert lhs == rhs
    lhs, rhs = squares.intermediate_identity(8)
    assert lhs.coeff((0,)) == 1
    assert lhs.coeff((1,)) == -16


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
