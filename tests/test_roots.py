"""Weight space, bilinear form, Weyl group action, orbit expansions."""

import random
import subprocess
import sys
from fractions import Fraction

import pytest
from oracles import compose, coords, exp_to_weight, form, inner, weight_of

from superdenom.roots import (
    ALPHA,
    BETA1,
    BETA2,
    DELTA,
    EPS1,
    EPS2,
    GAMMA,
    IDENTITY,
    LAMBDA0,
    RHO,
    RootError,
    S_ALPHA,
    S_GAMMA,
    STANDARD_SEED,
    T_ALPHA,
    T_GAMMA,
    WeylElement,
    apply_weyl_term,
    expand_orbit_term,
    orbit_sum,
    reflect,
    translate,
    weight_to_exp,
)
from superdenom.series import (
    cone_coords,
    gl_lattice,
    linear_combine,
)

GL = gl_lattice()


# -- bilinear form -----------------------------------------------------------


def test_inner_basis_values():
    assert inner(EPS1, EPS1) == 1
    assert inner(EPS2, EPS2) == 1
    assert inner(EPS1, EPS2) == 0
    assert inner(DELTA, DELTA) == 0
    assert inner(LAMBDA0, LAMBDA0) == 0
    assert inner(DELTA, LAMBDA0) == 1


def test_inner_root_values():
    assert inner(ALPHA, ALPHA) == 2
    assert inner(GAMMA, GAMMA) == -2
    assert inner(BETA1, BETA1) == 0
    assert inner(BETA2, BETA2) == 0
    assert inner(BETA1, ALPHA) == -1
    assert inner(BETA2, ALPHA) == -1
    assert inner(BETA1, BETA2) == 0
    assert inner(RHO, ALPHA) == 1
    assert inner(RHO, GAMMA) == 1
    assert inner(RHO, RHO) == Fraction(-1, 2) * inner(BETA1 + BETA2, RHO)


# -- reflections and translations --------------------------------------------


def test_reflect_examples():
    assert reflect(ALPHA, ALPHA) == -ALPHA
    assert reflect(ALPHA, BETA1) == BETA1 + ALPHA
    assert reflect(ALPHA, BETA2) == BETA2 + ALPHA
    assert reflect(GAMMA, GAMMA) == -GAMMA
    assert reflect(GAMMA, BETA1) == -(ALPHA + BETA2)
    assert reflect(GAMMA, BETA2) == -(ALPHA + BETA1)
    assert reflect(ALPHA, DELTA) == DELTA


def test_reflect_isotropic_rejected():
    with pytest.raises(RootError):
        reflect(BETA1, ALPHA)
    with pytest.raises(RootError):
        reflect(DELTA, ALPHA)


def test_translate_examples():
    # (rho, delta) = 0, so translating rho only shifts the delta coordinate
    assert translate(ALPHA, RHO) == RHO - DELTA
    assert translate(GAMMA, RHO) == RHO - DELTA
    assert translate(ALPHA, BETA1) == BETA1 + DELTA
    assert translate(ALPHA, LAMBDA0) == LAMBDA0 + ALPHA - DELTA
    assert translate(ALPHA, DELTA) == DELTA


def _random_root_weight(rng):
    return (rng.randrange(-4, 5) * ALPHA + rng.randrange(-4, 5) * BETA1
            + rng.randrange(-4, 5) * BETA2 + rng.randrange(-4, 5) * DELTA
            + rng.randrange(-2, 3) * LAMBDA0)


def _random_weyl(rng):
    return WeylElement(rng.randrange(-5, 6), rng.randrange(2),
                       rng.randrange(-5, 6), rng.randrange(2))


def test_form_invariance_and_group_law_200_triples():
    rng = random.Random(424242)
    for _ in range(200):
        w1, w2 = _random_weyl(rng), _random_weyl(rng)
        lam, mu = _random_root_weight(rng), _random_root_weight(rng)
        # the action preserves the form
        assert inner(w1.apply(lam), w1.apply(mu)) == inner(lam, mu)
        # compose matches function composition, sgn is multiplicative
        w12 = compose(w1, w2)
        assert w12.apply(lam) == w1.apply(w2.apply(lam))
        assert w12.sgn() == w1.sgn() * w2.sgn()


def test_group_relations():
    for s in (S_ALPHA, S_GAMMA):
        assert compose(s, s) == IDENTITY
    assert compose(T_ALPHA, WeylElement(p=-1)) == IDENTITY
    assert compose(T_ALPHA, T_GAMMA) == compose(T_GAMMA, T_ALPHA)
    # s_alpha t_alpha s_alpha = t_{-alpha}
    assert compose(S_ALPHA, compose(T_ALPHA, S_ALPHA)) == WeylElement(p=-1)
    # translations compose additively
    assert compose(WeylElement(p=3), WeylElement(p=-1, pp=2)) == WeylElement(p=2, pp=2)


def test_fixed_vectors():
    rng = random.Random(9)
    fixed = (DELTA, BETA1 - BETA2)
    for _ in range(30):
        w = _random_weyl(rng)
        for v in fixed:
            assert w.apply(v) == v


# -- exact int action against the textbook Fraction formulas ------------------


def _ref_reflect(nu, lam):
    c = 2 * form(lam, nu) / form(nu, nu)
    return tuple(a - c * b for a, b in zip(lam, nu))


def _ref_translate(mu, lam):
    delta = coords(DELTA)
    ld = form(lam, delta)
    corr = form(lam, mu) + Fraction(form(mu, mu), 2) * ld
    return tuple(a + ld * m - corr * d for a, m, d in zip(lam, mu, delta))


def test_int_action_matches_fraction_reference_200_cases():
    rng = random.Random(60606)
    half_level = weight_of(0, 0, 0, 0, 0, Fraction(1, 2))
    for _ in range(200):
        # rho + root lattice + Z Lambda0, plus some half-integral levels
        lam = (rng.randrange(2) * RHO + _random_root_weight(rng)
               + rng.randrange(2) * half_level)
        p, pp = rng.randrange(-5, 6), rng.randrange(-5, 6)
        x = coords(lam)
        for nu in (ALPHA, GAMMA):
            assert coords(reflect(nu, lam)) == _ref_reflect(coords(nu), x)
        for mu in (p * ALPHA, pp * GAMMA):
            assert coords(translate(mu, lam)) == _ref_translate(coords(mu), x)


def test_coordinates_outside_half_integers_rejected():
    # a weight is scaled only by ints, so no scalar takes it out of (1/2 Z)^6
    for scalar in (Fraction(1, 4), Fraction(-1, 2), 0.5, 1.0):
        with pytest.raises(TypeError):
            scalar * ALPHA
    with pytest.raises(ValueError):
        weight_of(Fraction(1, 3), 0, 0, 0, 0, 0)
    assert weight_of(*(-x / 2 for x in coords(BETA1 + BETA2))) == RHO


def test_results_outside_half_integers_raise():
    # coefficient 2 (eps1, nu) / (nu, nu) = 4/5 for nu = 2 eps1 + eps2
    with pytest.raises(RootError):
        reflect(weight_of(2, 1, 0, 0, 0, 0), EPS1)
    # level 1/2 adds mu / 2, and mu = eps1 / 2 gives a quarter
    half = Fraction(1, 2)
    with pytest.raises(RootError):
        translate(weight_of(half, 0, 0, 0, 0, 0), weight_of(0, 0, 0, 0, 0, half))
    # a coefficient of 1/2 is fine when the result stays in (1/2 Z)^6
    assert reflect(ALPHA, weight_of(half, 0, 0, 0, 0, 0)) == weight_of(0, half, 0, 0, 0, 0)


ORBIT_PATH_PROBE = """
import sys
from superdenom import analytic, cli, identities, report, roots, series, squares
roots.orbit_sum("T_alpha", roots.R_RHO_SEED, identities.GL, 16)
roots.orbit_sum("What_alpha", roots.STANDARD_SEED, identities.GL, 24)
print("fractions" in sys.modules)
"""


def test_orbit_path_needs_no_fraction():
    # no module of the package imports fractions, and the orbit sums need
    # none; a fresh interpreter, so nothing imported by this test run counts
    out = subprocess.run([sys.executable, "-c", ORBIT_PATH_PROBE],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# -- monomial dictionary -----------------------------------------------------


def test_weight_to_exp_examples():
    # e^{-delta} = q, e^{-alpha} = x, e^{-beta_i} = y_i
    assert weight_to_exp(-DELTA) == (1, 0, 0, 0)
    assert weight_to_exp(-ALPHA) == (0, 1, 0, 0)
    assert weight_to_exp(-BETA1) == (0, 0, 1, 0)
    assert weight_to_exp(-BETA2) == (0, 0, 0, 1)
    assert weight_to_exp(DELTA - GAMMA) == (-1, 1, 1, 1)
    assert weight_to_exp(-BETA1 - BETA2) == (0, 0, 1, 1)
    assert weight_to_exp(-BETA1, affine=False) == (0, 1, 0)


def test_weight_to_exp_rejects():
    with pytest.raises(RootError):
        weight_to_exp(RHO)            # half-integer root coordinates
    with pytest.raises(RootError):
        weight_to_exp(EPS1)           # not in the root lattice
    with pytest.raises(RootError):
        weight_to_exp(LAMBDA0)
    with pytest.raises(RootError):
        weight_to_exp(-DELTA, affine=False)


def test_exp_to_weight_round_trip():
    rng = random.Random(13)
    for _ in range(40):
        e = tuple(rng.randrange(-5, 6) for _ in range(4))
        assert weight_to_exp(exp_to_weight(e)) == e


# -- orbit expansions --------------------------------------------------------


def _expected_sw_support(n, eps, cutoff):
    """Support of the rho-normalized expansion of t_{n alpha} s_alpha^eps
    applied to the standard seed: a shifted (k1, k2) quadrant."""
    out = set()
    for k1 in range(cutoff + 3):
        for k2 in range(cutoff + 3):
            t = 1 + k1 + k2
            if eps == 0:
                if n == 0:
                    e = (0, 0, k1, k2)
                elif n > 0:
                    e = (n * t, 0, k1, k2)
                else:
                    e = (-n * t, 0, -k1 - 1, -k2 - 1)
            else:
                if n == 0:
                    e = (0, t, k1, k2)
                elif n > 0:
                    e = (n * t, -t, -k1 - 1, -k2 - 1)
                else:
                    e = (-n * t, t, k1, k2)
            _, in_cone, deg = cone_coords(GL, e)
            if in_cone and deg <= cutoff:
                out.add(e)
    return out


def test_sw_supports_up_to_three():
    cutoff = 12
    supports = {}
    for n in range(-3, 4):
        for eps in (0, 1):
            w = WeylElement(p=n, eps=eps)
            s = expand_orbit_term(apply_weyl_term(w, STANDARD_SEED), GL, cutoff)
            got = set(s.support())
            assert got == _expected_sw_support(n, eps, cutoff), (n, eps)
            supports[(n, eps)] = got
    # the pieces never overlap
    keys = list(supports)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            assert not (supports[a] & supports[b]), (a, b)


def test_orbit_sum_anti_invariance():
    # replacing the seed by w0(seed), sign included, reindexes the same sum
    cutoff = 16
    base = orbit_sum("What_alpha", STANDARD_SEED, GL, cutoff)
    for w0 in (S_ALPHA, T_ALPHA, WeylElement(p=-2, eps=1)):
        twisted = orbit_sum("What_alpha", apply_weyl_term(w0, STANDARD_SEED),
                            GL, cutoff)
        assert twisted == base


def test_orbit_sum_coefficient_symmetry():
    # coefficients of the rho-normalized sum are antisymmetric under the
    # rho-twisted action on labels: a_{w . mu} = sgn(w) a_mu
    cutoff = 16
    s = orbit_sum("What_alpha", STANDARD_SEED, GL, cutoff)
    checked = 0
    for w in (S_ALPHA, T_ALPHA, WeylElement(p=-1)):
        for _, e, c in s.items_canonical():
            mu = exp_to_weight(e) + RHO
            image = weight_to_exp(w.apply(mu) - RHO)
            _, in_cone, deg = cone_coords(GL, image)
            if in_cone and deg <= cutoff:
                assert s.coeff(image) == w.sgn() * c
                checked += 1
    assert checked > 100


def test_finite_orbit_sums_are_two_term():
    from superdenom.series import finite_gl_lattice
    GL3 = finite_gl_lattice()
    wa = orbit_sum("W_alpha", STANDARD_SEED, GL3, 8)
    direct = linear_combine([
        (1, expand_orbit_term(STANDARD_SEED, GL3, 8)),
        (1, expand_orbit_term(apply_weyl_term(S_ALPHA, STANDARD_SEED),
                              GL3, 8)),
    ])
    assert wa == direct
