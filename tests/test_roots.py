"""Root-lattice coordinates, the Gram form, Weyl group action, orbit expansions."""

import random
import subprocess
import sys

import pytest
from oracles import coeff

from superdenom.roots import (
    ALPHA,
    ALPHA_SL21,
    BETA1,
    BETA2,
    DELTA,
    GAMMA,
    GL22,
    SL21_ROOTS,
    STANDARD_SEED,
    _ring,
    act,
    expand_orbit_term,
    normalized_term,
    orbit_sum,
    reflect,
    translate,
)
from superdenom.series import (
    GL,
    cone_coords,
    linear_combine,
    ring_sum,
)


def _add(*vs):
    return tuple(map(sum, zip(*vs)))


def _scale(c, v):
    return tuple(c * x for x in v)


S_ALPHA = (("s", ALPHA),)
T_ALPHA = (("t", ALPHA),)

# each system with the roots its groups reflect along and translate by
_SYSTEMS = {"gl22": (GL22, (ALPHA, GAMMA)), "sl21": (SL21_ROOTS, (ALPHA_SL21,))}


# -- bilinear form -----------------------------------------------------------


def test_inner_basis_values():
    # the Gram matrices that the (eps, d) coordinates of the basis give
    assert GL22.gram == ((0, 0, 0, 0), (0, 2, -1, -1), (0, -1, 0, 0), (0, -1, 0, 0))
    assert SL21_ROOTS.gram == ((0, 0, 0), (0, 0, 1), (0, 1, 0))
    # delta is isotropic and pairs to 0 with every level-0 vector
    assert all(GL22.form(DELTA, v) == 0 for v in (DELTA, ALPHA, BETA1, BETA2))
    assert all(SL21_ROOTS.form((1, 0, 0), v) == 0
               for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_inner_root_values():
    f, rho2 = GL22.form, GL22.rho2
    assert f(ALPHA, ALPHA) == 2
    assert f(GAMMA, GAMMA) == -2
    assert f(BETA1, BETA1) == f(BETA2, BETA2) == 0
    assert f(BETA1, ALPHA) == f(BETA2, ALPHA) == -1
    assert f(BETA1, BETA2) == 0
    assert f(ALPHA, GAMMA) == 0
    assert f(rho2, ALPHA) == f(rho2, GAMMA) == 2      # (rho, alpha) = (rho, gamma) = 1
    assert rho2 == _scale(-1, _add(BETA1, BETA2))
    g = SL21_ROOTS.form
    assert g(ALPHA_SL21, ALPHA_SL21) == 2
    assert g((0, 1, 0), (0, 1, 0)) == g((0, 0, 1), (0, 0, 1)) == 0
    assert g((0, 1, 0), (0, 0, 1)) == g((0, 1, 0), ALPHA_SL21) == 1


# -- reflections and translations --------------------------------------------


def test_reflect_examples():
    assert reflect(GL22, ALPHA, ALPHA) == _scale(-1, ALPHA)
    assert reflect(GL22, ALPHA, BETA1) == _add(BETA1, ALPHA)
    assert reflect(GL22, ALPHA, BETA2) == _add(BETA2, ALPHA)
    assert reflect(GL22, GAMMA, GAMMA) == _scale(-1, GAMMA)
    assert reflect(GL22, GAMMA, BETA1) == _scale(-1, _add(ALPHA, BETA2))
    assert reflect(GL22, GAMMA, BETA2) == _scale(-1, _add(ALPHA, BETA1))
    assert reflect(GL22, ALPHA, DELTA) == DELTA
    # s_rho - rho = -alpha, in 2 rho
    assert reflect(GL22, ALPHA, GL22.rho2) == _add(GL22.rho2, _scale(-2, ALPHA))
    # sl(2|1): s_alpha' swaps beta1 and -beta2
    assert reflect(SL21_ROOTS, ALPHA_SL21, (0, 1, 0)) == (0, 0, -1)


def test_reflect_isotropic_rejected():
    # only a root of nonzero length has a reflection
    with pytest.raises(ZeroDivisionError):
        reflect(GL22, BETA1, ALPHA)
    with pytest.raises(ZeroDivisionError):
        reflect(GL22, DELTA, ALPHA)


def test_translate_examples():
    # (rho, delta) = 0 and rho has level 0, so translating 2 rho only
    # shifts its delta coordinate, by -(2 rho, mu)
    rho2 = GL22.rho2
    assert translate(GL22, ALPHA, rho2, 0) == _add(rho2, _scale(-2, DELTA))
    assert translate(GL22, GAMMA, rho2, 0) == _add(rho2, _scale(-2, DELTA))
    assert translate(GL22, ALPHA, BETA1, 0) == _add(BETA1, DELTA)
    assert translate(GL22, ALPHA, DELTA, 0) == DELTA
    # Lambda0, level 1 and zero root-lattice coordinates: alpha - delta
    assert translate(GL22, ALPHA, (0, 0, 0, 0), 1) == _add(ALPHA, _scale(-1, DELTA))
    # sl(2|1): t_{-k alpha'} (2 rho-hat) - 2 rho-hat = -2k alpha' - 2k^2 delta
    for k in range(-3, 4):
        mu = _scale(-k, ALPHA_SL21)
        assert translate(SL21_ROOTS, mu, (0, 0, 0), 2) == (-2 * k * k, -2 * k, -2 * k)


def _random_vector(rng, system):
    return tuple(rng.randrange(-4, 5) for _ in system.gram)


def _random_word(rng, roots, length):
    return tuple(("s", rng.choice(roots)) if rng.randrange(2)
                 else ("t", _scale(rng.randrange(-5, 6), rng.choice(roots)))
                 for _ in range(length))


def test_form_invariance_and_group_law_200_triples():
    rng = random.Random(424242)
    for system, roots in 100 * list(_SYSTEMS.values()):
        w1 = _random_word(rng, roots, rng.randrange(4))
        w2 = _random_word(rng, roots, rng.randrange(4))
        lam, mu = _random_vector(rng, system), _random_vector(rng, system)
        # the level-0 action preserves the form
        assert system.form(act(system, w1, lam, 0), act(system, w1, mu, 0)) \
            == system.form(lam, mu)
        # a product of words acts as the composition, at every level, and
        # the term sign is multiplicative
        for level in (0, 2):
            assert act(system, w1 + w2, lam, level) \
                == act(system, w1, act(system, w2, lam, level), level)
        signs = [normalized_term(system, w, ())[0] for w in (w1, w2, w1 + w2)]
        assert signs[2] == signs[0] * signs[1]


def test_group_relations():
    rng = random.Random(7)
    for system, roots in 60 * list(_SYSTEMS.values()):
        v, level = _random_vector(rng, system), rng.choice((0, 1, 2))
        nu = rng.choice(roots)
        mu, mu2 = (_scale(rng.randrange(-4, 5), rng.choice(roots)) for _ in range(2))
        s = ("s", nu)
        # s^2 = 1
        assert act(system, (s, s), v, level) == v
        # t_mu t_mu2 = t_{mu + mu2}
        assert act(system, (("t", mu), ("t", mu2)), v, level) \
            == translate(system, _add(mu, mu2), v, level)
        # s t_mu s = t_{s mu}
        assert act(system, (s, ("t", mu), s), v, level) \
            == translate(system, reflect(system, nu, mu), v, level)


def test_fixed_vectors():
    # delta and beta1 - beta2 in both systems
    rng = random.Random(9)
    for system, roots in 30 * list(_SYSTEMS.values()):
        fixed = ((DELTA, (0, 0, 1, -1)) if system is GL22
                 else ((1, 0, 0), (0, 1, -1)))
        w = _random_word(rng, roots, rng.randrange(1, 5))
        for v in fixed:
            assert act(system, w, v, 0) == v


ORBIT_PATH_PROBE = """
import sys
from superdenom import analytic, cli, identities, report, roots, series, squares
roots.orbit_sum("T_alpha", roots.R_RHO_SEED, 16)
roots.orbit_sum("What_alpha", roots.STANDARD_SEED, 24)
roots.orbit_sum("sl21", roots.SL21_SEED, 24)
print("fractions" in sys.modules)
"""


def test_orbit_path_needs_no_fraction():
    # no module of the package imports fractions, and the orbit sums need
    # none; a fresh interpreter, so nothing imported by this test run counts
    out = subprocess.run([sys.executable, "-c", ORBIT_PATH_PROBE],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# -- orbit expansions --------------------------------------------------------


def _sw(n, eps):
    """The word of t_{n alpha} s_alpha^eps."""
    return (("t", _scale(n, ALPHA)),) + S_ALPHA * eps


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
            s = expand_orbit_term(GL22, _sw(n, eps), STANDARD_SEED, cutoff)
            got = set(s.support())
            assert got == _expected_sw_support(n, eps, cutoff), (n, eps)
            supports[(n, eps)] = got
    # the pieces never overlap
    keys = list(supports)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            assert not (supports[a] & supports[b]), (a, b)


def test_orbit_sum_anti_invariance():
    # replacing the seed by w0(seed), sign included, reindexes the same sum:
    # every element w becomes w w0
    cutoff = 16
    base = orbit_sum("What_alpha", STANDARD_SEED, cutoff)
    for w0 in (S_ALPHA, T_ALPHA, _sw(-2, 1)):
        twisted = ring_sum(GL, cutoff, lambda k: [
            normalized_term(GL22, w + w0, STANDARD_SEED)
            for w in _ring("What_alpha", k)])
        assert twisted == base


def test_orbit_sum_coefficient_symmetry():
    # coefficients of the rho-normalized sum are antisymmetric under the
    # rho-twisted action on labels: a_{w . mu} = sgn(w) a_mu, where the term
    # of raw exponents e has the label mu = rho - e, so 2 mu = 2 rho - 2e
    cutoff = 16
    s = orbit_sum("What_alpha", STANDARD_SEED, cutoff)
    rho2 = GL22.rho2
    checked = 0
    for w in (S_ALPHA, T_ALPHA, (("t", _scale(-1, ALPHA)),)):
        sgn = normalized_term(GL22, w, ())[0]
        for _, e, c in s.items_canonical():
            mu2 = _add(rho2, _scale(-2, e))
            image = tuple((r - x) // 2 for r, x in zip(rho2, act(GL22, w, mu2, 0)))
            _, in_cone, deg = cone_coords(GL, image)
            if in_cone and deg <= cutoff:
                assert coeff(s, image) == sgn * c
                checked += 1
    assert checked > 100


def test_finite_orbit_sums_are_two_term():
    wa = orbit_sum("W_alpha", STANDARD_SEED, 8)
    direct = linear_combine([
        (1, expand_orbit_term(GL22, (), STANDARD_SEED, 8)),
        (1, expand_orbit_term(GL22, S_ALPHA, STANDARD_SEED, 8)),
    ])
    assert wa == direct
