"""Root-lattice coordinates, the Weyl group and signed orbit expansions.

A vector is an int tuple of coordinates on a basis of roots with delta
first, so the coordinates of v are the raw exponents of the monomial
e^{-v} on the algebra's series lattice.  The form is the Gram matrix of
that basis, computed from the (eps, d) coordinates of the basis roots.
rho-hat = rho + k Lambda0 has level k; rho is stored as 2 rho, which is
integral, and the group acts on 2 rho-hat as on a vector of level 2k.

Both algebras share three operations: the reflection `reflect`, the
translation `translate`, and the term normaliser `normalized_term`, which
turns a group element and a seed into the (sign, base, factors) that
`series.expand_term` takes.  A seed is e^{rho-hat} times the product of
its factors, listed as (vector v, s, inverse) triples, each
(1 + s e^{-v})**(-1 if inverse else 1).  A group element is a word of
generators ("s", nu), the reflection along nu, and ("t", mu), the
translation by mu, applied from the right.
"""

from __future__ import annotations

from .series import GL, SL21, GradedSeries, expand_term, ring_sum


class RootSystem:
    """The Gram matrix ``gram`` of a basis with delta first, 2 rho, the
    level of rho-hat and the series lattice of e^{-v}.

    ``basis`` lists the (eps, d) coordinates of the basis vectors, delta as
    zero, and ``signs`` the diagonal of the form on eps and d.  `form`
    sums over the nonzero entries of the Gram matrix only.  Immutable by
    convention.
    """

    __slots__ = ("gram", "_entries", "rho2", "level", "lattice")

    def __init__(self, basis, signs, rho2, level, lattice):
        self.gram = tuple(tuple(sum(f * x * y for f, x, y in zip(signs, u, v))
                                for v in basis) for u in basis)
        self._entries = tuple((i, j, g) for i, row in enumerate(self.gram)
                              for j, g in enumerate(row) if g)
        self.rho2 = rho2
        self.level = level
        self.lattice = lattice

    def form(self, u, v) -> int:
        return sum([g * u[i] * v[j] for i, j, g in self._entries])


def reflect(system: RootSystem, nu, v):
    """s_nu(v) = v - (2 (v, nu) / (nu, nu)) nu.  Every root the groups
    reflect along has (nu, nu) = +-2, so the quotient is exact."""
    c = 2 * system.form(v, nu) // system.form(nu, nu)
    return tuple(x - c * y for x, y in zip(v, nu))


def translate(system: RootSystem, mu, v, level: int):
    """t_mu(v) = v + k mu - ((v, mu) + k (mu, mu) / 2) delta for v of level
    k, so t_mu(v) = v - (v, mu) delta at level 0.  Both Gram matrices have
    an even diagonal, so (mu, mu) is even and the quotient exact."""
    n = system.form(v, mu) + level * system.form(mu, mu) // 2
    out = [x + level * m for x, m in zip(v, mu)]
    out[0] -= n
    return tuple(out)


def act(system: RootSystem, word, v, level: int):
    """w(v) for the word w, v of the given level."""
    for op, x in reversed(word):
        v = reflect(system, x, v) if op == "s" else translate(system, x, v, level)
    return v


def normalized_term(system: RootSystem, word, seed):
    """e^{-rho-hat} w(seed-hat) as (sign, base, factors) for `expand_term`:
    the sign (-1)^(reflections), the raw exponents -(w rho-hat - rho-hat)
    and the factors (w v, s, inverse)."""
    sign = -1 if sum(op == "s" for op, _ in word) % 2 else 1
    top2 = act(system, word, system.rho2, 2 * system.level)
    return (sign, tuple((r - t) // 2 for r, t in zip(system.rho2, top2)),
            [(act(system, word, v, 0), s, inverse) for v, s, inverse in seed])


def expand_orbit_term(system: RootSystem, word, seed, cutoff: int) -> GradedSeries:
    """Expansion of e^{-rho-hat} w(seed-hat) on the system's lattice."""
    return expand_term(system.lattice, cutoff, *normalized_term(system, word, seed))


# gl(2|2)^ on `series.GL`: delta, alpha = eps1 - eps2, beta1 = d1 - eps1,
# beta2 = eps2 - d2; the form is +1, +1, -1, -1 on eps1, eps2, d1, d2, and
# rho = -(beta1 + beta2) / 2 at level 0
GL22 = RootSystem(((0, 0, 0, 0), (1, -1, 0, 0), (-1, 0, 1, 0), (0, 1, 0, -1)),
                  (1, 1, -1, -1), (0, 0, -1, -1), 0, GL)
DELTA, ALPHA, BETA1, BETA2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
GAMMA = (0, 1, 1, 1)                   # beta1 + alpha + beta2 = d1 - d2

STANDARD_SEED = ((BETA1, 1, True), (BETA2, 1, True))
# R e^rho; the finite positive roots, listed once: each even root v as the
# factor (1 - e^{-v}), each odd one as 1/(1 + e^{-v})
R_RHO_SEED = ((ALPHA, -1, False), (GAMMA, -1, False),
              (BETA1, 1, True), (BETA2, 1, True),
              ((0, 1, 1, 0), 1, True), ((0, 1, 0, 1), 1, True))

# sl(2|1)^ on `series.SL21`: delta, beta1 = eps1 - d, beta2 = d - eps2; the
# form is +1, +1, -1 on eps1, eps2, d, and rho = 0 at level h^v = 1
SL21_ROOTS = RootSystem(((0, 0, 0), (1, 0, -1), (0, -1, 1)), (1, 1, -1),
                        (0, 0, 0), 1, SL21)
ALPHA_SL21 = (0, 1, 1)                 # beta1 + beta2 = eps1 - eps2
SL21_SEED = (((0, 1, 0), 1, True),)    # 1 / (1 + e^{-beta1})
# the finite positive roots alpha' (even), beta1 and beta2 (odd), as in R_RHO_SEED
SL21_POSITIVE = ((ALPHA_SL21, -1, False), ((0, 1, 0), 1, True), ((0, 0, 1), 1, True))

# name: (root system, translation step mu or None, reflecting root nu or
# None); ring k holds t_{k mu} and t_{k mu} s_nu, and a group without
# translations only ring 0, {1, s_nu}
_GROUPS = {
    "W_alpha": (GL22, None, ALPHA),
    "W_gamma": (GL22, None, GAMMA),
    "T_alpha": (GL22, ALPHA, None),
    "T_gamma": (GL22, GAMMA, None),
    "What_alpha": (GL22, ALPHA, ALPHA),
    "What_gamma": (GL22, GAMMA, GAMMA),
    "sl21": (SL21_ROOTS, tuple(-x for x in ALPHA_SL21), ALPHA_SL21),
}


def _ring(group: str, k: int):
    """The words of the group elements whose translation power is k."""
    _, mu, nu = _GROUPS[group]
    if mu is None:
        return [(), (("s", nu),)] if k == 0 else []
    t = (("t", tuple(k * x for x in mu)),)
    return [t] if nu is None else [t, t + (("s", nu),)]


def orbit_sum(group: str, seed, cutoff: int) -> GradedSeries:
    """Signed sum of seed over the group, rho-normalized and truncated.

    Group elements are visited ring by ring in the translation power, by
    `ring_sum`.
    """
    system = _GROUPS[group][0]
    return ring_sum(system.lattice, cutoff,
                    lambda k: [normalized_term(system, w, seed)
                               for w in _ring(group, k)])
