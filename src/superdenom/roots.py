"""Weight space, bilinear form, Weyl group and signed orbit expansions.

Weights live in the six-dimensional space with ordered basis
(eps1, eps2, d1, d2, delta, L0); the form is diagonal +1,+1,-1,-1 on the
first four vectors, delta and L0 are isotropic and pair to 1.  The Weyl
group is the product of two infinite dihedral factors, generated by the
reflections along alpha and gamma together with the translations along
them.

Weights have coordinates in 1/2 Z and are stored in half units, so the
group action is exact int arithmetic; a result outside (1/2 Z)^6 raises
RootError.  The constants below are built from half units directly, and a
weight is scaled only by ints.
"""

from __future__ import annotations

from .series import GradedSeries, LatticeSpec, expand_term, ring_sum


class RootError(Exception):
    pass


class Weight:
    """A weight in (1/2 Z)^6, stored as the ints ``halves`` = 2 * coordinates.

    The only halves the orbit sums meet come from rho = -(beta1 + beta2)/2
    and its images.  Immutable by convention.
    """

    __slots__ = ("halves",)

    def __init__(self, halves: tuple[int, ...]):
        self.halves = halves

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.halves == other.halves

    def __hash__(self):
        return hash(self.halves)

    def __repr__(self):
        return f"Weight(halves={self.halves!r})"

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.halves, other.halves)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.halves, other.halves)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.halves))

    def __rmul__(self, scalar: int) -> "Weight":
        if not isinstance(scalar, int):
            return NotImplemented
        return Weight(tuple(scalar * a for a in self.halves))


EPS1 = Weight((2, 0, 0, 0, 0, 0))
EPS2 = Weight((0, 2, 0, 0, 0, 0))
D1 = Weight((0, 0, 2, 0, 0, 0))
D2 = Weight((0, 0, 0, 2, 0, 0))
DELTA = Weight((0, 0, 0, 0, 2, 0))
LAMBDA0 = Weight((0, 0, 0, 0, 0, 2))

BETA1 = D1 - EPS1
ALPHA = EPS1 - EPS2
BETA2 = EPS2 - D2
GAMMA = BETA1 + ALPHA + BETA2          # = D1 - D2
RHO = Weight((1, -1, -1, 1, 0, 0))     # = -(BETA1 + BETA2) / 2


def _form4(x, y) -> int:
    """4 (a, b), for the half units x, y of a, b."""
    return (x[0] * y[0] + x[1] * y[1] - x[2] * y[2] - x[3] * y[3]
            + x[4] * y[5] + x[5] * y[4])


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise RootError(f"{num}/{den} is not an integer: the result leaves (1/2 Z)^6")
    return q


def reflect(nu: Weight, lam: Weight) -> Weight:
    """lam - (2 (lam, nu) / (nu, nu)) nu, which must lie in (1/2 Z)^6."""
    nn = _form4(nu.halves, nu.halves)
    if nn == 0:
        raise RootError("cannot reflect along an isotropic vector")
    k = 2 * _form4(lam.halves, nu.halves)
    return Weight(tuple(a - _exact(k * b, nn) for a, b in zip(lam.halves, nu.halves)))


def translate(mu: Weight, lam: Weight) -> Weight:
    """lam + (lam, delta) mu - ((lam, mu) + (mu, mu) (lam, delta) / 2) delta.

    In half units (lam, delta) is lev / 2 with lev = lam.halves[5], so mu
    is added lev / 2 times, and the delta half unit drops by
    (16 (lam, mu) + 4 (mu, mu) lev) / 8.  The result must lie in (1/2 Z)^6.
    """
    x, m = lam.halves, mu.halves
    lev = x[5]
    # the orbit sums meet only level 0 (lev = 0), where the shift vanishes
    h = [a + _exact(lev * b, 2) for a, b in zip(x, m)] if lev else list(x)
    h[4] -= _exact(4 * _form4(x, m) + _form4(m, m) * lev, 8)
    return Weight(tuple(h))


class WeylElement:
    """t_{p*alpha} s_alpha^eps . t_{pp*gamma} s_gamma^epsp, in normal form.

    Immutable by convention.
    """

    __slots__ = ("p", "eps", "pp", "epsp")

    def __init__(self, p: int = 0, eps: int = 0, pp: int = 0, epsp: int = 0):
        self.p = p
        self.eps = eps
        self.pp = pp
        self.epsp = epsp

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return ((self.p, self.eps, self.pp, self.epsp)
                == (other.p, other.eps, other.pp, other.epsp))

    def __hash__(self):
        return hash((self.p, self.eps, self.pp, self.epsp))

    def sgn(self) -> int:
        return -1 if (self.eps + self.epsp) % 2 else 1

    def apply(self, lam: Weight) -> Weight:
        v = lam
        if self.epsp:
            v = reflect(GAMMA, v)
        if self.pp:
            v = translate(self.pp * GAMMA, v)
        if self.eps:
            v = reflect(ALPHA, v)
        if self.p:
            v = translate(self.p * ALPHA, v)
        return v


IDENTITY = WeylElement()
S_ALPHA = WeylElement(eps=1)
S_GAMMA = WeylElement(epsp=1)
T_ALPHA = WeylElement(p=1)
T_GAMMA = WeylElement(pp=1)


class OrbitTerm:
    """sign * e^top * prod(1 - e^{-nu}) / prod(1 + e^{-mu}) over the
    weights nu of ``nums`` and mu of ``dens``.  Immutable by convention."""

    __slots__ = ("sign", "top", "nums", "dens")

    def __init__(self, sign: int, top: Weight, nums: tuple[Weight, ...],
                 dens: tuple[Weight, ...]):
        self.sign = sign
        self.top = top
        self.nums = nums
        self.dens = dens


STANDARD_SEED = OrbitTerm(1, RHO, (), (BETA1, BETA2))
R_RHO_SEED = OrbitTerm(1, RHO, (ALPHA, GAMMA),
                       (BETA1, BETA2, ALPHA + BETA1, ALPHA + BETA2))


def apply_weyl_term(w: WeylElement, t: OrbitTerm) -> OrbitTerm:
    return OrbitTerm(t.sign * w.sgn(), w.apply(t.top),
                     tuple(w.apply(v) for v in t.nums),
                     tuple(w.apply(v) for v in t.dens))


def weight_to_exp(lam: Weight, affine: bool = True):
    """Raw exponents of the monomial e^lam.

    lam must lie in Z<delta, alpha, beta1, beta2> (delta coefficient 0 in
    the finite case); e.g. e^{-delta} is q, so e^lam = q^{-n} x^{-a} ...
    """
    c = lam.halves          # so a, b1, b2, n below are in half units too
    b1 = c[2]
    b2 = -c[3]
    a = c[0] + b1
    n = c[4]
    if c[1] != -a + b2 or c[5] != 0:
        raise RootError(f"{lam} outside the root lattice")
    if (n | a | b1 | b2) & 1:
        raise RootError(f"{lam} has non-integer root coordinates; "
                        "requires rho-normalization")
    if not affine:
        if n != 0:
            raise RootError(f"{lam} has a delta component in the finite case")
        return (-a // 2, -b1 // 2, -b2 // 2)
    return (-n // 2, -a // 2, -b1 // 2, -b2 // 2)


def expand_orbit_term(term: OrbitTerm, lattice: LatticeSpec,
                      cutoff: int) -> GradedSeries:
    """Expansion of e^{-rho} * term as a cone-supported series.

    The rank-4 lattice is the affine one; any other is finite (no delta).
    """
    affine = lattice.rank == 4
    base = weight_to_exp(term.top - RHO, affine)
    nums = [weight_to_exp(-v, affine) for v in term.nums]
    dens = [weight_to_exp(-v, affine) for v in term.dens]
    return expand_term(lattice, cutoff, term.sign, base, nums, dens)


_FINITE_GROUPS = {
    "W_alpha": (IDENTITY, S_ALPHA),
    "W_gamma": (IDENTITY, S_GAMMA),
}


def _ring(group: str, k: int):
    """Group elements whose translation power is k."""
    if group in _FINITE_GROUPS:
        return _FINITE_GROUPS[group] if k == 0 else ()
    if group == "T_alpha":
        return (WeylElement(p=k),)
    if group == "T_gamma":
        return (WeylElement(pp=k),)
    if group == "What_alpha":
        return (WeylElement(p=k), WeylElement(p=k, eps=1))
    if group == "What_gamma":
        return (WeylElement(pp=k), WeylElement(pp=k, epsp=1))
    raise ValueError(f"unknown group {group!r}")


def orbit_sum(group: str, seed: OrbitTerm, lattice: LatticeSpec,
              cutoff: int) -> GradedSeries:
    """Signed sum of seed over the group, rho-normalized and truncated.

    Group elements are visited ring by ring in the translation power, by
    `ring_sum`.
    """
    return ring_sum(
        lambda k: [expand_orbit_term(apply_weyl_term(w, seed), lattice, cutoff)
                   for w in _ring(group, k)])
