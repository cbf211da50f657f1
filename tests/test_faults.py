"""Fault injection: a broken builder must be caught by the verifiers.

Each product-side case drops one Pochhammer family from the schedule, flips
its sign or steps it by q^2 instead of q; each prefactor case does the same
to one prefactor family, and each sl(2|1) case to one family of the
sl(2|1) product side, whose step is z.  The build derives every factor of
a family, its tail and its low binomials, from the family's (head, step),
so each case changes them all.  A dropped or sign-flipped family changes
the product first at the degree of its head (its step q has degree 4 > 0,
z degree 3); a squared step first loses the factor head * step, at that
degree plus 4 (plus 3 for z).  The mismatch must be reported there, by the
denominator check and by the ratio check, which divides the orbit sum by
the quotient P' derived from both gl(2|2) tables: with a wrong P' the ratio
is P' over the wrong one, which first differs from 1 at that same degree;
an sl(2|1) case by the sl(2|1) check.  Each orbit-side case drops ring n
of an orbit sum, which must be reported at the lowest degree of that ring.
The Weyl-action cases break `roots.translate` or `roots.reflect`, which
the closed-form orbit sum does not use.  The eight-squares case breaks the
sign-twisted divisor formula, which `jacobi` must flag row by row.
"""

import pytest
from oracles import inner

from superdenom import cli, squares
from superdenom import identities as ids
from superdenom import roots
from superdenom.series import SeriesError


@pytest.fixture
def fresh_caches():
    # the builders are lru_cached: no mutated series may leak into, or out
    # of, a case
    cached = [f for f in vars(ids).values() if hasattr(f, "cache_clear")]
    for f in cached:
        f.cache_clear()
    yield
    for f in cached:
        f.cache_clear()


# table: its lattice and the degree of its step
_TABLES = {"_SCHEDULE": (ids.GL, 4), "_PREFACTOR": (ids.GL, 4),
           "_SL21_PRODUCT": (ids.SL21, 3)}


def _assert_caught_at(table, degree):
    lattice, _ = _TABLES[table]
    if table == "_SL21_PRODUCT":
        reports = [ids.verify_sl21(18)]
    else:
        reports = [ids.verify_denominator(12), ids.ratio_support_check(12)]
    for rep in reports:
        assert not rep.matched
        assert lattice.degree(rep.first_diffs[0][0]) == degree


# the schedule cases keep their ids 0..15; the prefactor cases are
# prefactor-i and the sl(2|1) cases sl21-i
_FAMILIES = ([pytest.param("_SCHEDULE", i, id=str(i))
              for i in range(len(ids._SCHEDULE))]
             + [pytest.param("_PREFACTOR", i, id=f"prefactor-{i}")
                for i in range(len(ids._PREFACTOR))]
             + [pytest.param("_SL21_PRODUCT", i, id=f"sl21-{i}")
                for i in range(len(ids._SL21_PRODUCT))])


@pytest.mark.parametrize("table, i", _FAMILIES)
def test_dropped_factor_is_caught(monkeypatch, fresh_caches, table, i):
    families = getattr(ids, table)
    monkeypatch.setattr(ids, table, families[:i] + families[i + 1:])
    _assert_caught_at(table, _TABLES[table][0].degree(families[i][0]))


@pytest.mark.parametrize("table, i", _FAMILIES)
def test_flipped_sign_is_caught(monkeypatch, fresh_caches, table, i):
    families = list(getattr(ids, table))
    head, step, sign, inverse = families[i]
    families[i] = (head, step, -sign, inverse)
    monkeypatch.setattr(ids, table, tuple(families))
    _assert_caught_at(table, _TABLES[table][0].degree(head))


@pytest.mark.parametrize("table, i", _FAMILIES)
def test_squared_step_is_caught(monkeypatch, fresh_caches, table, i):
    families = list(getattr(ids, table))
    head, step, sign, inverse = families[i]
    families[i] = (head, tuple(2 * g for g in step), sign, inverse)
    monkeypatch.setattr(ids, table, tuple(families))
    lattice, step_degree = _TABLES[table]
    _assert_caught_at(table, lattice.degree(head) + step_degree)


def _drop_ring(monkeypatch, name, n):
    terms = getattr(ids, name)
    monkeypatch.setattr(ids, name,
                        lambda order, k: [] if abs(k) == n else terms(order, k))


@pytest.mark.parametrize("n, degree", [(1, 1), (2, 5), (3, 9)])
def test_dropped_closed_orbit_ring_is_caught(monkeypatch, fresh_caches, n, degree):
    # ring n of the closed orbit sum starts at degree 4n - 3
    _drop_ring(monkeypatch, "_closed_orbit_term", n)
    rep = ids.verify_denominator(12)
    assert not rep.matched
    assert ids.GL.degree(rep.first_diffs[0][0]) == degree


@pytest.mark.parametrize("n, degree, order", [(1, 1, 18), (2, 8, 18), (3, 21, 24)])
def test_dropped_sl21_ring_is_caught(monkeypatch, fresh_caches, n, degree, order):
    # ring n of the sl(2|1) orbit sum starts at degree 3n^2 - 2n, so ring 3
    # needs an order above the default 18
    _drop_ring(monkeypatch, "_sl21_ring", n)
    rep = ids.verify_sl21(order)
    assert not rep.matched
    assert ids.SL21.degree(rep.first_diffs[0][0]) == degree


def test_translate_without_delta_term_is_caught(monkeypatch, fresh_caches):
    # without its delta term a translation fixes every level-0 weight, so
    # every ring of a translation orbit repeats ring 0 and the ring sum
    # fails at its bound instead of returning a series
    # (lam, delta) is 0 on every weight the orbit sums meet
    monkeypatch.setattr(
        roots, "translate", lambda mu, lam: lam + int(inner(lam, roots.DELTA)) * mu)
    with pytest.raises(SeriesError, match="past the bound"):
        roots.orbit_sum("What_alpha", roots.STANDARD_SEED, ids.GL, 24)
    with pytest.raises(SeriesError, match="past the bound"):
        ids.verify_talpha_tgamma(16)


def test_reflect_as_identity_is_caught(monkeypatch, fresh_caches):
    # s_alpha (seed) then cancels the seed, so both finite orbit sums vanish
    # and the product side's constant term 1 is the first diff
    monkeypatch.setattr(roots, "reflect", lambda nu, lam: lam)
    rep = ids.verify_finite_identity(24)
    assert not rep.matched
    assert ids.GL3.degree(rep.first_diffs[0][0]) == 0


def test_untwisted_companion_formula_is_caught(monkeypatch, capsys):
    # a twisted branch that returns the plain formula is wrong at every odd
    # n, where theta(-q)^8 has -r8(n): `jacobi` must exit 1 and flag those
    # rows, although enumeration, theta^8 and the plain formula agree there
    formula = squares.jacobi_formula
    monkeypatch.setattr(squares, "jacobi_formula",
                        lambda order, twist=False: formula(order))
    assert cli.main(["jacobi", "--max-n", "8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["n=0: 1 1 1 ok", "n=1: 16 16 16 MISMATCH",
                         "n=2: 112 112 112 ok"]
    assert [line.endswith("MISMATCH") for line in lines[:9]] == [
        n % 2 == 1 for n in range(9)]
