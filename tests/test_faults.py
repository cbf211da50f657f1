"""Fault injection: a broken builder must be caught by the verifiers.

Each product-side case drops one Pochhammer family from the schedule, flips
its sign or its inverse flag or starts it one delta = q late; each prefactor
case does the same to one prefactor family.  The build derives every factor
of a family, its tail and its low binomials, from the family's head, so each
case changes them all.  A dropped, flipped or late family changes the
product first at the degree of its head (q has degree 4 > 0): a late family
loses its lowest factor, that of the head itself.  The mismatch must be
reported there, by the denominator check and by the ratio check, which
divides the orbit sum by the quotient P' derived from both gl(2|2) tables:
with a wrong P' the ratio is P' over the wrong one, which first differs from
1 at that same degree.  A broken schedule must also part `build_lhs` from
its cross-check `lhs_from_roots` at that degree.  The sl(2|1) product side
is read off its finite positive roots: each sl(2|1) case drops one root of
`roots.SL21_POSITIVE`, flips its sign or its inverse flag, which changes the
roots v and delta - v first, at the lower of their degrees, or changes the
Cartan dimension, which changes the imaginary root delta, of degree 3.  The
sl(2|1) check must report each there, and a changed Cartan dimension must
also part `lhs_from_roots` from `build_lhs` at the degree 4 of delta.  Each
orbit-side case drops ring n of an orbit sum, which must be reported at the
lowest degree of that ring; a case that breaks one term of the sl(2|1) rings
must be reported there by the Weyl-group route.  The Weyl-action cases break
`roots.translate` or `roots.reflect`, which the closed-form orbit sums do
not use.  The eight-squares cases break the sign-twisted divisor formula or
the theta series, which `jacobi` must flag row by row from the lowest
failing n, or the Gauss product, which it must flag on its gauss and
intermediate line.
"""

import pytest

from superdenom import cli, squares
from superdenom import identities as ids
from superdenom import roots
from superdenom.report import compare_series
from superdenom.series import GradedSeries, SeriesError, linear_combine

# table: its module and lattice
_TABLES = {"_SCHEDULE": (ids, ids.GL), "_PREFACTOR": (ids, ids.GL),
           "SL21_POSITIVE": (roots, ids.SL21)}


def _delta_degree(lattice):
    # delta is the first basis vector, the step of every family: q on GL
    # (degree 4) and z on SL21 (degree 3)
    return lattice.degree((1,) + (0,) * (lattice.rank - 1))


def _first_degree(table, entry):
    """Where breaking a table entry first changes its product: a family at
    its head, a finite root v at the lower degree of v and delta - v."""
    lattice = _TABLES[table][1]
    d = lattice.degree(entry[0])
    return min(d, _delta_degree(lattice) - d) if table == "SL21_POSITIVE" else d


def _assert_caught_at(table, degree):
    lattice = _TABLES[table][1]
    if table == "SL21_POSITIVE":
        reports = [ids.verify_sl21(18)]
    else:
        reports = [ids.verify_denominator(12), ids.ratio_support_check(12)]
    if table == "_SCHEDULE":
        reports.append(compare_series("lhs-cross-check", ids.build_lhs(12),
                                      ids.lhs_from_roots(12)))
    for rep in reports:
        assert not rep["matched"]
        assert lattice.degree(rep["first_diffs"][0]["e"]) == degree


def _break(monkeypatch, table, i, entry):
    """Set entry i of the table, or drop it if entry is None."""
    module = _TABLES[table][0]
    entries = list(getattr(module, table))
    entries[i:i + 1] = [] if entry is None else [entry]
    monkeypatch.setattr(module, table, tuple(entries))


def _params(tables):
    # the schedule cases keep their ids 0..15; the prefactor cases are
    # prefactor-i and the sl(2|1) root cases sl21-i
    prefix = {"_SCHEDULE": "", "_PREFACTOR": "prefactor-", "SL21_POSITIVE": "sl21-"}
    return [pytest.param(t, i, id=f"{prefix[t]}{i}") for t in tables
            for i in range(len(getattr(_TABLES[t][0], t)))]


_ALL = _params(_TABLES)
_FAMILIES = _params(["_SCHEDULE", "_PREFACTOR"])


@pytest.mark.parametrize("table, i", _ALL)
def test_dropped_factor_is_caught(monkeypatch, fresh_caches, table, i):
    entry = getattr(_TABLES[table][0], table)[i]
    _break(monkeypatch, table, i, None)
    _assert_caught_at(table, _first_degree(table, entry))


@pytest.mark.parametrize("table, i", _ALL)
def test_flipped_sign_is_caught(monkeypatch, fresh_caches, table, i):
    *rest, sign, inverse = entry = getattr(_TABLES[table][0], table)[i]
    _break(monkeypatch, table, i, (*rest, -sign, inverse))
    _assert_caught_at(table, _first_degree(table, entry))


@pytest.mark.parametrize("table, i", _ALL)
def test_flipped_inverse_is_caught(monkeypatch, fresh_caches, table, i):
    *rest, inverse = entry = getattr(_TABLES[table][0], table)[i]
    _break(monkeypatch, table, i, (*rest, not inverse))
    _assert_caught_at(table, _first_degree(table, entry))


@pytest.mark.parametrize("table, i", _FAMILIES)
def test_late_head_is_caught(monkeypatch, fresh_caches, table, i):
    head, sign, inverse = getattr(ids, table)[i]
    _break(monkeypatch, table, i, ((head[0] + 1, *head[1:]), sign, inverse))
    _assert_caught_at(table, ids.GL.degree(head))


@pytest.mark.parametrize("change", [-1, 1])
def test_changed_cartan_dimension_is_caught(monkeypatch, fresh_caches, change):
    # one imaginary root delta too few or too many, in both uses of the rule
    rule = ids._root_families
    monkeypatch.setattr(ids, "_root_families", lambda lattice, finite, cartan:
                        rule(lattice, finite, cartan + change))
    _assert_caught_at("SL21_POSITIVE", _delta_degree(ids.SL21))
    rep = compare_series("lhs-cross-check", ids.build_lhs(12), ids.lhs_from_roots(12))
    assert not rep["matched"]
    assert ids.GL.degree(rep["first_diffs"][0]["e"]) == _delta_degree(ids.GL)


def _drop_ring(monkeypatch, name, n):
    ring = getattr(ids, name)
    monkeypatch.setattr(ids, name, lambda k: [] if abs(k) == n else ring(k))


@pytest.mark.parametrize("n, degree", [(1, 1), (2, 5), (3, 9)])
def test_dropped_closed_orbit_ring_is_caught(monkeypatch, fresh_caches, n, degree):
    # ring n of the closed orbit sum starts at degree 4n - 3
    _drop_ring(monkeypatch, "_closed_ring", n)
    rep = ids.verify_denominator(12)
    assert not rep["matched"]
    assert ids.GL.degree(rep["first_diffs"][0]["e"]) == degree


@pytest.mark.parametrize("n, degree, order", [(1, 1, 18), (2, 8, 18), (3, 21, 24)])
def test_dropped_sl21_ring_is_caught(monkeypatch, fresh_caches, n, degree, order):
    # ring n of the sl(2|1) orbit sum starts at degree 3n^2 - 2n, so ring 3
    # needs an order above the default 18
    _drop_ring(monkeypatch, "_sl21_ring", n)
    rep = ids.verify_sl21(order)
    assert not rep["matched"]
    assert ids.SL21.degree(rep["first_diffs"][0]["e"]) == degree


@pytest.mark.parametrize("n, degree, order", [(1, 1, 18), (2, 8, 18), (3, 21, 24)])
def test_untranslated_sl21_seed_root_is_caught(monkeypatch, fresh_caches, n,
                                               degree, order):
    # the first terms of ring n keep the seed root beta1 untranslated, the
    # factor 1/(1 + u1) for 1/(1 + z^{+-n} u1); the term of power -n then
    # has the leading monomial z^{n^2} e^{n alpha'} of degree 3n^2 - 2n,
    # where it cancels the second term of power n, so the Weyl-group route
    # must report the mismatch there
    ring = ids._sl21_ring

    def broken(k):
        terms = ring(k)
        if abs(k) == n:
            sign, base, _ = terms[0]
            terms[0] = (sign, base, [((0, 1, 0), 1, True)])
        return terms

    monkeypatch.setattr(ids, "_sl21_ring", broken)
    rep = compare_series("sl21-weyl-route", ids.build_sl21_rhs(order),
                         roots.orbit_sum("sl21", roots.SL21_SEED, order))
    assert not rep["matched"]
    assert ids.SL21.degree(rep["first_diffs"][0]["e"]) == degree


def test_translate_without_delta_term_is_caught(monkeypatch, fresh_caches):
    # without its delta term a translation fixes every level-0 vector, so
    # every ring of a translation orbit repeats ring 0 and the ring sum
    # fails at its bound instead of returning a series; rho-hat has level 0
    # on gl(2|2)^
    monkeypatch.setattr(roots, "translate", lambda system, mu, v, level: tuple(
        x + level * m for x, m in zip(v, mu)))
    with pytest.raises(SeriesError, match="past the bound"):
        roots.orbit_sum("What_alpha", roots.STANDARD_SEED, 24)
    with pytest.raises(SeriesError, match="past the bound"):
        ids.verify_talpha_tgamma(16)


def test_reflect_as_identity_is_caught(monkeypatch, fresh_caches):
    # s_alpha (seed) then cancels the seed, so both finite orbit sums vanish
    # and the product side's constant term 1 is the first diff
    monkeypatch.setattr(roots, "reflect", lambda system, nu, v: v)
    rep = ids.verify_finite_identity(24)
    assert not rep["matched"]
    assert ids.GL.degree(rep["first_diffs"][0]["e"]) == 0


def test_wgamma_sum_without_its_constant_is_caught(monkeypatch, fresh_caches):
    # the product form and the W_alpha sum still agree, so the verdict is
    # that of the failing pair, W_alpha against W_gamma, with its term counts
    orbit_sum = roots.orbit_sum

    def broken(group, seed, cutoff):
        s = orbit_sum(group, seed, cutoff)
        if group != "W_gamma":
            return s
        return linear_combine([(1, s), (-1, GradedSeries.one(s.lattice, cutoff))])

    monkeypatch.setattr(roots, "orbit_sum", broken)
    rep = ids.verify_finite_identity(8)
    terms = len(orbit_sum("W_alpha", roots.STANDARD_SEED, 8))
    assert not rep["matched"]
    assert rep["extra"] == {"product_vs_walpha": True, "walpha_vs_wgamma": False}
    assert (rep["lhs_terms"], rep["rhs_terms"]) == (terms, terms - 1)
    assert rep["first_diffs"] == [{"e": [0, 0, 0, 0], "lhs": "1", "rhs": "0"}]


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


def test_theta_without_its_q4_term_is_caught(monkeypatch, capsys):
    # theta without 2 q^4 loses the vectors with one coordinate +-2 and the
    # rest 0 from theta^8 at q^4: 16 of r8(4) = 1136
    theta = squares.theta
    monkeypatch.setattr(squares, "theta", lambda order, sign=1: [
        0 if n == 4 else c for n, c in enumerate(theta(order, sign))])
    assert cli.main(["jacobi", "--max-n", "8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith(" ok") for line in lines[:4]] == [True] * 4
    assert lines[4] == "n=4: 1136 1120 1136 MISMATCH"


def test_flipped_inverse_pochhammer_sign_is_caught(monkeypatch, capsys):
    # dividing by (q; q) instead of (-q; q) makes the Gauss product 1, which
    # is neither theta(-q) nor the intermediate identity's right side
    pochhammer = squares._pochhammer
    monkeypatch.setattr(
        squares, "_pochhammer",
        lambda c, sign, inverse=False: pochhammer(c, -sign if inverse else sign, inverse))
    assert cli.main(["jacobi", "--max-n", "8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(" ok") for line in lines[:-1])
    assert lines[-1] == "gauss: MISMATCH; intermediate: MISMATCH"
