"""Acceptance gate: one test per headline criterion, each printing a
pass/fail line with the cutoff and tolerance it was run at."""

import json
import pathlib
import random
import time

import pytest
from oracles import ID3, degree_slice, from_coords, invert, to_exps

from superdenom import analytic, identities as ids, roots, squares
from superdenom.series import (
    GL,
    GradedSeries,
    cone_coords,
    mul,
    ring_sum,
)

DATA = pathlib.Path(__file__).parent / "data"


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_main_identity():
    started = time.perf_counter()
    rep = ids.verify_denominator(24)
    base_secs = time.perf_counter() - started
    started = time.perf_counter()
    stretch = ids.verify_denominator(40)
    stretch_secs = time.perf_counter() - started
    ok = (rep["matched"] and not rep["first_diffs"] and base_secs < 60
          and stretch["matched"] and stretch_secs < 600)
    _report("main identity exact at N=24 and N=40", ok,
            f"{rep['lhs_terms']} monomials in {base_secs:.1f}s, "
            f"stretch {stretch['lhs_terms']} in {stretch_secs:.1f}s")


def test_criterion_02_degree_one_slice_golden():
    doc = json.loads((DATA / "denom_slice1.json").read_text())
    want0 = {tuple(r["e"]): r["c"] for r in doc["degree0"]}
    want1 = {tuple(r["e"]): r["c"] for r in doc["degree1"]}
    lhs, rhs = ids.build_lhs(8), ids.build_rhs(8)
    ok = (degree_slice(lhs, 0) == want0 and degree_slice(lhs, 1) == want1
          and degree_slice(rhs, 0) == want0 and degree_slice(rhs, 1) == want1)
    _report("degree <= 1 slice equals the golden file on both sides", ok)


def test_criterion_03_prefactor_builders():
    rep = ids.verify_prefactor(40)
    _report("prefactor product and cyclotomic series agree at N=40",
            rep["matched"] and not rep["first_diffs"],
            f"{rep['lhs_terms']} monomials")


def test_criterion_04_finite_identity():
    rep = ids.verify_finite_identity(24)
    _report("finite identity three-way exact at N=24",
            rep["matched"] and rep["extra"]["product_vs_walpha"]
            and rep["extra"]["walpha_vs_wgamma"])


def test_criterion_05_sl21_identity():
    rep = ids.verify_sl21(18)
    _report("affine sl(2|1) identity exact at N=18",
            rep["matched"] and not rep["first_diffs"],
            f"{rep['lhs_terms']} monomials")


def test_criterion_06_translation_lattices():
    rep = ids.verify_talpha_tgamma(16)
    _report("alpha and gamma translation orbit sums equal at N=16",
            rep["matched"] and not rep["first_diffs"])


def test_criterion_07_ratio_support():
    rep = ids.ratio_support_check(24)
    _report("ratio supported on q^n (y1/y2)^j with |j| <= n and equal to 1 at N=24",
            rep["matched"] and rep["extra"]["support_ok"]
            and rep["extra"]["is_one"])


def test_criterion_08_eight_squares():
    doc = squares.verify_jacobi(64)
    spot = squares.r8_oracle(4)
    ok = (doc["all_match"] and doc["gauss"] and doc["intermediate"]
          and spot[1:] == [16, 112, 448, 1136])
    _report("eight-squares count three ways to n=64, Gauss to q^100, "
            "intermediate identity to q^64", ok)


def test_criterion_09_analytic_suite():
    rep = analytic.run_suite()
    ok = (rep["ok"]
          and rep["ratio_one_max_dev"] < 1e-8
          and analytic.check_ratio_one(analytic.Q)["n_samples"] == 16
          and rep["b_zero_max"] < 1e-8
          and rep["functional_max_dev"] < 1e-8
          and rep["limit_dev_a_over_r"] < 1e-3
          and rep["limit_dev_b"] < 1e-3
          and rep["an_limits_max_dev"] < 1e-6)
    _report("analytic suite at q=0.1 within stated tolerances", ok,
            f"ratio dev {rep['ratio_one_max_dev']:.1e}, "
            f"a_n dev {rep['an_limits_max_dev']:.1e}")


def test_criterion_10_property_suites():
    rng = random.Random(20240824)
    # grading additivity and unimodular round-trip
    grading_ok = True
    for _ in range(50):
        e = tuple(rng.randrange(-6, 7) for _ in range(4))
        f = tuple(rng.randrange(-6, 7) for _ in range(4))
        sum_e = tuple(a + b for a, b in zip(e, f))
        grading_ok &= GL.degree(sum_e) == GL.degree(e) + GL.degree(f)
        grading_ok &= to_exps(GL, GL.to_coords(e)) == e

    # s * s^{-1} = 1 on 100 random unit series
    one = GradedSeries.one(ID3, 10)
    invert_ok = True
    for _ in range(100):
        terms = {(0, 0, 0): rng.choice([1, -1])}
        for _ in range(rng.randrange(1, 8)):
            k = tuple(rng.randrange(0, 11) for _ in range(3))
            if 0 < sum(k) <= 10:
                terms[k] = rng.randrange(-9, 10) or 1
        s = from_coords(ID3, 10, terms)
        invert_ok &= mul(s, invert(s)) == one

    # Weyl form-invariance and group relations on 200 random triples, on
    # both root systems: s^2 = 1, t_mu t_nu = t_{mu+nu}, s t_mu s = t_{s mu}
    weyl_ok = True
    systems = [(roots.GL22, (roots.ALPHA, roots.GAMMA)),
               (roots.SL21_ROOTS, (roots.ALPHA_SL21,))]
    for system, simple in 100 * systems:
        nu = rng.choice(simple)
        mu, mu2 = (tuple(rng.randrange(-4, 5) * x for x in rng.choice(simple))
                   for _ in range(2))
        lam, lam2 = (tuple(rng.randrange(-4, 5) for _ in system.gram)
                     for _ in range(2))
        level = rng.choice((0, 2))
        s, t, t2 = ("s", nu), ("t", mu), ("t", mu2)
        w = rng.choice(((s,), (t,), (s, t), (t, s, t2)))
        weyl_ok &= (system.form(roots.act(system, w, lam, 0),
                                roots.act(system, w, lam2, 0))
                    == system.form(lam, lam2))
        weyl_ok &= roots.act(system, (s, s), lam, level) == lam
        weyl_ok &= (roots.act(system, (t, t2), lam, level)
                    == roots.translate(system, tuple(map(sum, zip(mu, mu2))),
                                       lam, level))
        weyl_ok &= (roots.act(system, (s, t, s), lam, level)
                    == roots.translate(system, roots.reflect(system, nu, mu),
                                       lam, level))

    # per-element orbit supports for |n| <= 3 are the predicted quadrants
    def expected(n, eps, cutoff):
        out = set()
        for k1 in range(cutoff + 3):
            for k2 in range(cutoff + 3):
                t = 1 + k1 + k2
                if eps == 0:
                    e = ((0, 0, k1, k2) if n == 0 else
                         (n * t, 0, k1, k2) if n > 0 else
                         (-n * t, 0, -k1 - 1, -k2 - 1))
                else:
                    e = ((0, t, k1, k2) if n == 0 else
                         (n * t, -t, -k1 - 1, -k2 - 1) if n > 0 else
                         (-n * t, t, k1, k2))
                _, in_cone, deg = cone_coords(GL, e)
                if in_cone and deg <= cutoff:
                    out.add(e)
        return out

    support_ok = True
    for n in range(-3, 4):
        for eps in (0, 1):
            w = (("t", (0, n, 0, 0)),) + (("s", roots.ALPHA),) * eps
            s = roots.expand_orbit_term(roots.GL22, w, roots.STANDARD_SEED, 12)
            support_ok &= set(s.support()) == expected(n, eps, 12)

    # anti-invariance of the affine orbit sum at N=16
    base = roots.orbit_sum("What_alpha", roots.STANDARD_SEED, 16)
    anti_ok = all(
        ring_sum(GL, 16, lambda k: [
            roots.normalized_term(roots.GL22, w + w0, roots.STANDARD_SEED)
            for w in roots._ring("What_alpha", k)]) == base
        for w0 in ((("s", roots.ALPHA),), (("t", roots.ALPHA),)))

    for name, ok in [("grading additivity and unimodular round-trip", grading_ok),
                     ("inverse round-trip on 100 random series", invert_ok),
                     ("Weyl form-invariance and group relations on 200 triples", weyl_ok),
                     ("orbit element supports for |n| <= 3", support_ok),
                     ("orbit sum anti-invariance at N=16", anti_ok)]:
        _report(f"property suite: {name}", ok)
