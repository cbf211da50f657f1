"""Floating-point evaluation suite and its agreement with the exact series."""

import cmath
import math

import pytest
from oracles import b_rounding_bound, eval_series, pole_distance

from superdenom import analytic, identities
from superdenom.analytic import (
    LIMIT_Y,
    Q,
    SAMPLES,
    TOL,
    check_an_limits,
    check_b_zeros,
    check_functional,
    check_limits,
    check_ratio_one,
    eval_A,
    eval_A_over_Rhat,
    eval_B,
    eval_Rhat,
    eval_ratio,
    qpoch,
    run_suite,
)


def test_fixed_samples_stay_off_the_poles():
    assert len(SAMPLES) == 16
    radii = {round(abs(y), 6) for y in SAMPLES}
    assert radii == {0.7, 1.2}
    for y in SAMPLES:
        assert pole_distance(Q, y) > 2 * (LIMIT_Y ** 2 - 1)


def test_qpoch_against_partial_product():
    direct = 1.0
    for n in range(60):
        direct *= 1 - 0.3 * Q ** n
    assert abs(qpoch(0.3, Q) - direct) < 1e-14


def test_b_is_resolved_and_off_its_poles_at_Q():
    # why the suite needs no guard at Q: every point where it reads B (the
    # samples, q y for the four functional samples, the two b-zero points
    # and LIMIT_Y) keeps at least half the limit point's distance from the
    # pole set, and rounding moves B by far less than TOL there
    points = [*SAMPLES, *(Q * y for y in SAMPLES[:4]),
              *(Q ** (m / 3) * cmath.exp(1j * math.pi / 3) for m in (1, 2)),
              LIMIT_Y]
    assert len(points) == 23
    for y in points:
        assert pole_distance(Q, y) >= (LIMIT_Y ** 2 - 1) / 2, y
        bound = b_rounding_bound(Q, y)
        assert bound < TOL / 1000 * max(1.0, abs(eval_B(Q, y))), (y, bound)


def test_ratio_is_one_on_samples():
    rep = check_ratio_one(Q)
    assert rep["ok"]
    assert rep["n_samples"] == 16
    assert rep["max_deviation"] < TOL


def test_ratio_is_one_off_grid():
    for y in (0.9 * cmath.exp(0.37j), 1.4 * cmath.exp(2.1j)):
        assert abs(eval_ratio(Q, y) - 1) < TOL


def test_b_vanishes_at_p_points():
    rep = check_b_zeros(Q)
    assert rep["ok"]
    assert rep["max"] < TOL


def test_failure_outside_rounding_bound_is_a_mismatch(monkeypatch):
    # a wrong R, off by 1e-6, fails where B is resolved to 1e-13
    rhat = analytic.eval_Rhat
    monkeypatch.setattr(analytic, "eval_Rhat",
                        lambda q, y: rhat(q, y) * (1 + 1e-6))
    rep = check_ratio_one(Q)
    assert not rep["ok"]
    assert rep["max_deviation"] > 1e-7
    assert not run_suite()["ok"]


def test_wrong_b_ratio_outside_rounding_bound_is_a_mismatch(monkeypatch):
    # the functional check reads B at y and q y; a B off by a factor that
    # depends on y fails there, while A/R passes
    b = analytic.eval_B
    monkeypatch.setattr(analytic, "eval_B",
                        lambda q, y: b(q, y) * (1 + 1e-6 * abs(y)))
    rep = check_functional(Q, SAMPLES[0])
    assert not rep["ok"]
    assert rep["a_over_r"] < TOL


def test_functional_equations():
    for y in SAMPLES[:4]:
        rep = check_functional(Q, y)
        assert rep["ok"], rep


def test_limits_at_one():
    rep = check_limits(Q)
    assert rep["ok"]
    assert abs(rep["a_over_r"] - 2) < 1e-3
    assert abs(rep["b"] - 0.5) < 1e-3


def test_an_limits():
    rep = check_an_limits(Q)
    assert rep["ok"]
    assert rep["max_dev"] < 1e-6
    # closed-form targets
    assert analytic.an_limit_target(Q, 0) == 1 / 16
    t = Q
    assert analytic.an_limit_target(Q, 1) == -t * (t * t - 4 * t + 1) / (1 + t) ** 4


def _deviations(q):
    """Whether every check passes at q, and the six worst deviations that
    `run_suite` reports at Q, in its order."""
    functional = [check_functional(q, y) for y in SAMPLES[:4]]
    checks = (check_ratio_one(q), check_b_zeros(q), *functional,
              check_limits(q), check_an_limits(q))
    limits = checks[-2]
    return all(r["ok"] for r in checks), (
        checks[0]["max_deviation"], checks[1]["max"],
        max(max(r["a_over_r"], r["b_ratio"], r["combined"]) for r in functional),
        limits["dev_a_over_r"], limits["dev_b"], checks[-1]["max_dev"])


def test_run_suite():
    rep = run_suite()
    assert rep["ok"]


def test_run_suite_reports_the_checks_at_Q():
    # the suite runs at Q: its verdict is what the checks give there
    ok, devs = _deviations(Q)
    rep = run_suite()
    assert (rep.pop("ok"), tuple(rep.values())) == (ok, devs)


def test_suite_other_base_point():
    ok, _ = _deviations(0.2)
    assert ok


_OTHER_NOME_DEVIATIONS = {
    0.01: ("2.665e-15", "7.959e-15", "1.927e-15", "9.999e-05", "2.500e-05",
           "7.916e-11"),
    0.2: ("2.223e-15", "1.457e-15", "4.217e-15", "9.995e-05", "2.499e-05",
          "7.916e-11"),
    0.7: ("3.520e-11", "5.397e-16", "2.755e-11", "9.896e-05", "2.474e-05",
          "2.139e-10"),
}


@pytest.mark.parametrize("q", sorted(_OTHER_NOME_DEVIATIONS))
def test_other_nomes_keep_their_deviations(q):
    # the evaluators take any nome: away from Q every check still passes,
    # with the deviations the suite printed at these q
    ok, devs = _deviations(q)
    assert ok
    assert tuple(f"{d:.3e}" for d in devs) == _OTHER_NOME_DEVIATIONS[q]


# -- exact series versus numeric evaluators ----------------------------------


def _special(y):
    # x = -1, y1 = y^2, y2 = y
    return (Q, -1.0 + 0j, y * y, y)


def test_series_evaluations_match_numeric():
    # truncation at N leaves terms of modulus ~ |y|^{O(N)} with |x| = 1,
    # so the agreement is coarse but tightens as N grows
    y = 0.7 * cmath.exp(1j * math.pi * 3 / 8)
    lhs24 = abs(eval_series(identities.build_lhs(24), _special(y))
                - eval_Rhat(Q, y))
    lhs16 = abs(eval_series(identities.build_lhs(16), _special(y))
                - eval_Rhat(Q, y))
    assert lhs24 < 5e-2
    assert lhs24 < lhs16
    pre = abs(eval_series(identities.build_prefactor(24), _special(y))
              - eval_A(Q, y))
    assert pre < 1e-5
    orb = abs(eval_series(identities.build_orbit_sum(24), _special(y))
              - eval_B(Q, y))
    assert orb < 5e-2


def test_a_over_rhat_double_zero_at_one():
    # A/R has a double zero at y = 1: the quotient by (y-1)^2 stabilizes
    v1 = eval_A_over_Rhat(Q, 1 + 1e-3) / 1e-6
    v2 = eval_A_over_Rhat(Q, 1 + 1e-4) / 1e-8
    assert abs(v1 - v2) < 1e-2 * abs(v2)
