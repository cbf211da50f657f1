"""Floating-point evaluation suite and its agreement with the exact series."""

import cmath
import math
import sys

import pytest
from oracles import eval_series

from superdenom import analytic, identities
from superdenom.analytic import (
    EvalConfig,
    LIMIT_Y,
    PoleProximity,
    PrecisionLoss,
    SAMPLES,
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
    pole_distance,
    qpoch,
    run_suite,
)


@pytest.fixture(scope="module")
def cfg():
    return EvalConfig()


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(q=0.0)
    with pytest.raises(ValueError):
        EvalConfig(q=1.5)
    with pytest.raises(ValueError):
        EvalConfig(tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 1e-300,
                                 sys.float_info.epsilon / 2])
def test_config_rejects_non_finite_or_sub_epsilon_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        EvalConfig(tol=tol)


def test_default_config_samples(cfg):
    assert len(SAMPLES) == 16
    radii = {round(abs(y), 6) for y in SAMPLES}
    assert radii == {0.7, 1.2}
    for y in SAMPLES:
        assert pole_distance(cfg, y) > 2 * (LIMIT_Y ** 2 - 1)


def test_pole_guard_admits_the_limit_point_at_any_tol():
    for tol in (1e-4, 1e-6, 1e-7, 1e-8, 1e-12):
        for q in (0.1, 0.2):
            assert check_limits(EvalConfig(q=q, tol=tol))["ok"]


def test_qpoch_against_partial_product(cfg):
    q = cfg.q
    direct = 1.0
    for n in range(60):
        direct *= 1 - 0.3 * q ** n
    assert abs(qpoch(0.3, q) - direct) < 1e-14


def test_pole_guard(cfg):
    with pytest.raises(PoleProximity):
        eval_B(cfg, complex(math.sqrt(cfg.q), 0))   # y^2 = q
    with pytest.raises(PoleProximity):
        eval_B(cfg, 1j)                             # y^2 = -1


def test_ratio_is_one_on_samples(cfg):
    rep = check_ratio_one(cfg)
    assert rep["ok"]
    assert rep["n_samples"] == 16
    assert rep["max_deviation"] < cfg.tol


def test_ratio_is_one_off_grid(cfg):
    for y in (0.9 * cmath.exp(0.37j), 1.4 * cmath.exp(2.1j)):
        assert abs(eval_ratio(cfg, y) - 1) < cfg.tol


def test_b_vanishes_at_p_points(cfg):
    rep = check_b_zeros(cfg)
    assert rep["ok"]
    assert rep["max"] < cfg.tol


def test_b_zeros_refuse_a_q_where_rounding_reaches_tol():
    # at q = 1e-14 the summands of B at y^3 = -q^2 reach about 2e9 and
    # cancel, so rounding can move |B| by about 2e-5: that resolves a tol
    # of 1e-4 but not the default 1e-8
    with pytest.raises(PrecisionLoss, match="rounding can move B"):
        check_b_zeros(EvalConfig(q=1e-14))
    rep = check_b_zeros(EvalConfig(q=1e-14, tol=1e-4))
    assert rep["ok"]


def test_functional_equations(cfg):
    for y in SAMPLES[:4]:
        rep = check_functional(cfg, y)
        assert rep["ok"], rep


def test_limits_at_one(cfg):
    rep = check_limits(cfg)
    assert rep["ok"]
    assert abs(rep["a_over_r"] - 2) < 1e-3
    assert abs(rep["b"] - 0.5) < 1e-3


def test_an_limits(cfg):
    rep = check_an_limits(cfg)
    assert rep["ok"]
    assert rep["max_dev"] < 1e-6
    # closed-form targets
    q = cfg.q
    assert analytic.an_limit_target(q, 0) == 1 / 16
    t = q
    assert analytic.an_limit_target(q, 1) == -t * (t * t - 4 * t + 1) / (1 + t) ** 4


def test_run_suite(cfg):
    rep = run_suite(cfg)
    assert rep["ok"]


def test_run_suite_on_bare_config():
    # the constructor alone must give a usable configuration
    assert run_suite(EvalConfig())["ok"]


def test_suite_other_base_point():
    rep = run_suite(EvalConfig(q=0.2))
    assert rep["ok"]


# -- exact series versus numeric evaluators ----------------------------------


def _special(y):
    # x = -1, y1 = y^2, y2 = y
    return (0.1, -1.0 + 0j, y * y, y)


def test_series_evaluations_match_numeric(cfg):
    # truncation at N leaves terms of modulus ~ |y|^{O(N)} with |x| = 1,
    # so the agreement is coarse but tightens as N grows
    y = 0.7 * cmath.exp(1j * math.pi * 3 / 8)
    lhs24 = abs(eval_series(identities.build_lhs(24), _special(y))
                - eval_Rhat(cfg, y))
    lhs16 = abs(eval_series(identities.build_lhs(16), _special(y))
                - eval_Rhat(cfg, y))
    assert lhs24 < 5e-2
    assert lhs24 < lhs16
    pre = abs(eval_series(identities.build_prefactor(24), _special(y))
              - eval_A(cfg, y))
    assert pre < 1e-5
    orb = abs(eval_series(identities.build_orbit_sum(24), _special(y))
              - eval_B(cfg, y))
    assert orb < 5e-2


def test_a_over_rhat_double_zero_at_one(cfg):
    # A/R has a double zero at y = 1: the quotient by (y-1)^2 stabilizes
    v1 = eval_A_over_Rhat(cfg, 1 + 1e-3) / 1e-6
    v2 = eval_A_over_Rhat(cfg, 1 + 1e-4) / 1e-8
    assert abs(v1 - v2) < 1e-2 * abs(v2)
