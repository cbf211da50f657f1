"""Floating-point reproduction of the one-variable evaluation argument.

Everything here specializes the exact identity at x = -1, y1 = y^2,
y2 = y and works with complex doubles: the annulus factor A, the signed
orbit sum B, the evaluated product R(y), their functional equations,
zero sets and the constancy of A*B/R.  Infinite products and sums are
truncated once the factors differ from 1 by less than TAIL_EPS.
"""

from __future__ import annotations

import cmath
import math
import sys

_MAX_FACTORS = 100000
TAIL_EPS = 1e-16

# Evaluation points: radii 0.7 and 1.2 at the eight odd multiples of pi/8.
SAMPLES = tuple(r * cmath.exp(1j * math.pi * (2 * k + 1) / 8)
                for r in (0.7, 1.2) for k in range(8))

# The point where `check_limits` evaluates, on purpose, near the pole y^2 = 1
# of B: 2e-4 from it, relative to 1.  The pole guard refuses any point
# closer to the pole set than half that, whatever the tolerance.
LIMIT_Y = 1 + 1e-4


class ConvergenceError(Exception):
    pass


class PoleProximity(Exception):
    pass


class PrecisionLoss(Exception):
    pass


class EvalConfig:
    """The nome q and the tolerance of every float check; immutable by
    convention.  Raises ValueError for q outside (0, 1) or a tol that is not
    finite or lies below the double-precision epsilon, which no float check
    can meet, and PoleProximity if a sample lies within the guard distance
    of the pole set."""

    __slots__ = ("q", "tol")

    def __init__(self, q: float = 0.1, tol: float = 1e-8):
        if not 0 < q < 1:
            raise ValueError("q must satisfy 0 < q < 1")
        if not (math.isfinite(tol) and tol >= sys.float_info.epsilon):
            raise ValueError(f"tol must be finite and at least "
                             f"{sys.float_info.epsilon:.3g}, not {tol}")
        self.q = q
        self.tol = tol
        for y in SAMPLES:
            _check_pole(self, y)


def pole_distance(cfg: EvalConfig, y: complex) -> float:
    """Relative distance |y^2 -+ q^m| / q^m of y^2 from the nearest +-q^m
    (the pole set of B), which stays meaningful where both are tiny."""
    ay = abs(y) ** 2
    best = math.inf
    m = round(math.log(ay, cfg.q)) if ay > 0 else 0
    for mm in range(m - 2, m + 3):
        t = cfg.q ** mm
        best = min(best, abs(y * y - t) / t, abs(y * y + t) / t)
    return best


def _check_pole(cfg: EvalConfig, y: complex):
    if pole_distance(cfg, y) < (LIMIT_Y ** 2 - 1) / 2:
        raise PoleProximity(f"{y} within guard distance of the pole set")


def qpoch(a: complex, q: float) -> complex:
    """prod_{n>=0} (1 - a q^n), truncated once |a q^n| < TAIL_EPS."""
    out = 1.0 + 0j
    n = 0
    while abs(a) >= TAIL_EPS:
        out *= 1 - a
        a *= q
        n += 1
        if n > _MAX_FACTORS:
            raise ConvergenceError("q-product did not converge")
    return out


def eval_A(cfg: EvalConfig, y: complex) -> complex:
    q = cfg.q
    num = qpoch(q, q) ** 2
    den = qpoch(q * y, q) * qpoch(q / y, q)
    return num / den


def eval_Rhat(cfg: EvalConfig, y: complex) -> complex:
    q = cfg.q
    y3 = y ** 3
    num = 2 * (qpoch(q, q) ** 4
               * qpoch(-q, q) ** 2
               * qpoch(-y3, q)          # (1 + q^{n-1} y^3), n >= 1
               * qpoch(-q / y3, q))     # (1 + q^n y^{-3}),  n >= 1
    den = 1.0 + 0j
    for s in (1, 2):
        ys = y ** s
        den *= (qpoch(-ys, q) * qpoch(-q / ys, q)
                * qpoch(ys, q) * qpoch(q / ys, q))
    return num / den


def eval_B(cfg: EvalConfig, y: complex) -> complex:
    """B(y); raises PrecisionLoss if rounding can move it by tol * max(1,
    |B|), bounding the rounding by eps times the number of summands times
    the sum of their absolute values.  Near a zero of B, such as y^3 = -q^m
    for a small q, the summands cancel and that bound can exceed tol."""
    _check_pole(cfg, y)
    q = cfg.q
    size = 0.0

    def term(n):
        nonlocal size
        t = q ** n
        a = t / ((1 + t * y) * (1 + t * y * y))
        b = t / ((1 - t * y) * (1 - t * y * y))
        size += abs(a) + abs(b)
        return a + b

    total = term(0)
    n = 1
    while True:
        t = term(n) + term(-n)
        total += t
        if abs(t) < TAIL_EPS * max(1.0, abs(total)):
            break
        n += 1
        if n > _MAX_FACTORS:
            raise ConvergenceError("orbit sum did not converge")
    bound = sys.float_info.epsilon * (4 * n + 2) * size
    if not bound < cfg.tol * max(1.0, abs(total)):
        raise PrecisionLoss(f"rounding can move B({y:.3g}) by {bound:.1e}")
    return total


def eval_A_over_Rhat(cfg: EvalConfig, y: complex) -> complex:
    return eval_A(cfg, y) / eval_Rhat(cfg, y)


def eval_ratio(cfg: EvalConfig, y: complex) -> complex:
    """A(y) B(y) / R(y), identically 1 on the punctured plane."""
    return eval_A(cfg, y) * eval_B(cfg, y) / eval_Rhat(cfg, y)


def check_functional(cfg: EvalConfig, y: complex) -> dict:
    """Deviations of the two functional equations and their combination."""
    q = cfg.q
    ar_y = eval_A_over_Rhat(cfg, y)
    ar_qy = eval_A_over_Rhat(cfg, q * y)
    b_y = eval_B(cfg, y)
    b_qy = eval_B(cfg, q * y)
    dev_ar = abs(ar_qy - ar_y * q * (1 - q * y) / (1 - y)) / max(1e-300, abs(ar_qy))
    ratio_b = b_qy / b_y
    target_b = (1 - y) / (q * (1 - q * y))
    dev_b = abs(ratio_b - target_b) / max(1e-300, abs(target_b))
    dev_comb = abs(ar_qy * b_qy - ar_y * b_y) / max(1e-300, abs(ar_y * b_y))
    return {"y": y, "a_over_r": dev_ar, "b_ratio": dev_b, "combined": dev_comb,
            "ok": max(dev_ar, dev_b, dev_comb) < cfg.tol}


def check_ratio_one(cfg: EvalConfig) -> dict:
    devs = [abs(eval_ratio(cfg, y) - 1) for y in SAMPLES]
    worst = max(devs)
    return {"max_deviation": worst, "n_samples": len(devs), "ok": worst < cfg.tol}


def check_b_zeros(cfg: EvalConfig) -> dict:
    """|B| at points with y^3 = -q^m away from -q^k, for m = 1, 2."""
    vals = {}
    for m in (1, 2):
        y = cfg.q ** (m / 3) * cmath.exp(1j * math.pi / 3)
        vals[m] = abs(eval_B(cfg, y))
    worst = max(vals.values())
    return {"abs_B": vals, "max": worst, "ok": worst < cfg.tol}


def check_limits(cfg: EvalConfig) -> dict:
    """(y-1)^{-2} A/R -> 2 and (1-y)^2 B -> 1/2, both within 1e-3 at y =
    LIMIT_Y = 1 + 1e-4."""
    y = LIMIT_Y
    lim_ar = eval_A_over_Rhat(cfg, y) / (y - 1) ** 2
    lim_b = (1 - y) ** 2 * eval_B(cfg, y)
    dev_ar = abs(lim_ar - 2)
    dev_b = abs(lim_b - 0.5)
    return {"a_over_r": lim_ar, "b": lim_b,
            "ok": dev_ar < 1e-3 and dev_b < 1e-3,
            "dev_a_over_r": dev_ar, "dev_b": dev_b}


def _a_n(q: float, n: int, x: complex) -> complex:
    t = q ** n
    return t / (1 + t) ** 2 - t * x / (1 + t * x) ** 2


def an_limit_target(q: float, n: int) -> float:
    if n == 0:
        return 1.0 / 16.0
    t = q ** n
    return -t * (t * t - 4 * t + 1) / (1 + t) ** 4


def check_an_limits(cfg: EvalConfig) -> dict:
    """Second-order limits of the evaluated orbit-sum terms at x = 1, n = 0..4.

    a_n(1) = a_n'(1) = 0, so the limit a_n/(x-1)^2 equals a_n''(1)/2 and a
    Richardson-extrapolated central difference with step h = 1e-3 reaches
    it at O(h^4), within the fixed tolerance 1e-6.
    """
    q, h = cfg.q, 1e-3
    results = {}
    worst = 0.0
    for n in range(5):
        def f(hh, n=n):
            if n == 0:
                a = _a_n(q, 0, 1 + hh) + _a_n(q, 0, 1 - hh)
            else:
                a = (_a_n(q, n, 1 + hh) + _a_n(q, -n, 1 + hh)
                     + _a_n(q, n, 1 - hh) + _a_n(q, -n, 1 - hh))
            return a.real / (2 * hh * hh)

        est = (4 * f(h / 2) - f(h)) / 3
        target = an_limit_target(q, n)
        dev = abs(est - target)
        worst = max(worst, dev)
        results[n] = {"estimate": est, "target": target, "dev": dev}
    return {"per_n": results, "max_dev": worst, "ok": worst < 1e-6}


def run_suite(cfg: EvalConfig) -> dict:
    functional = [check_functional(cfg, y) for y in SAMPLES[:4]]
    reports = {
        "ratio_one": check_ratio_one(cfg),
        "b_zeros": check_b_zeros(cfg),
        "functional": {"max_dev": max(max(r["a_over_r"], r["b_ratio"], r["combined"])
                                      for r in functional),
                       "ok": all(r["ok"] for r in functional)},
        "limits": check_limits(cfg),
        "an_limits": check_an_limits(cfg),
    }
    reports["ok"] = all(r["ok"] for r in reports.values())
    return reports
