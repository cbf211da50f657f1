"""Floating-point reproduction of the one-variable evaluation argument.

Everything here specializes the exact identity at x = -1, y1 = y^2,
y2 = y and works with complex doubles: the annulus factor A, the signed
orbit sum B, the evaluated product R(y), their functional equations,
zero sets and the constancy of A*B/R.  The suite runs at the nome Q and
compares the ratio_one, b_zeros and functional checks against TOL.
Infinite products and sums are truncated once the factors differ from 1
by less than TAIL_EPS.
"""

from __future__ import annotations

import cmath
import math

Q = 0.1
TOL = 1e-8
TAIL_EPS = 1e-16

# Evaluation points: radii 0.7 and 1.2 at the eight odd multiples of pi/8.
SAMPLES = tuple(r * cmath.exp(1j * math.pi * (2 * k + 1) / 8)
                for r in (0.7, 1.2) for k in range(8))

# The point where `check_limits` evaluates, on purpose, near the pole y^2 = 1
# of B: 2e-4 from it, relative to 1.
LIMIT_Y = 1 + 1e-4


def qpoch(a: complex, q: float) -> complex:
    """prod_{n>=0} (1 - a q^n), truncated once |a q^n| < TAIL_EPS."""
    out = 1.0 + 0j
    while abs(a) >= TAIL_EPS:
        out *= 1 - a
        a *= q
    return out


def eval_A(q: float, y: complex) -> complex:
    num = qpoch(q, q) ** 2
    den = qpoch(q * y, q) * qpoch(q / y, q)
    return num / den


def eval_Rhat(q: float, y: complex) -> complex:
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


def eval_B(q: float, y: complex) -> complex:
    """B(y), summed over n = 0, +-1, +-2, ... until a pair of terms adds
    less than TAIL_EPS relative to the total."""
    def term(n):
        t = q ** n
        return (t / ((1 + t * y) * (1 + t * y * y))
                + t / ((1 - t * y) * (1 - t * y * y)))

    total = term(0)
    n = 1
    while True:
        t = term(n) + term(-n)
        total += t
        if abs(t) < TAIL_EPS * max(1.0, abs(total)):
            return total
        n += 1


def eval_A_over_Rhat(q: float, y: complex) -> complex:
    return eval_A(q, y) / eval_Rhat(q, y)


def eval_ratio(q: float, y: complex) -> complex:
    """A(y) B(y) / R(y), identically 1 on the punctured plane."""
    return eval_A(q, y) * eval_B(q, y) / eval_Rhat(q, y)


def check_functional(q: float, y: complex) -> dict:
    """Deviations of the two functional equations and their combination."""
    ar_y = eval_A_over_Rhat(q, y)
    ar_qy = eval_A_over_Rhat(q, q * y)
    b_y = eval_B(q, y)
    b_qy = eval_B(q, q * y)
    dev_ar = abs(ar_qy - ar_y * q * (1 - q * y) / (1 - y)) / max(1e-300, abs(ar_qy))
    ratio_b = b_qy / b_y
    target_b = (1 - y) / (q * (1 - q * y))
    dev_b = abs(ratio_b - target_b) / max(1e-300, abs(target_b))
    dev_comb = abs(ar_qy * b_qy - ar_y * b_y) / max(1e-300, abs(ar_y * b_y))
    return {"y": y, "a_over_r": dev_ar, "b_ratio": dev_b, "combined": dev_comb,
            "ok": max(dev_ar, dev_b, dev_comb) < TOL}


def check_ratio_one(q: float) -> dict:
    """|A B / R - 1| at the samples."""
    devs = [abs(eval_ratio(q, y) - 1) for y in SAMPLES]
    worst = max(devs)
    return {"max_deviation": worst, "n_samples": len(devs), "ok": worst < TOL}


def check_b_zeros(q: float) -> dict:
    """|B| at points with y^3 = -q^m away from -q^k, for m = 1, 2."""
    vals = {}
    for m in (1, 2):
        y = q ** (m / 3) * cmath.exp(1j * math.pi / 3)
        vals[m] = abs(eval_B(q, y))
    worst = max(vals.values())
    return {"abs_B": vals, "max": worst, "ok": worst < TOL}


def check_limits(q: float) -> dict:
    """(y-1)^{-2} A/R -> 2 and (1-y)^2 B -> 1/2, both within 1e-3 at y =
    LIMIT_Y = 1 + 1e-4."""
    y = LIMIT_Y
    lim_ar = eval_A_over_Rhat(q, y) / (y - 1) ** 2
    lim_b = (1 - y) ** 2 * eval_B(q, y)
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


def check_an_limits(q: float) -> dict:
    """Second-order limits of the evaluated orbit-sum terms at x = 1, n = 0..4.

    a_n(1) = a_n'(1) = 0, so the limit a_n/(x-1)^2 equals a_n''(1)/2 and a
    Richardson-extrapolated central difference with step h = 1e-3 reaches
    it at O(h^4), within the fixed tolerance 1e-6.
    """
    h = 1e-3
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


def run_suite() -> dict:
    """The verdict `superdenom analytic` prints: ok when every check
    passes at Q, then the worst deviation each check found."""
    functional = [check_functional(Q, y) for y in SAMPLES[:4]]
    ratio_one = check_ratio_one(Q)
    b_zeros = check_b_zeros(Q)
    limits = check_limits(Q)
    an_limits = check_an_limits(Q)
    return {
        "ok": all(r["ok"] for r in (ratio_one, b_zeros, *functional, limits,
                                    an_limits)),
        "ratio_one_max_dev": ratio_one["max_deviation"],
        "b_zero_max": b_zeros["max"],
        "functional_max_dev": max(max(r["a_over_r"], r["b_ratio"], r["combined"])
                                  for r in functional),
        "limit_dev_a_over_r": limits["dev_a_over_r"],
        "limit_dev_b": limits["dev_b"],
        "an_limits_max_dev": an_limits["max_dev"],
    }
