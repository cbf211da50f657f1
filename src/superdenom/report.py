"""Machine-readable verification results."""

from __future__ import annotations

from .series import GradedSeries

MAX_DIFFS = 20


def compare_series(identity: str, lhs: GradedSeries, rhs: GradedSeries) -> dict:
    """Verdict on two series of one lattice and one cutoff, at that cutoff:
    the dict its command prints.  ``first_diffs`` holds at most `MAX_DIFFS`
    monomials where the two differ, each as its raw exponents ``e`` and
    the two coefficients as strings."""
    diffs = lhs.diff_up_to(rhs, limit=MAX_DIFFS)
    return {"identity": identity, "cutoff": lhs.cutoff, "matched": not diffs,
            "first_diffs": [{"e": list(e), "lhs": str(ca), "rhs": str(cb)}
                            for e, ca, cb in diffs],
            "lhs_terms": len(lhs), "rhs_terms": len(rhs)}
