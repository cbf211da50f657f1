"""Machine-readable verification results."""

from __future__ import annotations

from .series import GradedSeries

MAX_DIFFS = 20


class QReport:
    """One verification verdict.  ``extra`` holds a verifier's further
    checks, set after construction."""

    __slots__ = ("identity", "cutoff", "matched", "first_diffs",
                 "lhs_terms", "rhs_terms", "extra")

    def __init__(self, identity: str, cutoff: int, matched: bool,
                 first_diffs: list, lhs_terms: int, rhs_terms: int):
        self.identity = identity
        self.cutoff = cutoff
        self.matched = matched
        self.first_diffs = first_diffs
        self.lhs_terms = lhs_terms
        self.rhs_terms = rhs_terms
        self.extra = None

    def to_dict(self) -> dict:
        doc = {
            "identity": self.identity,
            "cutoff": self.cutoff,
            "matched": self.matched,
            "first_diffs": [{"e": list(e), "lhs": str(ca), "rhs": str(cb)}
                            for e, ca, cb in self.first_diffs],
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
        }
        if self.extra is not None:
            doc["extra"] = self.extra
        return doc


def compare_series(identity: str, lhs: GradedSeries, rhs: GradedSeries) -> QReport:
    """Verdict on two series of one lattice and one cutoff, at that cutoff."""
    diffs = lhs.diff_up_to(rhs, limit=MAX_DIFFS)
    return QReport(identity=identity, cutoff=lhs.cutoff, matched=not diffs,
                   first_diffs=diffs, lhs_terms=len(lhs), rhs_terms=len(rhs))
