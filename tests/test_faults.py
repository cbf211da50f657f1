"""Fault injection: a broken product side must be caught by the verifiers.

Each case drops one Pochhammer factor from the product-side schedule.  The
mutated product differs from the true one first at the degree of the
dropped factor's head (its step q has degree 4 > 0), so the mismatch must
be reported there.
"""

import pytest

from superdenom import identities as ids


@pytest.fixture
def fresh_caches():
    # build_lhs and build_rhs are lru_cached: no mutated series may leak
    # into, or out of, a case
    for f in (ids.build_lhs, ids.build_rhs):
        f.cache_clear()
    yield
    for f in (ids.build_lhs, ids.build_rhs):
        f.cache_clear()


@pytest.mark.parametrize("i", range(len(ids._SCHEDULE)))
def test_dropped_factor_is_caught(monkeypatch, fresh_caches, i):
    head = ids._SCHEDULE[i][0]
    monkeypatch.setattr(ids, "_SCHEDULE", ids._SCHEDULE[:i] + ids._SCHEDULE[i + 1:])
    rep = ids.verify_denominator(12)
    assert not rep.matched
    assert ids.GL.degree(rep.first_diffs[0][0]) == ids.GL.degree(head)
    assert not ids.ratio_support_check(12).matched
