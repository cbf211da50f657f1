import pytest

from superdenom import identities as ids


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
