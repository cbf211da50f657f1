import pytest

from superdenom import identities as ids
from superdenom import squares


@pytest.fixture
def fresh_caches():
    # the builders and theta series are lru_cached: no mutated series may
    # leak into, or out of, a case
    cached = [f for mod in (ids, squares) for f in vars(mod).values()
              if hasattr(f, "cache_clear")]
    for f in cached:
        f.cache_clear()
    yield
    for f in cached:
        f.cache_clear()
