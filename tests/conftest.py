"""Every test starts with empty caches of the stabilizer-list facts
(cartperm.oracle: span verdicts, point images, linear parts and the
translations of S), so no test sees what an earlier one cached."""

import pytest

from cartperm import oracle

LIST_CACHES = (oracle._span_verdicts, oracle._stabilizer_images, oracle._list_linear_parts,
               oracle._translation_images)


@pytest.fixture(autouse=True)
def empty_list_caches():
    for cache in LIST_CACHES:
        cache.cache_clear()
