"""Every test starts from empty package caches, so its result and its time
do not depend on which tests ran before it."""

import pytest

from pieces_lab import optstate, quadrature, twobody

CACHES = (twobody._solve, optstate._pair_band, quadrature._leggauss, quadrature._rules)


@pytest.fixture(autouse=True)
def _clear_package_caches():
    for cache in CACHES:
        cache.cache_clear()
