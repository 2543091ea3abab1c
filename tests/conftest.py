"""Worlds shared by the tests that hold the array passes to their loop
forms in ``oracles.py``."""

import pytest

from dasim.geo import SpineSpec, make_synthetic_spine
from dasim.histograms import generate_synthetic_cef

# the default 24-block world, the same shape at verify check 3's seed,
# and the 1,200-block mid world
SWEEP_WORLDS = {
    "default": (SpineSpec(), 0),
    "check3": (SpineSpec(), 7),
    "mid": (SpineSpec(counties_per_state=4, tracts_per_county=10,
                      blockgroups_per_tract=3, blocks_per_blockgroup=10), 1),
}
SWEEP_SEEDS = (1, 2, 3, 12345)


@pytest.fixture(scope="session", params=list(SWEEP_WORLDS))
def sweep_world(request):
    spec, seed = SWEEP_WORLDS[request.param]
    spine = make_synthetic_spine(spec, seed)
    return spine, generate_synthetic_cef(spine, seed)
