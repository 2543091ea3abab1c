"""Worlds shared by the tests that hold the array passes to their loop
forms in ``oracles.py``."""

import os

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


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped, such
    as a replicate's run-b worker."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process is left {'running' if pid == 0 else f'unreaped (pid {pid})'}")
