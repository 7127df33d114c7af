import multiprocessing

import pytest
from hypothesis import settings

# tier-1 draws the same examples on every run and keeps no example database,
# so a run's result does not depend on earlier runs
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process alive (and reap the child)."""
    yield
    alive = multiprocessing.active_children()
    for child in alive:
        child.kill()
        child.join()
    if alive:
        pytest.fail(f"test left {len(alive)} child process(es) alive: {alive}")
