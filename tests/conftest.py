import multiprocessing

import pytest


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
