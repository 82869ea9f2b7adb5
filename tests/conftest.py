import pytest

from hopfforge import shared


@pytest.fixture(autouse=True)
def fresh_shared_state():
    """Each test starts without the parses, engines, HopfOps and pairings
    that the tests before it left in the process's shared tables."""
    shared.clear()
