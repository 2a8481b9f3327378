import pytest

from cp2q import dolbeault as db


@pytest.fixture
def fresh_operators():
    """Assemble the slot operators anew, and drop what a patched assembly cached."""
    db.slot_operator.cache_clear()
    yield
    db.slot_operator.cache_clear()
