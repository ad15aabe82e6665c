import pytest


def pytest_collection_modifyitems(items):
    """Refuse a test id with whitespace in it: a saved list of the suite's
    ids, one a line, is split on whitespace and would cut such an id
    short. Give the case a short id (``pytest.param(..., id=...)``)."""
    spaced = [item.nodeid for item in items if any(c.isspace() for c in item.nodeid)]
    if spaced:
        raise pytest.UsageError("test ids with whitespace in them:\n  " + "\n  ".join(spaced))
