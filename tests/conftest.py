"""Shared set-up: every test starts from empty process-wide memos."""

import pytest

from lexmetric import resolving


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty the per-table memo and the pair-index cache, so no test sees another's entries."""
    resolving._TABLES.clear()
    resolving._pair_index.cache_clear()
