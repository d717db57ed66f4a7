"""Shared set-up: every test starts from empty process-wide memos."""

import pytest

from lexmetric import construct, resolving, theory


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty the solver's memo, the per-factor records, the pair-index cache and the
    product-label cache, so no test sees another's entries."""
    resolving._TABLES.clear()
    theory._FACTORS.clear()
    resolving._pair_index.cache_clear()
    construct._product_labels.cache_clear()
