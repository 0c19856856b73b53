"""Price-proportional split of a receive-buffer budget."""

import pytest

from multcp.allocator import allocate_buffers


def test_allocate_exact_proportions_and_sum():
    out = allocate_buffers({1: 1.0, 2: 3.0}, 80_000, 1000)
    assert out[1] == 20_000
    assert out[2] == 60_000
    assert sum(out.values()) == 80_000


def test_allocate_rounds_to_segments_residual_to_top_payer():
    out = allocate_buffers({1: 1.0, 2: 1.0, 3: 1.0}, 10_000, 1000)
    # exact share 3333.3 -> 3000 each, top payer (lowest id on tie) +1000
    assert out == {1: 4000, 2: 3000, 3: 3000}
    assert sum(out.values()) == 10_000


def test_allocate_validation():
    with pytest.raises(ValueError):
        allocate_buffers({}, 1000, 100)
    with pytest.raises(ValueError):
        allocate_buffers({1: 1.0}, -1, 100)
    with pytest.raises(ValueError):
        allocate_buffers({1: 0.0}, 1000, 100)
    with pytest.raises(ValueError):
        allocate_buffers({1: 1.0}, 1000, 0)
    # a price sum, or a budget times the highest price, past the float range
    with pytest.raises(ValueError, match="^prices must sum to a finite float"):
        allocate_buffers({1: 1e308, 2: 1e308}, 1000, 100)
    with pytest.raises(ValueError, match="^budget times the highest price 2.0 "):
        allocate_buffers({1: 1.0, 2: 2.0}, 10**309, 100)
    with pytest.raises(ValueError, match="^budget times the highest price 1e"):
        allocate_buffers({1: 1e300, 2: 1e300}, 10**9, 100)
