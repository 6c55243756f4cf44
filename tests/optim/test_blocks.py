"""Block splitting: tiling invariants and the paper's shapes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optim import Block, block_shapes, p_memory_bytes, split_blocks, validate_blocks
from repro.optim.blocks import shard_blocks
from repro.perf.memory import paper_layer_sizes


class TestSplitting:
    def test_gather_small_layers(self):
        blocks = split_blocks([(0, 10), (1, 20), (2, 30)], blocksize=100)
        assert block_shapes(blocks) == [60]

    def test_gather_until_would_exceed(self):
        blocks = split_blocks([(0, 40), (1, 40), (2, 40)], blocksize=100)
        assert block_shapes(blocks) == [80, 40]

    def test_split_oversized_layer(self):
        blocks = split_blocks([(0, 250)], blocksize=100)
        assert block_shapes(blocks) == [100, 100, 50]

    def test_mixed_gather_and_split(self):
        blocks = split_blocks([(0, 30), (1, 250), (2, 20), (3, 20)], blocksize=100)
        assert block_shapes(blocks) == [30, 100, 100, 50, 40]

    def test_exact_fit(self):
        blocks = split_blocks([(0, 50), (1, 50)], blocksize=100)
        assert block_shapes(blocks) == [100]

    def test_blocksize_one(self):
        blocks = split_blocks([(0, 3)], blocksize=1)
        assert block_shapes(blocks) == [1, 1, 1]

    def test_invalid_blocksize(self):
        with pytest.raises(ValueError):
            split_blocks([(0, 4)], 0)

    def test_paper_network_shapes(self):
        """The Sec. 5.3 block structure at blocksize 10240."""
        blocks = split_blocks(paper_layer_sizes(), 10240)
        shapes = block_shapes(blocks)
        assert shapes[0] == 1350  # gathered embedding
        assert shapes[1] == 10240  # first chunk of the big fitting layer
        assert len(shapes) == 4
        assert sum(shapes) == 26551


class TestValidation:
    def test_validate_accepts_tiling(self):
        blocks = split_blocks([(0, 30), (1, 70)], 50)
        validate_blocks(blocks, 100)

    def test_validate_rejects_gap(self):
        with pytest.raises(AssertionError):
            validate_blocks([Block(0, 10), Block(20, 30)], 30)

    def test_validate_rejects_short_cover(self):
        with pytest.raises(AssertionError):
            validate_blocks([Block(0, 10)], 20)

    def test_p_memory(self):
        blocks = [Block(0, 10), Block(10, 30)]
        assert p_memory_bytes(blocks) == (100 + 400) * 8


class TestSharding:
    def test_all_blocks_assigned_once(self):
        blocks = [Block(0, 10), Block(10, 40), Block(40, 45), Block(45, 60)]
        shards = shard_blocks(blocks, 2)
        flat = sorted(i for s in shards for i in s)
        assert flat == [0, 1, 2, 3]

    def test_balances_quadratic_cost(self):
        blocks = [Block(0, 100), Block(100, 110), Block(110, 120), Block(120, 130)]
        shards = shard_blocks(blocks, 2)
        # the giant block must sit alone; the three small ones together
        sizes = [[blocks[i].size for i in s] for s in shards]
        assert [100] in sizes

    def test_more_ranks_than_blocks(self):
        blocks = [Block(0, 5), Block(5, 10)]
        shards = shard_blocks(blocks, 4)
        assert sum(len(s) for s in shards) == 2


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 500), min_size=1, max_size=12),
    st.integers(1, 300),
)
def test_split_properties(sizes, blocksize):
    layers = list(enumerate(sizes))
    blocks = split_blocks(layers, blocksize)
    total = sum(sizes)
    validate_blocks(blocks, total)  # exact tiling, ordered, non-empty
    assert all(b.size <= max(blocksize, 1) for b in blocks)
