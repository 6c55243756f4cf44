"""Batch loader: coverage, determinism, drop semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import BatchLoader, Dataset
from repro.md import Cell


def _ds(f):
    return Dataset(
        name="t",
        positions=np.zeros((f, 2, 3)),
        energies=np.arange(f, dtype=np.float64),
        forces=np.zeros((f, 2, 3)),
        species=np.zeros(2, dtype=np.int64),
        cell=Cell([5.0] * 3),
    )


class TestLoader:
    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            BatchLoader(_ds(4), 0)

    def test_len_drop_last(self):
        assert len(BatchLoader(_ds(10), 3)) == 3
        assert len(BatchLoader(_ds(10), 3, drop_last=False)) == 4

    def test_epoch_covers_all_frames_without_drop(self):
        loader = BatchLoader(_ds(10), 3, drop_last=False)
        seen = np.concatenate(list(loader.epoch(0)))
        assert sorted(seen.tolist()) == list(range(10))

    def test_drop_last_drops_remainder(self):
        loader = BatchLoader(_ds(10), 3)
        batches = list(loader.epoch(0))
        assert len(batches) == 3 and all(len(b) == 3 for b in batches)

    def test_same_epoch_index_same_order(self):
        loader = BatchLoader(_ds(12), 4, seed=5)
        a = np.concatenate(list(loader.epoch(2)))
        b = np.concatenate(list(loader.epoch(2)))
        assert np.array_equal(a, b)

    def test_different_epochs_shuffle_differently(self):
        loader = BatchLoader(_ds(12), 4, seed=5)
        a = np.concatenate(list(loader.epoch(0)))
        b = np.concatenate(list(loader.epoch(1)))
        assert not np.array_equal(a, b)

    def test_no_shuffle_preserves_order(self):
        loader = BatchLoader(_ds(9), 3, shuffle=False)
        seen = np.concatenate(list(loader.epoch(0)))
        assert np.array_equal(seen, np.arange(9))

    def test_iter_advances_epochs(self):
        loader = BatchLoader(_ds(8), 2, seed=0)
        a = np.concatenate(list(iter(loader)))
        b = np.concatenate(list(iter(loader)))
        assert not np.array_equal(a, b)

    def test_iter_replays_explicit_epoch_sequence(self):
        """Consecutive full passes over the loader are reproducible via
        epoch(0), epoch(1), ... -- the cursor is the only iterator state."""
        loader = BatchLoader(_ds(8), 2, seed=3)
        ref = BatchLoader(_ds(8), 2, seed=3)
        a = np.concatenate(list(loader))
        b = np.concatenate(list(loader))
        assert np.array_equal(a, np.concatenate(list(ref.epoch(0))))
        assert np.array_equal(b, np.concatenate(list(ref.epoch(1))))

    def test_epoch_query_does_not_mutate_cursor(self):
        """Neither epoch(i), epoch(), nor an unconsumed iter() advances
        the cursor; only exhausting an iterator does."""
        loader = BatchLoader(_ds(8), 2, seed=3)
        ref = BatchLoader(_ds(8), 2, seed=3)
        list(loader.epoch(5))   # explicit index: pure
        list(loader.epoch())    # cursor read: pure
        it = iter(loader)       # created but not consumed: pure
        next(it)                # even partially consumed: pure
        a = np.concatenate(list(loader))
        assert np.array_equal(a, np.concatenate(list(ref.epoch(0))))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(1, 8), st.integers(0, 100))
def test_loader_invariants(frames, bs, seed):
    loader = BatchLoader(_ds(frames), bs, seed=seed, drop_last=False)
    batches = list(loader.epoch(0))
    seen = np.concatenate(batches) if batches else np.array([])
    assert len(set(seen.tolist())) == len(seen)  # no duplicates
    assert sorted(seen.tolist()) == list(range(frames))  # full coverage
    assert all(len(b) <= bs for b in batches)


class TestWindowedLoader:
    def test_default_window_is_historic_shuffle(self):
        """window=None (the default) replays the pre-FrameSource order."""
        loader = BatchLoader(_ds(12), 4, seed=5)
        legacy = np.random.default_rng(5 + 7919 * 2).permutation(12)
        assert np.array_equal(np.concatenate(list(loader.epoch(2))), legacy)

    def test_window_bounds_batch_locality(self):
        loader = BatchLoader(_ds(32), 4, seed=1, window=8)
        for batch in loader.epoch(0):
            assert batch.max() - batch.min() < 8

    def test_window_still_covers_epoch(self):
        loader = BatchLoader(_ds(30), 5, seed=2, window=10, drop_last=False)
        seen = np.concatenate(list(loader.epoch(0)))
        assert sorted(seen.tolist()) == list(range(30))

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            BatchLoader(_ds(8), 2, window=0)


class TestMakeLoader:
    def test_plain_loader_by_default(self):
        from repro.data import StreamingLoader, make_loader

        loader = make_loader(_ds(8), 2, seed=1)
        assert type(loader) is BatchLoader
        assert not isinstance(loader, StreamingLoader)

    def test_prefetch_returns_streaming(self, cu_dataset, small_cfg):
        from repro.data import StreamingLoader, make_loader

        loader = make_loader(
            cu_dataset, 4, cfg=small_cfg, prefetch=True, executor="serial"
        )
        try:
            assert isinstance(loader, StreamingLoader)
        finally:
            loader.close()

    def test_prefetch_without_cfg_rejected(self):
        from repro.data import make_loader

        with pytest.raises(TypeError):
            make_loader(_ds(8), 2, prefetch=True)

    def test_same_params_same_batches(self):
        from repro.data import make_loader

        a = make_loader(_ds(20), 4, seed=7, window=8)
        b = make_loader(_ds(20), 4, seed=7, window=8)
        assert all(
            np.array_equal(x, y)
            for x, y in zip(a.epoch(1), b.epoch(1))
        )


class TestStreamingEquivalence:
    """StreamingLoader yields the synchronous loader's exact batch
    sequence -- the bit-identity contract of the prefetch path."""

    def test_streaming_matches_sync_batches(self, cu_dataset, small_cfg):
        from repro.data import StreamingLoader

        sync = BatchLoader(cu_dataset, 4, seed=3)
        ref = [
            (idx, batch) for idx, batch in sync.iter_batches(small_cfg, 0)
        ]
        with StreamingLoader(
            cu_dataset, 4, cfg=small_cfg, seed=3, executor="serial"
        ) as stream:
            got = list(stream.iter_batches(epoch_index=0))
        assert len(got) == len(ref)
        for (ri, rb), (gi, gb) in zip(ref, got):
            assert np.array_equal(ri, gi)
            assert np.array_equal(rb.energies, gb.energies)
            assert np.array_equal(rb.coords, gb.coords)
            assert np.array_equal(rb.idx_flat, gb.idx_flat)

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_store_backed_streaming_matches_in_memory(
        self, cu_dataset, small_cfg, tmp_path, kind
    ):
        """Prefetching from an out-of-core store, on every executor
        backend, replays the in-memory loader's exact batches -- so a
        store-backed training run is the in-memory run, bit for bit."""
        from repro.data import ShardedFrameStore, StreamingLoader

        ref = list(BatchLoader(cu_dataset, 4, seed=3).iter_batches(small_cfg, 0))
        with ShardedFrameStore.ingest(
            str(tmp_path / "store"), cu_dataset, shard_capacity=4
        ) as store, StreamingLoader(
            store, 4, cfg=small_cfg, seed=3, executor=kind, workers=2
        ) as stream:
            got = list(stream.iter_batches(epoch_index=0))
        assert len(got) == len(ref)
        for (ri, rb), (gi, gb) in zip(ref, got):
            assert np.array_equal(ri, gi)
            for field in ("coords", "idx_flat", "shift", "mask", "energies", "forces"):
                assert np.array_equal(getattr(rb, field), getattr(gb, field)), field

    def test_streaming_counts_batches(self, cu_dataset, small_cfg):
        from repro.data import StreamingLoader

        with StreamingLoader(
            cu_dataset, 4, cfg=small_cfg, seed=3, executor="serial"
        ) as stream:
            stream.warm_up()
            n = sum(1 for _ in stream.iter_batches(epoch_index=0))
            assert stream.stats["batches"] == n
            assert stream.stats["hits"] + stream.stats["stalls"] == n


class TestDeprecatedLoaderSurface:
    """The pre-FrameSource ``dataset=`` spelling is gone: the source is
    the required first argument."""

    def test_both_source_and_dataset_rejected(self):
        ds = _ds(4)
        with pytest.raises(TypeError):
            BatchLoader(ds, 2, dataset=ds)

    def test_no_source_rejected(self):
        with pytest.raises(TypeError):
            BatchLoader(batch_size=2)
