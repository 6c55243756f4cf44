"""ShardedFrameStore: round-trips, crash safety, residency, identity.

The crash-safety contract under test: opening a store whose files were
torn mid-write (truncated tail shard, clipped footer index, flipped
payload bytes, stale manifest CRCs) raises the typed
:class:`FrameStoreCorrupt` -- never silently serves bad frames -- and
``recover=True`` reopens the longest valid prefix of shards, counting
what it dropped in ``recovered_frames``.
"""

import json
import os
import pickle

import numpy as np
import pytest

from repro.data import (
    Dataset,
    FrameSource,
    FrameStoreCorrupt,
    ShardedFrameStore,
    open_source,
)


@pytest.fixture()
def store_dir(cu_dataset, tmp_path):
    """A fresh store holding cu_dataset: 4 sealed shards + active tail."""
    path = str(tmp_path / "store")
    with ShardedFrameStore.ingest(path, cu_dataset, shard_capacity=4):
        pass
    return path


def _shard_path(store_dir, index):
    return os.path.join(store_dir, f"shard-{index:05d}.rfs")


def _manifest(store_dir):
    with open(os.path.join(store_dir, "manifest.json")) as fh:
        return json.load(fh)


class TestRoundtrip:
    def test_frames_round_trip_bit_exact(self, cu_dataset, store_dir):
        with ShardedFrameStore.open(store_dir) as store:
            assert store.n_frames == cu_dataset.n_frames
            assert store.n_atoms == cu_dataset.n_atoms
            idx = np.array([0, 5, 17, 3])
            frames = store.get_frames(idx)
            assert np.array_equal(frames.positions, cu_dataset.positions[idx])
            assert np.array_equal(frames.forces, cu_dataset.forces[idx])
            assert np.array_equal(frames.energies, cu_dataset.energies[idx])
            assert np.array_equal(
                frames.temperatures, cu_dataset.temperatures[idx]
            )

    def test_implements_frame_source(self, store_dir, cu_dataset):
        with ShardedFrameStore.open(store_dir) as store:
            assert isinstance(store, FrameSource)
        assert isinstance(cu_dataset, FrameSource)

    def test_energy_stats_match_dataset(self, cu_dataset, store_dir):
        with ShardedFrameStore.open(store_dir) as store:
            assert store.energy_per_atom_stats() == \
                cu_dataset.energy_per_atom_stats()

    def test_neighbor_tables_match_dataset(self, cu_dataset, store_dir):
        idx = np.array([2, 9, 14])
        ref = cu_dataset.neighbor_tables(idx, 3.2, 14)
        with ShardedFrameStore.open(store_dir) as store:
            got = store.neighbor_tables(idx, 3.2, 14)
            assert np.array_equal(got.idx, ref.idx)
            assert np.array_equal(got.shift, ref.shift)
            assert np.array_equal(got.mask, ref.mask)
            # second ask hits the per-frame cache, same arrays
            again = store.neighbor_tables(idx, 3.2, 14)
            assert np.array_equal(again.idx, ref.idx)

    def test_to_dataset_slice(self, cu_dataset, store_dir):
        with ShardedFrameStore.open(store_dir) as store:
            ds = store.to_dataset(np.arange(6))
            assert isinstance(ds, Dataset)
            assert np.array_equal(ds.positions, cu_dataset.positions[:6])

    def test_verify_passes_on_clean_store(self, store_dir):
        with ShardedFrameStore.open(store_dir) as store:
            store.verify()

    def test_read_only_refuses_append(self, store_dir, cu_dataset):
        with ShardedFrameStore.open(store_dir, mode="r") as store:
            with pytest.raises(PermissionError):
                store.append_dataset(cu_dataset)

    def test_append_resumes_across_reopen(self, cu_dataset, tmp_path):
        path = str(tmp_path / "resume")
        with ShardedFrameStore.ingest(path, cu_dataset, shard_capacity=4):
            pass
        with ShardedFrameStore.open(path, mode="a") as store:
            n = store.append_dataset(cu_dataset.subset(np.arange(3)))
            assert n == cu_dataset.n_frames + 3
        with ShardedFrameStore.open(path) as store:
            frames = store.get_frames([cu_dataset.n_frames + 2])
            assert np.array_equal(
                frames.positions[0], cu_dataset.positions[2]
            )
            store.verify()

    def test_index_out_of_range(self, store_dir):
        with ShardedFrameStore.open(store_dir) as store:
            with pytest.raises(IndexError):
                store.get_frames([store.n_frames])

    def test_geometry_mismatch_rejected(self, store_dir, nacl_dataset):
        with ShardedFrameStore.open(store_dir, mode="a") as store:
            with pytest.raises(ValueError):
                store.append_dataset(nacl_dataset)


class TestCrashSafety:
    def test_torn_tail_shard_fails_closed(self, store_dir):
        path = _shard_path(store_dir, 4)  # active tail (2 frames)
        os.truncate(path, os.path.getsize(path) - 16)
        with pytest.raises(FrameStoreCorrupt, match="torn shard"):
            ShardedFrameStore.open(store_dir)

    def test_truncated_footer_index_fails_closed(self, store_dir):
        path = _shard_path(store_dir, 2)  # sealed shard
        os.truncate(path, os.path.getsize(path) - 8)
        with pytest.raises(FrameStoreCorrupt):
            ShardedFrameStore.open(store_dir)

    def test_footer_bytes_corrupt_fails_closed(self, store_dir):
        # flip a byte inside the footer CRC table of a sealed shard --
        # the file keeps its size, so only the table CRC catches it
        path = _shard_path(store_dir, 1)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size - 24)
            byte = fh.read(1)
            fh.seek(size - 24)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(FrameStoreCorrupt):
            ShardedFrameStore.open(store_dir)

    def test_manifest_crc_mismatch_fails_closed(self, store_dir):
        manifest = _manifest(store_dir)
        manifest["shards"][0]["payload_crc"] ^= 1
        with open(os.path.join(store_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(FrameStoreCorrupt, match="CRC mismatch"):
            ShardedFrameStore.open(store_dir)

    def test_unreadable_manifest_fails_closed(self, store_dir):
        with open(os.path.join(store_dir, "manifest.json"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(FrameStoreCorrupt, match="manifest"):
            ShardedFrameStore.open(store_dir)

    def test_unknown_schema_fails_closed(self, store_dir):
        manifest = _manifest(store_dir)
        manifest["schema"] = "repro.framestore/v999"
        with open(os.path.join(store_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(FrameStoreCorrupt, match="schema"):
            ShardedFrameStore.open(store_dir)

    def test_missing_store_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedFrameStore.open(str(tmp_path / "nothing"))

    def test_payload_flip_caught_on_read(self, cu_dataset, store_dir):
        # keep the file size and footer intact; flip one payload byte.
        # open() is structural and passes, but fetching the frame trips
        # the per-frame CRC check (fail-closed at read time).
        path = _shard_path(store_dir, 0)
        with open(path, "r+b") as fh:
            fh.seek(48 + 100)  # inside frame 0's record
            byte = fh.read(1)
            fh.seek(48 + 100)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with ShardedFrameStore.open(store_dir) as store:
            with pytest.raises(FrameStoreCorrupt, match="CRC mismatch"):
                store.get_frames([0])
            with pytest.raises(FrameStoreCorrupt):
                store.verify()

    def test_recover_trims_to_last_complete_shard(self, cu_dataset, store_dir):
        # tear shard 3 (sealed) -- recovery must keep shards 0..2 (12
        # frames) and drop the torn shard plus the tail behind it
        path = _shard_path(store_dir, 3)
        os.truncate(path, os.path.getsize(path) - 40)
        with ShardedFrameStore.open(store_dir, mode="a", recover=True) as store:
            assert store.n_frames == 12
            assert store.recovered_frames == cu_dataset.n_frames - 12
            frames = store.get_frames(np.arange(12))
            assert np.array_equal(
                frames.positions, cu_dataset.positions[:12]
            )
        # recovery rewrote the manifest: a plain reopen is now clean
        with ShardedFrameStore.open(store_dir) as store:
            assert store.n_frames == 12
            store.verify()

    def test_recover_then_append_continues(self, cu_dataset, store_dir):
        os.truncate(
            _shard_path(store_dir, 4),
            os.path.getsize(_shard_path(store_dir, 4)) - 16,
        )
        with ShardedFrameStore.open(store_dir, mode="a", recover=True) as store:
            assert store.n_frames == 16
            store.append_dataset(cu_dataset.subset(np.arange(2)))
            assert store.n_frames == 18
        with ShardedFrameStore.open(store_dir) as store:
            store.verify()


class TestResidency:
    def test_lru_bounds_open_shards(self, store_dir):
        with ShardedFrameStore.open(store_dir, max_open_shards=2) as store:
            for lo in range(0, store.n_frames, 4):
                store.get_frames(np.arange(lo, min(lo + 4, store.n_frames)))
                assert store.cache_stats()["open_shards"] <= 2
            # the bound held while every shard was visited
            assert len(store.shards) == 5

    def test_neighbor_cache_is_bounded(self, store_dir):
        with ShardedFrameStore.open(store_dir) as store:
            store.neighbor_cache_frames = 4
            store.neighbor_tables(np.arange(10), 3.2, 14)
            assert store.cache_stats()["neighbor_cache_frames"] <= 4

    def test_tiny_neighbor_cache_reads_each_miss_once(self, cu_dataset, store_dir):
        """A cache smaller than the request must not re-read (or rebuild)
        frames it evicted during the same call."""
        idx = np.array([3, 7, 3, 12, 0, 7, 7, 16, 0, 5])
        ref = cu_dataset.neighbor_tables(idx, 3.2, 14)
        with ShardedFrameStore.open(store_dir) as store:
            store.neighbor_cache_frames = 1
            reads = []
            get_frames = store.get_frames

            def spy(indices):
                reads.extend(int(i) for i in np.asarray(indices).reshape(-1))
                return get_frames(indices)

            store.get_frames = spy
            got = store.neighbor_tables(idx, 3.2, 14)
            assert sorted(reads) == sorted(set(idx.tolist()))
            assert np.array_equal(got.idx, ref.idx)
            assert np.array_equal(got.shift.view(np.int64), ref.shift.view(np.int64))
            assert np.array_equal(got.mask, ref.mask)
            assert store.cache_stats()["neighbor_cache_frames"] == 1

    def test_close_releases_mappings(self, store_dir):
        store = ShardedFrameStore.open(store_dir)
        store.get_frames(np.arange(8))
        store.close()
        assert store.cache_stats()["open_shards"] == 0


class TestIdentity:
    def test_fingerprint_stable_across_reopen(self, store_dir):
        with ShardedFrameStore.open(store_dir) as a:
            fp = a.fingerprint()
        with ShardedFrameStore.open(store_dir) as b:
            assert b.fingerprint() == fp

    def test_equal_ingests_fingerprint_equal(self, cu_dataset, tmp_path):
        fps = []
        for name in ("a", "b"):
            with ShardedFrameStore.ingest(
                str(tmp_path / name), cu_dataset, shard_capacity=4
            ) as store:
                fps.append(store.fingerprint())
        assert fps[0] == fps[1]

    def test_append_changes_fingerprint(self, cu_dataset, store_dir):
        with ShardedFrameStore.open(store_dir, mode="a") as store:
            before = store.fingerprint()
            store.append_dataset(cu_dataset.subset(np.arange(1)))
            assert store.fingerprint() != before

    def test_pickle_ships_handle_not_data(self, cu_dataset, store_dir):
        with ShardedFrameStore.open(store_dir) as store:
            blob = pickle.dumps(store)
            # far smaller than the frame payload: only the path travels
            assert len(blob) < 1024
            clone = pickle.loads(blob)
        try:
            assert clone.fingerprint() == ShardedFrameStore.open(
                store_dir
            ).fingerprint()
            frames = clone.get_frames([1, 7])
            assert np.array_equal(
                frames.positions, cu_dataset.positions[[1, 7]]
            )
        finally:
            clone.close()

    def test_open_source_opens_store_dir(self, store_dir):
        with open_source(store_dir) as src:
            assert isinstance(src, ShardedFrameStore)
            assert src.mode == "r"
