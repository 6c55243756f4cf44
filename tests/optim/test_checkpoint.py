"""Model+optimizer checkpointing for cross-session online learning."""

import glob
import json
import os
import zipfile

import numpy as np
import pytest

from repro import durable
from repro.analysis.determinism import state_fingerprint
from repro.model import DeePMD, make_batch
from repro.optim import (
    FEKF,
    CheckpointError,
    LegacyCheckpointError,
    load_state,
    save_state,
)
from repro.optim import checkpoint
from repro.optim.kalman import FLUSH_EVERY
from repro.perf import OPT1, OPT3


def _opt(model, fused=True):
    """The fused filter, or Figure 7's dense one (on the same model)."""
    return (OPT3 if fused else OPT1).optimizer(model, seed=9, blocksize=1024)


class TestCheckpoint:
    def test_model_only_roundtrip(self, cu_model, cu_batch, cu_dataset, small_cfg, tmp_path):
        path = str(tmp_path / "m")
        save_state(path, cu_model)
        other = DeePMD.for_dataset(cu_dataset, small_cfg, seed=77)
        load_state(path, other)
        assert np.allclose(
            other.predict_energy(cu_batch), cu_model.predict_energy(cu_batch)
        )

    def test_loading_optimizer_from_model_only_file_raises(
        self, cu_model, cu_dataset, small_cfg, tmp_path
    ):
        path = str(tmp_path / "m")
        save_state(path, cu_model)
        other = DeePMD.for_dataset(cu_dataset, small_cfg, seed=3)
        with pytest.raises(KeyError):
            load_state(path, other, _opt(other))

    @pytest.mark.parametrize("fused", [True, False])
    def test_resume_continues_identical_trajectory(
        self, cu_dataset, small_cfg, tmp_path, fused
    ):
        """Resuming from a checkpoint continues the exact trajectory."""
        batch = make_batch(cu_dataset, np.arange(3), small_cfg)

        m1 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        o1 = _opt(m1, fused)
        for _ in range(2):
            o1.step_batch(batch)
        path = str(tmp_path / "ck")
        save_state(path, m1, o1)

        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=55)
        o2 = _opt(m2, fused)
        load_state(path, m2, o2)
        assert _same_state(o1, o2)  # every array, the dense P blocks included
        assert np.array_equal(m1.params.flatten(), m2.params.flatten())
        # the force-group shuffling rng must be re-synced for bitwise
        # continuation; re-seed both to the same stream state
        o2._rng = np.random.default_rng(123)
        o1._rng = np.random.default_rng(123)
        for _ in range(2):
            o1.step_batch(batch)
            o2.step_batch(batch)
        assert np.allclose(m1.params.flatten(), m2.params.flatten(), atol=1e-12)
        assert o1.kalman.checksum() == pytest.approx(o2.kalman.checksum(), rel=1e-12)

    def test_layout_mismatch_rejected(self, cu_dataset, small_cfg, tmp_path):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        opt = _opt(model, fused=True)
        path = str(tmp_path / "ck")
        save_state(path, model, opt)
        other = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        with pytest.raises(ValueError):
            load_state(path, other, _opt(other, fused=False))

    def test_lambda_and_update_count_restored(self, cu_dataset, small_cfg, cu_batch, tmp_path):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        opt = _opt(model)
        for _ in range(3):
            opt.step_batch(cu_batch)
        path = str(tmp_path / "ck")
        save_state(path, model, opt)
        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=2)
        o2 = _opt(m2)
        load_state(path, m2, o2)
        assert o2.kalman.lam == pytest.approx(opt.kalman.lam)
        assert o2.kalman.updates == opt.kalman.updates


def _fresh(cu_dataset, small_cfg, seed=1):
    model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=seed)
    return model, _opt(model)


def _same_state(a: FEKF, b: FEKF) -> bool:
    sa, sb = a.state_dict(), b.state_dict()
    return sa.keys() == sb.keys() and all(np.array_equal(sa[k], sb[k]) for k in sa)


class TestPendingDowndates:
    """The fused backend holds up to FLUSH_EVERY - 1 rank-1 downdates
    unapplied.  They are filter state: a snapshot carries them as they
    are (never flushes), so checkpointing cannot perturb a trajectory and
    a resume in the middle of the window is bit-exact."""

    def _grads(self, opt, n, seed=5):
        r = np.random.default_rng(seed)
        return [r.normal(size=opt.kalman.num_params) * 0.2 for _ in range(n)]

    def test_snapshot_carries_live_columns_only(self, cu_dataset, small_cfg):
        _, opt = _fresh(cu_dataset, small_cfg)
        n_blocks = len(opt.kalman.blocks)
        for j, g in enumerate(self._grads(opt, FLUSH_EVERY + 3)):
            k = j % FLUSH_EVERY
            state = opt.state_dict()
            assert state["kalman/pending_beta"].shape == (n_blocks, k)
            for i, blk in enumerate(opt.kalman.blocks):
                assert state[f"kalman/pending_u{i}"].shape == (blk.size, k)
            opt.kalman.update(g, 0.1, 1.0)

    def test_state_dict_at_every_phase_is_pure(self, cu_dataset, small_cfg):
        """Snapshotting after every single update (every phase of the
        window, across two flushes) leaves the trajectory bit-for-bit the
        one of a filter that was never looked at."""
        _, watched = _fresh(cu_dataset, small_cfg)
        _, quiet = _fresh(cu_dataset, small_cfg)
        for g in self._grads(watched, 2 * FLUSH_EVERY + 3):
            stored = [p.copy() for p in watched.kalman.p_mats]
            pending = watched.kalman.pending
            watched.state_dict()
            assert watched.kalman.pending == pending  # no flush to save
            assert all(
                np.array_equal(a, b) for a, b in zip(stored, watched.kalman.p_mats)
            )
            assert np.array_equal(
                watched.kalman.update(g, 0.1, 1.0), quiet.kalman.update(g, 0.1, 1.0)
            )
        assert watched.kalman.checksum() == quiet.kalman.checksum()
        assert _same_state(watched, quiet)

    @pytest.mark.parametrize("phase", [0, 1, FLUSH_EVERY // 2, FLUSH_EVERY - 1])
    def test_resume_mid_window_is_bit_exact(self, cu_dataset, small_cfg, tmp_path, phase):
        """save -> fresh optimizer -> load -> continue == uninterrupted,
        bit for bit, with the save at any phase of the window and the
        continuation running through the next flush."""
        model, straight = _fresh(cu_dataset, small_cfg)
        grads = self._grads(straight, FLUSH_EVERY + phase + FLUSH_EVERY + 2)
        head, tail = grads[: FLUSH_EVERY + phase], grads[FLUSH_EVERY + phase :]
        for g in head:
            straight.kalman.update(g, 0.1, 1.0)
        assert straight.kalman.pending == phase
        path = str(tmp_path / "mid")
        save_state(path, model, straight)

        m2, resumed = _fresh(cu_dataset, small_cfg, seed=77)
        load_state(path, m2, resumed)
        assert resumed.kalman.pending == phase
        assert resumed.kalman.checksum() == straight.kalman.checksum()
        assert _same_state(resumed, straight)
        for g in tail:
            assert np.array_equal(
                straight.kalman.update(g, 0.1, 1.0), resumed.kalman.update(g, 0.1, 1.0)
            )
        assert resumed.kalman.checksum() == straight.kalman.checksum()
        assert _same_state(resumed, straight)

    def test_full_steps_resume_bit_exactly_through_a_flush(
        self, cu_dataset, small_cfg, cu_batch, tmp_path
    ):
        """The same through ``step_batch`` (5 updates a step; the group
        RNG rides in the state): 3 steps, save with 15 pending, resume,
        2 more steps -- the flush lands in the resumed half."""
        m1, o1 = _fresh(cu_dataset, small_cfg)
        for _ in range(3):
            o1.step_batch(cu_batch)
        assert o1.kalman.pending == 15 % FLUSH_EVERY
        path = str(tmp_path / "steps")
        save_state(path, m1, o1)
        m2, o2 = _fresh(cu_dataset, small_cfg, seed=55)
        load_state(path, m2, o2)
        for _ in range(2):
            o1.step_batch(cu_batch)
            o2.step_batch(cu_batch)
        assert np.array_equal(m1.params.flatten(), m2.params.flatten())
        assert o1.kalman.checksum() == o2.kalman.checksum()
        assert _same_state(o1, o2)

    def test_overfull_pending_rejected(self, cu_dataset, small_cfg):
        _, opt = _fresh(cu_dataset, small_cfg)
        state = opt.state_dict()
        n_blocks = len(opt.kalman.blocks)
        state["kalman/pending_beta"] = np.zeros((n_blocks, FLUSH_EVERY))
        with pytest.raises(ValueError, match="pending"):
            opt.load_state_dict(state)


class TestLoadDoesNotAlias:
    """``load_state_dict`` must copy: the fused update runs in place, and
    ``np.asfortranarray`` of an already F-contiguous snapshot array is
    that very array."""

    @pytest.mark.parametrize("fused", [True, False])
    def test_training_after_load_leaves_the_snapshot_alone(
        self, cu_dataset, small_cfg, cu_batch, fused
    ):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        opt = _opt(model, fused)
        opt.step_batch(cu_batch)
        snap = opt.state_dict()
        frozen = {k: v.copy() for k, v in snap.items()}
        opt.load_state_dict(snap)
        for _ in range(FLUSH_EVERY // 5):  # far enough to rewrite P in place
            opt.step_batch(cu_batch)
        for key in frozen:
            assert np.array_equal(snap[key], frozen[key]), key
        assert not any(
            np.shares_memory(snap[f"kalman/p{i}"], p)
            for i, p in enumerate(opt.kalman.p_mats)
        )

    def test_loading_one_snapshot_twice_gives_identical_trajectories(
        self, cu_dataset, small_cfg, cu_batch
    ):
        model, opt = _fresh(cu_dataset, small_cfg)
        opt.step_batch(cu_batch)
        snap, w0 = opt.state_dict(), model.params.flatten().copy()

        ends = []
        for _ in range(2):
            model.params.unflatten(w0.copy())
            opt.load_state_dict(snap)
            for _ in range(FLUSH_EVERY // 5):
                opt.step_batch(cu_batch)
            ends.append((model.params.flatten().copy(), opt.kalman.checksum()))
        assert np.array_equal(ends[0][0], ends[1][0])
        assert ends[0][1] == ends[1][1]


def _state(model, opt):
    """Everything a checkpoint restores, as comparable arrays."""
    return {"w": model.params.flatten().copy(), **opt.state_dict()}


def _equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


class TestFormat:
    def test_files_are_one_manifest_and_one_data_file(self, cu_dataset, small_cfg, tmp_path):
        model, opt = _fresh(cu_dataset, small_cfg)
        path = str(tmp_path / "ck")
        for _ in range(3):  # saving over a checkpoint leaves no second data file
            save_state(path, model, opt)
        assert sorted(os.listdir(path)) == ["data.2.bin", "manifest.json"]
        with open(os.path.join(path, "manifest.json")) as fh:
            manifest = json.load(fh)
        entries = manifest["members"][0]["optimizer"]
        assert os.path.getsize(os.path.join(path, "data.2.bin")) == sum(
            e["nbytes"] for m in manifest["members"] for part in m.values() for e in part
        )
        # a fused block is stored as its packed upper triangle, nothing else
        for i, blk in enumerate(opt.kalman.blocks):
            entry = next(e for e in entries if e["key"] == f"kalman/p{i}")
            n = blk.size
            assert (entry["layout"], entry["nbytes"]) == ("triangle", 8 * n * (n + 1) // 2)

    def test_save_builds_each_state_once(self, cu_dataset, small_cfg, tmp_path):
        """Every ``state_dict()`` call copies every P block."""
        model, opt = _fresh(cu_dataset, small_cfg)
        calls = []
        inner = opt.state_dict
        opt.state_dict = lambda: calls.append(1) or inner()
        save_state(str(tmp_path / "ck"), [model, model], [opt, opt])
        assert len(calls) == 2

    def test_members_and_metadata(self, cu_dataset, small_cfg, cu_batch, tmp_path):
        """A committee and a model-only member share one checkpoint, and
        the caller's metadata comes back from the load."""
        pairs = [_fresh(cu_dataset, small_cfg, seed=s) for s in (1, 2)]
        for _, opt in pairs:
            opt.step_batch(cu_batch)
        walker = DeePMD.for_dataset(cu_dataset, small_cfg, seed=3)
        path = str(tmp_path / "ck")
        meta = {"rounds": 4, "rng": {"state": 1 << 100}, "pos": [[0.1, -0.0]]}
        save_state(path, [m for m, _ in pairs] + [walker], [o for _, o in pairs] + [None],
                   meta=meta)
        assert checkpoint.read_meta(path) == meta

        fresh = [_fresh(cu_dataset, small_cfg, seed=s) for s in (7, 8)]
        walker2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=9)
        got = load_state(path, [m for m, _ in fresh] + [walker2], [o for _, o in fresh] + [None])
        assert got == meta
        for (m, o), (m2, o2) in zip(pairs, fresh):
            assert _equal(_state(m, o), _state(m2, o2))
        assert np.array_equal(walker.params.flatten(), walker2.params.flatten())
        with pytest.raises(ValueError, match="3 members for 2 models"):
            load_state(path, [m for m, _ in fresh])
        with pytest.raises(KeyError, match="member 2"):
            load_state(path, [m for m, _ in fresh] + [walker2], [o for _, o in fresh] + [fresh[0][1]])


class TestTypedErrors:
    def test_npz_file_raises_the_legacy_error(self, cu_dataset, small_cfg, tmp_path):
        model, opt = _fresh(cu_dataset, small_cfg)
        path = str(tmp_path / "old.npz")
        np.savez_compressed(path, **{f"model/{k}": v for k, v in model.state_dict().items()})
        assert zipfile.is_zipfile(path)
        with pytest.raises(LegacyCheckpointError, match=r"\.npz checkpoints"):
            load_state(path, model, opt)

    def test_missing_checkpoint_raises(self, cu_model, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_state(str(tmp_path / "nothing"), cu_model)

    @pytest.mark.parametrize("where", ["model", "middle", "last"])
    def test_corrupt_byte_raises_before_anything_changes(
        self, cu_dataset, small_cfg, cu_batch, tmp_path, where
    ):
        model, opt = _fresh(cu_dataset, small_cfg)
        opt.step_batch(cu_batch)
        path = str(tmp_path / "ck")
        save_state(path, model, opt)
        (data,) = glob.glob(os.path.join(path, "data.*.bin"))
        size = os.path.getsize(data)
        at = {"model": 0, "middle": size // 2, "last": size - 1}[where]
        with open(data, "r+b") as fh:
            fh.seek(at)
            byte = fh.read(1)[0]
            fh.seek(at)
            fh.write(bytes([byte ^ 0x10]))

        m2, o2 = _fresh(cu_dataset, small_cfg, seed=5)
        o2.step_batch(cu_batch)
        before = _state(m2, o2)
        with pytest.raises(CheckpointError, match="CRC"):
            load_state(path, m2, o2)
        assert _equal(_state(m2, o2), before)

    def test_truncated_data_file_raises(self, cu_dataset, small_cfg, tmp_path):
        model, opt = _fresh(cu_dataset, small_cfg)
        path = str(tmp_path / "ck")
        save_state(path, model, opt)
        (data,) = glob.glob(os.path.join(path, "data.*.bin"))
        os.truncate(data, os.path.getsize(data) - 8)
        with pytest.raises(CheckpointError, match="truncated"):
            load_state(path, model, opt)


class _Crash(Exception):
    """Stands in for the process dying at a write point."""


class _FailingFile:
    """A file whose ``nth`` write raises (after writing nothing)."""

    def __init__(self, fh, nth):
        self._fh, self._left = fh, nth

    def write(self, data):
        self._left -= 1
        if self._left == 0:
            raise _Crash("write")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _fail_nth(real, nth):
    calls = [0]

    def fake(*args, **kwargs):
        calls[0] += 1
        if calls[0] == nth:
            raise _Crash(real.__name__)
        return real(*args, **kwargs)

    return fake


def _fail_write(module, nth):
    def opener(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FailingFile(fh, nth) if "w" in mode else fh

    return module, "open", opener


#: each write point of ``save_state`` in order, as (patch target,
#: attribute, replacement), and whether the crash lands after the commit
WRITE_POINTS = {
    "first data write": (lambda: _fail_write(checkpoint, 1), False),
    "mid data write": (lambda: _fail_write(checkpoint, 40), False),
    "data fsync": (lambda: (os, "fsync", _fail_nth(os.fsync, 1)), False),
    "manifest write": (lambda: _fail_write(durable, 1), False),
    "manifest fsync": (lambda: (os, "fsync", _fail_nth(os.fsync, 2)), False),
    "manifest replace": (lambda: (os, "replace", _fail_nth(os.replace, 1)), False),
    "old data removal": (lambda: (os, "remove", _fail_nth(os.remove, 1)), True),
}


class TestCrashAtEachWritePoint:
    """A crash anywhere in a save leaves the previous checkpoint or the
    new one, never a torn one, and a run resumed from what is left
    matches the run that never stopped."""

    TOTAL = 5  # steps of the uninterrupted run

    @pytest.mark.parametrize("point", list(WRITE_POINTS))
    def test_load_gives_previous_or_new_and_resumes_exactly(
        self, cu_dataset, small_cfg, cu_batch, tmp_path, monkeypatch, point
    ):
        model, opt = _fresh(cu_dataset, small_cfg)
        path = str(tmp_path / "ck")
        for _ in range(2):
            opt.step_batch(cu_batch)
        save_state(path, model, opt)
        previous = _state(model, opt)
        opt.step_batch(cu_batch)  # 15 updates: mid flush window
        new = _state(model, opt)

        patch, committed = WRITE_POINTS[point]
        with monkeypatch.context() as mp:
            mp.setattr(*patch(), raising=False)
            with pytest.raises(_Crash):
                save_state(path, model, opt)
        for _ in range(self.TOTAL - 3):
            opt.step_batch(cu_batch)
        straight = state_fingerprint(opt, model)

        m2, o2 = _fresh(cu_dataset, small_cfg, seed=5)
        load_state(path, m2, o2)
        assert _equal(_state(m2, o2), new if committed else previous)
        while o2.step_count < self.TOTAL:
            o2.step_batch(cu_batch)
        assert state_fingerprint(o2, m2) == straight

        save_state(path, m2, o2)  # the next save cleans up after the crash
        assert len(glob.glob(os.path.join(path, "data.*.bin"))) == 1
        m3, o3 = _fresh(cu_dataset, small_cfg, seed=6)
        load_state(path, m3, o3)
        assert state_fingerprint(o3, m3) == straight
