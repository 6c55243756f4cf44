"""Model+optimizer checkpointing for cross-session online learning."""

import numpy as np
import pytest

from repro.model import DeePMD, make_batch
from repro.optim import FEKF, load_state, save_state
from repro.optim.kalman import FLUSH_EVERY
from repro.perf import OPT1, OPT3


def _opt(model, fused=True):
    """The fused filter, or Figure 7's dense one (on the same model)."""
    return (OPT3 if fused else OPT1).optimizer(model, seed=9, blocksize=1024)


class TestCheckpoint:
    def test_model_only_roundtrip(self, cu_model, cu_batch, cu_dataset, small_cfg, tmp_path):
        path = str(tmp_path / "m.npz")
        save_state(path, cu_model)
        other = DeePMD.for_dataset(cu_dataset, small_cfg, seed=77)
        load_state(path, other)
        assert np.allclose(
            other.predict_energy(cu_batch), cu_model.predict_energy(cu_batch)
        )

    def test_loading_optimizer_from_model_only_file_raises(
        self, cu_model, cu_dataset, small_cfg, tmp_path
    ):
        path = str(tmp_path / "m.npz")
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
        path = str(tmp_path / "ck.npz")
        save_state(path, m1, o1)

        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=55)
        o2 = _opt(m2, fused)
        load_state(path, m2, o2)
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
        path = str(tmp_path / "ck.npz")
        save_state(path, model, opt)
        other = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        with pytest.raises(ValueError):
            load_state(path, other, _opt(other, fused=False))

    def test_lambda_and_update_count_restored(self, cu_dataset, small_cfg, cu_batch, tmp_path):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        opt = _opt(model)
        for _ in range(3):
            opt.step_batch(cu_batch)
        path = str(tmp_path / "ck.npz")
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
        path = str(tmp_path / "mid.npz")
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
        path = str(tmp_path / "steps.npz")
        save_state(path, m1, o1)
        m2, o2 = _fresh(cu_dataset, small_cfg, seed=55)
        load_state(path, m2, o2)
        for _ in range(2):
            o1.step_batch(cu_batch)
            o2.step_batch(cu_batch)
        assert np.array_equal(m1.params.flatten(), m2.params.flatten())
        assert o1.kalman.checksum() == o2.kalman.checksum()
        assert _same_state(o1, o2)

    def test_checkpoint_without_pending_keys_loads_and_trains(
        self, cu_dataset, small_cfg, cu_batch
    ):
        """A checkpoint written before the deferred downdate existed has
        a fully applied P and no pending keys: it loads as "nothing
        pending" -- even into a filter that is mid-window -- and trains
        exactly like the filter it was taken from."""
        m1, o1 = _fresh(cu_dataset, small_cfg)
        for _ in range(FLUSH_EVERY // 5):
            o1.step_batch(cu_batch)
        assert o1.kalman.pending == 0  # P fully applied, like an old file
        old = {k: v for k, v in o1.state_dict().items() if "pending" not in k}

        m2, o2 = _fresh(cu_dataset, small_cfg)
        o2.step_batch(cu_batch)  # leaves 5 pending that the load must drop
        m2.params.unflatten(m1.params.flatten().copy())
        o2.load_state_dict(old)
        assert o2.kalman.pending == 0
        assert o2.kalman.checksum() == o1.kalman.checksum()
        o1.step_batch(cu_batch)
        o2.step_batch(cu_batch)
        assert np.array_equal(m1.params.flatten(), m2.params.flatten())
        assert o1.kalman.checksum() == o2.kalman.checksum()

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


class TestLegacyLayout:
    """Files written before the ``Optimizer`` protocol existed carry only
    the original key set; they must stay loadable verbatim."""

    LEGACY_KEYS = (
        "kalman/lam", "kalman/updates", "kalman/p_scales", "kalman/fused",
    )

    def _write_legacy(self, path, model, opt):
        """Re-write a checkpoint keeping only the pre-protocol keys
        (no kalman/step_count, no kalman/rng)."""
        payload = {f"model/{k}": v for k, v in model.state_dict().items()}
        state = opt.state_dict()
        for key in self.LEGACY_KEYS:
            payload[key] = state[key]
        for key in state:
            if key.startswith("kalman/p") and key[8:].isdigit():
                payload[key] = state[key]
        np.savez_compressed(path, **payload)
        return state

    def test_pre_protocol_file_roundtrips(self, cu_dataset, small_cfg, cu_batch, tmp_path):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        opt = _opt(model)
        for _ in range(2):
            opt.step_batch(cu_batch)
        path = str(tmp_path / "legacy.npz")
        old_state = self._write_legacy(path, model, opt)

        m2 = DeePMD.for_dataset(cu_dataset, small_cfg, seed=42)
        o2 = _opt(m2)
        step_count_before = o2.step_count
        load_state(path, m2, o2)
        assert np.allclose(m2.params.flatten(), model.params.flatten())
        assert o2.kalman.lam == pytest.approx(opt.kalman.lam)
        assert o2.kalman.updates == opt.kalman.updates
        for i, p in enumerate(o2.kalman.p_mats):
            assert np.array_equal(p, old_state[f"kalman/p{i}"])
        # the optional keys were absent: their state is simply untouched
        assert o2.step_count == step_count_before

    def test_missing_optional_keys_do_not_raise(self, cu_dataset, small_cfg, tmp_path):
        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        opt = _opt(model)
        path = str(tmp_path / "legacy.npz")
        self._write_legacy(path, model, opt)
        with np.load(path) as z:
            assert "kalman/step_count" not in z.files
            assert "kalman/rng" not in z.files
        load_state(path, model, opt)

    def test_model_prefixed_optimizer_key_rejected(self, cu_model, tmp_path):
        """An optimizer whose state keys spill into the model/ namespace
        would silently corrupt the weight payload; save must refuse."""

        class EvilOpt:
            def state_dict(self):
                return {"model/fit_out_b": np.zeros(1)}

        with pytest.raises(ValueError, match="collide"):
            save_state(str(tmp_path / "x.npz"), cu_model, EvilOpt())
