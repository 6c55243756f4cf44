"""Neighbor search: backend agreement, table semantics, shifts, and the
batched table kernel against the per-atom oracle it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import SYSTEMS, NeighborArrays
from repro.md import Cell, fcc, max_neighbor_count, neighbor_table, pair_list
from repro.md import neighbor as neighbor_mod
from repro.md.neighbor import (
    NeighborTable,
    batch_neighbor_tables,
    pair_list_bruteforce,
    pair_list_cells,
)


def reference_table(positions, cell, rcut, nmax):
    """The per-atom table build the batched kernel replaced: expand the
    half pair list, stable-lexsort by (source, distance), copy each
    atom's first ``nmax`` neighbors.  Kept here as the oracle."""
    n = positions.shape[0]
    pl = pair_list(positions, cell, rcut)
    src = np.concatenate([pl.i, pl.j])
    dst = np.concatenate([pl.j, pl.i])
    vec = np.concatenate([pl.rij, -pl.rij])
    dist = np.concatenate([pl.r, pl.r])

    idx = np.tile(np.arange(n)[:, None], (1, nmax))
    shift = np.zeros((n, nmax, 3))
    mask = np.zeros((n, nmax), dtype=bool)

    order = np.lexsort((dist, src))
    src, dst, vec, dist = src[order], dst[order], vec[order], dist[order]
    starts = np.searchsorted(src, np.arange(n + 1))
    for a in range(n):
        lo, hi = starts[a], starts[a + 1]
        k = min(hi - lo, nmax)
        if k == 0:
            continue
        sel = slice(lo, lo + k)
        idx[a, :k] = dst[sel]
        shift[a, :k] = vec[sel] - (positions[dst[sel]] - positions[a])
        mask[a, :k] = True
    return NeighborTable(idx=idx, shift=shift, mask=mask)


def assert_same_bytes(got, frames, cell, rcut, nmax):
    """Every frame of the stacked ``got`` equals the oracle byte for byte
    (``shift`` compared as int64 bits, so -0.0 != 0.0)."""
    assert got.idx.shape == (len(frames), frames.shape[1], nmax)
    assert got.idx.dtype == np.int64 and got.mask.dtype == bool
    for t, pos in enumerate(frames):
        ref = reference_table(pos, cell, rcut, nmax)
        assert np.array_equal(got.idx[t], ref.idx)
        assert np.array_equal(got.shift[t].view(np.int64), ref.shift.view(np.int64))
        assert np.array_equal(got.mask[t], ref.mask)


def _random_config(n, box, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, box, size=(n, 3)), Cell([box] * 3)


class TestBackendsAgree:
    @pytest.mark.parametrize("seed", range(5))
    def test_cells_match_bruteforce_random(self, seed):
        pos, cell = _random_config(60, 12.0, seed)
        rcut = 3.0
        a = pair_list_bruteforce(pos, cell, rcut)
        b = pair_list_cells(pos, cell, rcut)
        pa = set(zip(a.i.tolist(), a.j.tolist()))
        pb = set(zip(b.i.tolist(), b.j.tolist()))
        assert pa == pb
        # and identical geometry for each shared pair
        da = {(i, j): r for i, j, r in zip(a.i, a.j, a.r)}
        db = {(i, j): r for i, j, r in zip(b.i, b.j, b.r)}
        for k in da:
            assert da[k] == pytest.approx(db[k])

    def test_cells_fallback_small_box(self):
        pos, cell = _random_config(20, 5.0, 0)
        out = pair_list_cells(pos, cell, 2.5)  # fewer than 3 bins -> fallback
        ref = pair_list_bruteforce(pos, cell, 2.5)
        assert len(out) == len(ref)

    def test_dispatcher_picks_consistent_result(self):
        pos, cell = _random_config(300, 20.0, 1)
        out = pair_list(pos, cell, 3.0)
        ref = pair_list_bruteforce(pos, cell, 3.0)
        assert len(out) == len(ref)


@settings(max_examples=25, deadline=None)
@given(st.integers(8, 40), st.floats(2.0, 4.0), st.integers(0, 10**6))
def test_pair_list_properties(n, rcut, seed):
    pos, cell = _random_config(n, 10.0, seed)
    pl = pair_list_bruteforce(pos, cell, rcut)
    assert np.all(pl.i < pl.j)  # half list
    assert np.all(pl.r < rcut)
    assert np.allclose(np.linalg.norm(pl.rij, axis=1), pl.r)


class TestNeighborTable:
    def test_shift_reconstructs_displacement(self):
        pos, cell, _ = fcc(3.6, (2, 2, 2))
        table = neighbor_table(pos, cell, 3.0, 16)
        for a in range(len(pos)):
            for k in range(16):
                if not table.mask[a, k]:
                    continue
                rij = pos[table.idx[a, k]] + table.shift[a, k] - pos[a]
                assert np.linalg.norm(rij) < 3.0

    def test_padding_points_to_self(self):
        pos, cell, _ = fcc(3.6, (2, 2, 2))
        table = neighbor_table(pos, cell, 2.7, 30)
        pads = ~table.mask
        assert pads.any()
        idx_grid = np.tile(np.arange(len(pos))[:, None], (1, 30))
        assert np.all(table.idx[pads] == idx_grid[pads])
        assert np.allclose(table.shift[pads], 0.0)

    def test_neighbors_sorted_by_distance(self):
        pos, cell, _ = fcc(3.6, (2, 2, 2))
        pos = pos + np.random.default_rng(0).normal(scale=0.05, size=pos.shape)
        table = neighbor_table(pos, cell, 3.4, 20)
        for a in range(len(pos)):
            k = table.mask[a].sum()
            d = np.linalg.norm(
                pos[table.idx[a, :k]] + table.shift[a, :k] - pos[a], axis=1
            )
            assert np.all(np.diff(d) >= -1e-12)

    def test_truncates_to_nmax_keeping_closest(self):
        pos, cell, _ = fcc(3.6, (2, 2, 2))
        full = neighbor_table(pos, cell, 3.4, 30)
        k_real = int(full.mask[0].sum())
        small = neighbor_table(pos, cell, 3.4, k_real - 2)
        assert small.mask.all()
        # the kept neighbors are the nearest ones
        d_full = np.sort(
            np.linalg.norm(pos[full.idx[0, :k_real]] + full.shift[0, :k_real] - pos[0], axis=1)
        )
        d_small = np.sort(
            np.linalg.norm(
                pos[small.idx[0]] + small.shift[0] - pos[0], axis=1
            )
        )
        assert np.allclose(d_small, d_full[: k_real - 2])

    def test_symmetry_of_neighborhood(self):
        """If j is a (kept) neighbor of i with generous nmax, i is one of j."""
        pos, cell, _ = fcc(3.6, (2, 2, 2))
        table = neighbor_table(pos, cell, 3.0, 40)
        for a in range(len(pos)):
            for k in range(40):
                if table.mask[a, k]:
                    assert a in set(table.idx[table.idx[a, k]][table.mask[table.idx[a, k]]])

    def test_max_neighbor_count(self):
        pos, cell, _ = fcc(3.6, (3, 3, 3))
        assert max_neighbor_count(pos, cell, 3.6 / np.sqrt(2) * 1.05) == 12


def _jittered(pos, frames, scale, seed):
    """The lattice itself plus ``frames - 1`` thermally jittered copies."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=scale, size=(frames - 1,) + pos.shape)
    return np.concatenate([pos[None], pos[None] + noise])


class TestBatchedKernelMatchesOracle:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_all_systems_three_widths(self, system):
        spec = SYSTEMS[system]
        pos, cell, _, _ = spec.build("small")
        frames = _jittered(pos, 5, 0.08, seed=len(system))
        rcut = min(spec.rcut, cell.max_cutoff() * 0.99)
        coord = max(max_neighbor_count(f, cell, rcut) for f in frames)
        n = pos.shape[0]
        # below the coordination number, above it, and above N - 1
        for nmax in (max(1, coord // 2), coord + 2, n + 3):
            got = batch_neighbor_tables(frames, cell, rcut, nmax)
            assert_same_bytes(got, frames, cell, rcut, nmax)

    def test_perfect_fcc_ties_and_signed_zeros(self):
        pos, cell, _ = fcc(3.6, (3, 3, 3))
        for rcut, nmax in ((3.0, 8), (3.0, 16), (4.0, 30)):
            got = batch_neighbor_tables(pos[None], cell, rcut, nmax)
            assert_same_bytes(got, pos[None], cell, rcut, nmax)
        # the lattice has exact ties that the half list orders j > i
        # first (so not by ascending j), and exact zero shift components
        # it signed negative: both are really exercised
        ref = reference_table(pos, cell, 4.0, 30)
        d = np.linalg.norm(pos[ref.idx] + ref.shift - pos[:, None], axis=-1)
        tied = (d[:, 1:] == d[:, :-1]) & ref.mask[:, 1:]
        assert (tied & (ref.idx[:, 1:] < ref.idx[:, :-1])).any()
        zeros = ref.shift[ref.mask] == 0.0
        assert np.signbit(ref.shift[ref.mask][zeros]).any()

    def test_single_frame_view(self):
        pos, cell, _ = fcc(3.6, (2, 2, 2))
        pos = pos + np.random.default_rng(3).normal(scale=0.05, size=pos.shape)
        one = neighbor_table(pos, cell, 3.4, 20)
        ref = reference_table(pos, cell, 3.4, 20)
        assert np.array_equal(one.idx, ref.idx)
        assert np.array_equal(one.shift.view(np.int64), ref.shift.view(np.int64))
        assert np.array_equal(one.mask, ref.mask)

    def test_batch_crossing_chunk_boundary(self, monkeypatch):
        pos, cell, _ = fcc(3.6, (2, 2, 2))
        frames = _jittered(pos, 9, 0.05, seed=7)
        n = pos.shape[0]
        # three frames per dense chunk: 9 frames take three chunks
        monkeypatch.setattr(neighbor_mod, "DENSE_PAIRS_MAX", 3 * n * (n - 1) + 1)
        got = batch_neighbor_tables(frames, cell, 3.4, 20)
        assert_same_bytes(got, frames, cell, 3.4, 20)
        # and at the module's own bound
        monkeypatch.undo()
        per_chunk = neighbor_mod.DENSE_PAIRS_MAX // (n * (n - 1))
        frames = _jittered(pos, per_chunk + 3, 0.05, seed=8)
        got = batch_neighbor_tables(frames, cell, 3.4, 20)
        assert_same_bytes(got, frames, cell, 3.4, 20)

    def test_one_atom(self):
        frames = np.zeros((2, 1, 3))
        frames[1, 0] = (1.0, 2.0, 3.0)
        cell = Cell([5.0] * 3)
        got = batch_neighbor_tables(frames, cell, 2.0, 4)
        assert_same_bytes(got, frames, cell, 2.0, 4)
        assert not got.mask.any() and np.all(got.idx == 0)

    def test_cell_list_regime(self):
        rng = np.random.default_rng(11)
        pos, cell = rng.uniform(0, 24.0, size=(300, 3)), Cell([24.0] * 3)
        frames = _jittered(pos, 2, 0.05, seed=12)
        for nmax in (4, 30):
            got = batch_neighbor_tables(frames, cell, 3.5, nmax)
            assert_same_bytes(got, frames, cell, 3.5, nmax)

    def test_stacked_type_is_data_export(self):
        pos, cell, _ = fcc(3.6, (2, 2, 2))
        got = batch_neighbor_tables(pos[None], cell, 3.0, 16)
        assert isinstance(got, NeighborArrays)
        assert got.rcut == 3.0 and got.nmax == 16
        one = got.frame(0)
        restacked = NeighborArrays.stack([one, one], got.rcut)
        assert np.array_equal(restacked.take([1]).shift, got.shift)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            batch_neighbor_tables(np.zeros((4, 3)), Cell([5.0] * 3), 2.0, 4)
