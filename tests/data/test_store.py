"""npz persistence round-trips (write_npz/read_npz)."""

import numpy as np

from repro.data import read_npz, write_npz


class TestRoundtrip:
    def test_basic_roundtrip(self, cu_dataset, tmp_path):
        path = str(tmp_path / "cu.npz")
        write_npz(cu_dataset, path)
        back = read_npz(path)
        assert back.name == cu_dataset.name
        assert np.array_equal(back.positions, cu_dataset.positions)
        assert np.array_equal(back.energies, cu_dataset.energies)
        assert np.array_equal(back.forces, cu_dataset.forces)
        assert np.array_equal(back.species, cu_dataset.species)
        assert np.array_equal(back.cell.lengths, cu_dataset.cell.lengths)
        assert np.array_equal(back.temperatures, cu_dataset.temperatures)

    def test_neighbors_roundtrip(self, cu_dataset, tmp_path):
        cu_dataset.ensure_neighbors(3.2, 10)
        path = str(tmp_path / "cu_nb.npz")
        write_npz(cu_dataset, path)
        back = read_npz(path)
        assert back.cached_neighbors is not None
        assert np.array_equal(
            back.cached_neighbors.idx, cu_dataset.cached_neighbors.idx
        )
        assert back.cached_neighbors.rcut == 3.2

    def test_no_neighbors_loads_none(self, cu_dataset, tmp_path):
        ds = cu_dataset.subset(np.arange(3))
        ds.cached_neighbors = None
        path = str(tmp_path / "plain.npz")
        write_npz(ds, path)
        assert read_npz(path).cached_neighbors is None

    def test_creates_directories(self, cu_dataset, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "cu.npz")
        write_npz(cu_dataset.subset(np.arange(2)), path)
        assert read_npz(path).n_frames == 2
