"""The eight canonical systems: builds, label consistency, Table 3 rows."""

import hashlib

import numpy as np
import pytest

from repro.data import SYSTEMS, generate_dataset, table3_rows
from repro.md import neighbor as neighbor_mod
from repro.md import potentials as potentials_mod


class TestRegistry:
    def test_all_eight_present(self):
        assert set(SYSTEMS) == {"Cu", "Al", "Si", "NaCl", "Mg", "H2O", "CuO", "HfO2"}

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_build_paper_size(self, name):
        spec = SYSTEMS[name]
        pos, cell, sp, pot = spec.build("paper")
        assert pos.shape[1] == 3
        assert len(sp) == len(pos)
        assert sp.max() + 1 == len(spec.elements)
        e, f = pot.energy_forces(pos, cell)
        assert np.isfinite(e)
        assert f.shape == pos.shape

    def test_paper_atom_counts_near_table3(self):
        # Mg: paper uses 36; our orthorhombic hcp cell needs (3,2,2)=48
        # atoms to keep the first shell inside the minimum-image radius
        targets = {"Cu": 108, "Al": 32, "Si": 72, "NaCl": 64, "Mg": 48,
                   "H2O": 48, "CuO": 64, "HfO2": 98}
        for name, n_paper in targets.items():
            pos, _, _, _ = SYSTEMS[name].build("paper")
            assert abs(len(pos) - n_paper) <= 8, name

    @pytest.mark.parametrize("name", ["Cu", "NaCl", "H2O"])
    def test_build_small_and_tiny(self, name):
        for size in ("small", "tiny"):
            pos, cell, sp, pot = SYSTEMS[name].build(size)
            assert len(pos) > 0
            assert np.isfinite(pot.energy(pos, cell))

    def test_masses_lookup(self):
        spec = SYSTEMS["NaCl"]
        _, _, sp, _ = spec.build("tiny")
        m = spec.masses(sp)
        assert np.all(m[sp == 0] == pytest.approx(22.990))
        assert np.all(m[sp == 1] == pytest.approx(35.453))

    def test_unknown_system_raises(self):
        with pytest.raises(KeyError):
            generate_dataset("Unobtainium", 1)


class TestGeneratedData:
    @pytest.mark.parametrize("name", ["Al", "Mg"])
    def test_generate_dataset_labels_consistent(self, name):
        ds = generate_dataset(name, frames_per_temperature=2, size="small",
                              equilibration_steps=5, stride=2)
        spec = SYSTEMS[name]
        _, cell, _, pot = spec.build("small")
        for t in range(ds.n_frames):
            e, f = pot.energy_forces(ds.positions[t], cell)
            assert ds.energies[t] == pytest.approx(e)
            assert np.allclose(ds.forces[t], f)

    def test_frame_count_scales_with_temperatures(self):
        ds = generate_dataset("Al", frames_per_temperature=3, size="tiny",
                              equilibration_steps=3, stride=1)
        assert ds.n_frames == 3 * len(SYSTEMS["Al"].temperatures)

    def test_temperature_metadata(self):
        ds = generate_dataset("Cu", frames_per_temperature=2, size="tiny",
                              equilibration_steps=3, stride=1)
        assert set(ds.temperatures.tolist()) == set(SYSTEMS["Cu"].temperatures)

    def test_seed_reproducibility(self):
        kw = dict(frames_per_temperature=2, size="tiny", equilibration_steps=3, stride=1)
        a = generate_dataset("Mg", seed=7, **kw)
        b = generate_dataset("Mg", seed=7, **kw)
        assert np.array_equal(a.positions, b.positions)

    def test_table3_rows_complete(self):
        rows = table3_rows("paper")
        assert len(rows) == 8
        assert all({"system", "temperatures_K", "time_step_fs", "atom_number"} <= set(r) for r in rows)


# the labeling path before its two setup speed-ups, kept as the oracle
def _oracle_pair_list_bruteforce(positions, cell, rcut):
    n = positions.shape[0]
    dr = cell.minimum_image(positions[None, :, :] - positions[:, None, :])
    r2 = np.sum(dr * dr, axis=-1)
    iu, ju = np.triu_indices(n, k=1)
    mask = r2[iu, ju] < rcut * rcut
    i, j = iu[mask], ju[mask]
    return neighbor_mod.PairList(i=i, j=j, rij=dr[i, j], r=np.sqrt(r2[i, j]))


def _oracle_pair_energy_forces(self, positions, cell):
    n = positions.shape[0]
    pl = neighbor_mod.pair_list(positions, cell, self.rcut)
    forces = np.zeros((n, 3))
    energy = 0.0
    if len(pl) == 0:
        return energy, forces
    t1, t2 = self.species[pl.i], self.species[pl.j]
    lo, hi = np.minimum(t1, t2), np.maximum(t1, t2)
    for pair in {(int(a), int(b)) for a, b in zip(lo, hi)}:
        sel = (lo == pair[0]) & (hi == pair[1])
        r = pl.r[sel]
        phi, dphi = self._phi_dphi(pair, r)
        phi_cut, _ = self._phi_dphi(pair, np.array([self.rcut]))
        energy += float(np.sum(phi - phi_cut[0]))
        fvec = (-dphi / r)[:, None] * pl.rij[sel]
        np.add.at(forces, pl.j[sel], fvec)
        np.add.at(forces, pl.i[sel], -fvec)
    return energy, forces


def _label_digests(name):
    ds = generate_dataset(name, frames_per_temperature=2, size="small",
                          equilibration_steps=4, stride=2)
    return [hashlib.sha256(a.tobytes()).hexdigest()
            for a in (ds.positions, ds.energies, ds.forces)]


class TestLabelingBytes:
    """The cached triangle indices and the list-built type-pair set leave
    every trajectory and label byte-identical."""

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_labels_match_the_oracle(self, monkeypatch, name):
        fast = _label_digests(name)
        monkeypatch.setattr(neighbor_mod, "pair_list_bruteforce", _oracle_pair_list_bruteforce)
        monkeypatch.setattr(potentials_mod.PairPotential, "energy_forces",
                            _oracle_pair_energy_forces)
        assert _label_digests(name) == fast

    def test_cached_triangle_is_read_only(self):
        iu, ju = neighbor_mod._triu_pairs(5)
        assert neighbor_mod._triu_pairs(5)[0] is iu
        assert not iu.flags.writeable and not ju.flags.writeable
        with pytest.raises(ValueError):
            iu[0] = 1
