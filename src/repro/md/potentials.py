"""Classical interatomic potentials with analytic forces.

These play the role of the paper's ab-initio (PWmat DFT) labeler: they
produce smooth, mutually consistent energy/force labels for the eight bulk
systems of Table 3.  Every potential implements::

    energy_forces(positions, cell) -> (energy: float, forces: (N, 3))

and the test suite verifies forces against central differences of the
energy for each one.

Provided potentials:

* :class:`LennardJones`, :class:`Morse` -- metals (Cu, Al, Mg analogs);
* :class:`Buckingham` + :class:`WolfCoulomb` -- ionic oxides and halides
  (NaCl, CuO, HfO2 analogs);
* :class:`StillingerWeber` -- covalent Si with an explicit 3-body term;
* :class:`FlexibleWater` -- intramolecular harmonic bonds/angles plus
  O-O Lennard-Jones and Wolf-summed Coulomb between molecules;
* :class:`Composite` -- sums any of the above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .cell import Cell
from .neighbor import PairList, pair_list

TypePair = tuple[int, int]


def _canon(t1: int, t2: int) -> TypePair:
    return (t1, t2) if t1 <= t2 else (t2, t1)


class Potential:
    """Base class: accumulate pairwise/many-body energies and forces."""

    def energy_forces(self, positions: np.ndarray, cell: Cell) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def energy(self, positions: np.ndarray, cell: Cell) -> float:
        return self.energy_forces(positions, cell)[0]

    def forces(self, positions: np.ndarray, cell: Cell) -> np.ndarray:
        return self.energy_forces(positions, cell)[1]


# ---------------------------------------------------------------------------
# generic pair potential machinery
# ---------------------------------------------------------------------------
class PairPotential(Potential):
    """Shared machinery for potentials of the form sum_{i<j} phi_{titj}(r).

    Subclasses provide per-type-pair ``(phi, dphi)`` callables via
    ``_phi_dphi``.  Energies are shifted so phi(rcut) = 0 (continuous
    energy across the cutoff; forces keep their analytic form).
    """

    def __init__(self, species: np.ndarray, rcut: float):
        self.species = np.asarray(species, dtype=np.int64)
        self.rcut = float(rcut)

    def _phi_dphi(self, pair: TypePair, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def energy_forces(self, positions: np.ndarray, cell: Cell) -> tuple[float, np.ndarray]:
        n = positions.shape[0]
        pl = pair_list(positions, cell, self.rcut)
        forces = np.zeros((n, 3))
        energy = 0.0
        if len(pl) == 0:
            return energy, forces
        t1 = self.species[pl.i]
        t2 = self.species[pl.j]
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        # the set's iteration order is the energy's summation order: keep
        # inserting the pairs in pair-list order
        for pair in set(zip(lo.tolist(), hi.tolist())):
            sel = (lo == pair[0]) & (hi == pair[1])
            r = pl.r[sel]
            phi, dphi = self._phi_dphi(pair, r)
            phi_cut, _ = self._phi_dphi(pair, np.array([self.rcut]))
            energy += float(np.sum(phi - phi_cut[0]))
            # force on j along +rij is -dphi * unit(rij)
            fvec = (-dphi / r)[:, None] * pl.rij[sel]
            np.add.at(forces, pl.j[sel], fvec)
            np.add.at(forces, pl.i[sel], -fvec)
        return energy, forces


class LennardJones(PairPotential):
    """12-6 Lennard-Jones with per-type-pair (epsilon, sigma)."""

    def __init__(
        self,
        species: np.ndarray,
        params: Mapping[TypePair, tuple[float, float]],
        rcut: float,
    ):
        super().__init__(species, rcut)
        self.params = {_canon(*k): tuple(map(float, v)) for k, v in params.items()}

    def _phi_dphi(self, pair, r):
        eps, sigma = self.params[pair]
        sr6 = (sigma / r) ** 6
        sr12 = sr6 * sr6
        phi = 4.0 * eps * (sr12 - sr6)
        dphi = 4.0 * eps * (-12.0 * sr12 + 6.0 * sr6) / r
        return phi, dphi


class Morse(PairPotential):
    """Morse potential D(1 - exp(-a(r - r0)))^2 - D per type pair."""

    def __init__(
        self,
        species: np.ndarray,
        params: Mapping[TypePair, tuple[float, float, float]],
        rcut: float,
    ):
        super().__init__(species, rcut)
        self.params = {_canon(*k): tuple(map(float, v)) for k, v in params.items()}

    def _phi_dphi(self, pair, r):
        d, a, r0 = self.params[pair]
        e = np.exp(-a * (r - r0))
        phi = d * (1.0 - e) ** 2 - d
        dphi = 2.0 * d * a * e * (1.0 - e)
        return phi, dphi


class Buckingham(PairPotential):
    """Buckingham A exp(-r/rho) - C/r^6 per type pair (ionic short range)."""

    def __init__(
        self,
        species: np.ndarray,
        params: Mapping[TypePair, tuple[float, float, float]],
        rcut: float,
    ):
        super().__init__(species, rcut)
        self.params = {_canon(*k): tuple(map(float, v)) for k, v in params.items()}

    def _phi_dphi(self, pair, r):
        a, rho, c = self.params[pair]
        e = a * np.exp(-r / rho)
        phi = e - c / r**6
        dphi = -e / rho + 6.0 * c / r**7
        return phi, dphi


#: Coulomb constant in eV * Angstrom / e^2.
COULOMB_K = 14.399645351950543


class WolfCoulomb(Potential):
    """Wolf-summed damped-shifted Coulomb interaction.

    E = k q_i q_j [erfc(alpha r)/r - erfc(alpha Rc)/Rc] for r < Rc.
    A practical PME substitute for small periodic ionic systems; energies
    are continuous at the cutoff and forces are analytic.
    """

    def __init__(
        self,
        charges: np.ndarray,
        alpha: float = 0.25,
        rcut: float = 8.0,
        exclude: set[TypePair] | None = None,
    ):
        self.charges = np.asarray(charges, dtype=np.float64)
        self.alpha = float(alpha)
        self.rcut = float(rcut)
        #: pairs of *atom indices* (i < j) excluded (e.g. intramolecular)
        self.exclude = exclude or set()
        # resolved here, not at import: only a process that labels ionic
        # systems pays for scipy
        from scipy.special import erfc

        self._erfc = erfc

    def energy_forces(self, positions: np.ndarray, cell: Cell) -> tuple[float, np.ndarray]:
        n = positions.shape[0]
        pl = pair_list(positions, cell, self.rcut)
        forces = np.zeros((n, 3))
        if len(pl) == 0:
            return 0.0, forces
        if self.exclude:
            keep = np.array(
                [(int(a), int(b)) not in self.exclude for a, b in zip(pl.i, pl.j)]
            )
            pl = PairList(pl.i[keep], pl.j[keep], pl.rij[keep], pl.r[keep])
        qq = COULOMB_K * self.charges[pl.i] * self.charges[pl.j]
        a, r, rc, erfc = self.alpha, pl.r, self.rcut, self._erfc
        shift = erfc(a * rc) / rc
        phi = qq * (erfc(a * r) / r - shift)
        dphi = -qq * (
            erfc(a * r) / r**2 + 2.0 * a / np.sqrt(np.pi) * np.exp(-(a * r) ** 2) / r
        )
        fvec = (-dphi / r)[:, None] * pl.rij
        np.add.at(forces, pl.j, fvec)
        np.add.at(forces, pl.i, -fvec)
        return float(np.sum(phi)), forces


# ---------------------------------------------------------------------------
# Stillinger-Weber (covalent Si)
# ---------------------------------------------------------------------------
@dataclass
class SWParams:
    """Stillinger-Weber parameters; defaults are the original Si set."""

    epsilon: float = 2.1683
    sigma: float = 2.0951
    a: float = 1.80
    lam: float = 21.0
    gamma: float = 1.20
    cos_theta0: float = -1.0 / 3.0
    A: float = 7.049556277
    B: float = 0.6022245584
    p: float = 4.0
    q: float = 0.0

    @property
    def rcut(self) -> float:
        return self.a * self.sigma


class StillingerWeber(Potential):
    """Stillinger-Weber: 2-body bond + 3-body angular term.

    The 3-body force derivation (forces on the two neighbors j, k and the
    reaction on the center i) is checked numerically in the tests.
    """

    def __init__(self, params: SWParams | None = None):
        self.p = params or SWParams()

    # -- two-body ----------------------------------------------------------
    def _two_body(self, pl: PairList, forces: np.ndarray) -> float:
        p = self.p
        rc = p.rcut
        mask = pl.r < rc
        r = pl.r[mask]
        if r.size == 0:
            return 0.0
        sr = p.sigma / r
        expo = np.exp(p.sigma / (r - rc))
        poly = p.B * sr**p.p - sr**p.q
        phi = p.A * p.epsilon * poly * expo
        dpoly = (-p.p * p.B * sr**p.p + p.q * sr**p.q) / r
        dexpo = -p.sigma / (r - rc) ** 2 * expo
        dphi = p.A * p.epsilon * (dpoly * expo + poly * dexpo)
        fvec = (-dphi / r)[:, None] * pl.rij[mask]
        np.add.at(forces, pl.j[mask], fvec)
        np.add.at(forces, pl.i[mask], -fvec)
        return float(np.sum(phi))

    # -- three-body ---------------------------------------------------------
    def _triplets(self, pl: PairList, n: int):
        """(center, u, v) arrays: for each atom, all neighbor pairs (j<k)
        with both bonds inside the 3-body cutoff."""
        src = np.concatenate([pl.i, pl.j])
        dst = np.concatenate([pl.j, pl.i])
        vec = np.concatenate([pl.rij, -pl.rij])
        r = np.concatenate([pl.r, pl.r])
        keep = r < self.p.rcut
        src, dst, vec, r = src[keep], dst[keep], vec[keep], r[keep]
        order = np.argsort(src, kind="stable")
        src, dst, vec, r = src[order], dst[order], vec[order], r[order]
        starts = np.searchsorted(src, np.arange(n + 1))
        centers, j_idx, k_idx, uvec, vvec, ru, rv = [], [], [], [], [], [], []
        for atom in range(n):
            lo, hi = starts[atom], starts[atom + 1]
            m = hi - lo
            if m < 2:
                continue
            jj, kk = np.triu_indices(m, k=1)
            centers.append(np.full(jj.size, atom))
            j_idx.append(dst[lo + jj])
            k_idx.append(dst[lo + kk])
            uvec.append(vec[lo + jj])
            vvec.append(vec[lo + kk])
            ru.append(r[lo + jj])
            rv.append(r[lo + kk])
        if not centers:
            z = np.zeros(0, dtype=np.int64)
            return z, z, z, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), np.zeros(0)
        return (
            np.concatenate(centers),
            np.concatenate(j_idx),
            np.concatenate(k_idx),
            np.concatenate(uvec),
            np.concatenate(vvec),
            np.concatenate(ru),
            np.concatenate(rv),
        )

    def _three_body(self, pl: PairList, n: int, forces: np.ndarray) -> float:
        p = self.p
        rc = p.rcut
        ci, ji, ki, u, v, ru, rv = self._triplets(pl, n)
        if ru.size == 0:
            return 0.0
        gs = p.gamma * p.sigma
        gu = np.exp(gs / (ru - rc))
        gv = np.exp(gs / (rv - rc))
        cos = np.sum(u * v, axis=1) / (ru * rv)
        dcos = cos - p.cos_theta0
        pref = p.lam * p.epsilon
        e = pref * dcos**2 * gu * gv

        # d/d(cos) and radial derivatives
        de_dcos = 2.0 * pref * dcos * gu * gv
        dgu = -gs / (ru - rc) ** 2 * gu
        dgv = -gs / (rv - rc) ** 2 * gv
        de_dru = pref * dcos**2 * dgu * gv
        de_drv = pref * dcos**2 * gu * dgv

        uhat = u / ru[:, None]
        vhat = v / rv[:, None]
        # dcos/du = v/(ru rv) - cos * uhat / ru  (and symmetrically for v)
        dcos_du = v / (ru * rv)[:, None] - (cos / ru)[:, None] * uhat
        dcos_dv = u / (ru * rv)[:, None] - (cos / rv)[:, None] * vhat

        de_du = de_dcos[:, None] * dcos_du + de_dru[:, None] * uhat
        de_dv = de_dcos[:, None] * dcos_dv + de_drv[:, None] * vhat

        np.add.at(forces, ji, -de_du)
        np.add.at(forces, ki, -de_dv)
        np.add.at(forces, ci, de_du + de_dv)
        return float(np.sum(e))

    def energy_forces(self, positions: np.ndarray, cell: Cell) -> tuple[float, np.ndarray]:
        n = positions.shape[0]
        forces = np.zeros((n, 3))
        pl = pair_list(positions, cell, self.p.rcut)
        e2 = self._two_body(pl, forces)
        e3 = self._three_body(pl, n, forces)
        return e2 + e3, forces


# ---------------------------------------------------------------------------
# flexible water
# ---------------------------------------------------------------------------
class FlexibleWater(Potential):
    """Flexible SPC-like water: harmonic OH bonds, harmonic HOH angle
    (in cos(theta)), O-O Lennard-Jones and Wolf Coulomb between molecules."""

    def __init__(
        self,
        species: np.ndarray,
        molecules: np.ndarray,
        k_bond: float = 22.0,
        r0: float = 1.0,
        k_angle: float = 3.5,
        cos_theta0: float = np.cos(np.deg2rad(109.47)),
        lj_eps: float = 0.006736,
        lj_sigma: float = 3.166,
        q_o: float = -0.8476,
        rcut: float = 6.0,
    ):
        self.species = np.asarray(species, dtype=np.int64)
        self.molecules = np.asarray(molecules, dtype=np.int64)
        self.k_bond, self.r0 = float(k_bond), float(r0)
        self.k_angle, self.cos_theta0 = float(k_angle), float(cos_theta0)
        self.rcut = float(rcut)
        charges = np.where(self.species == 0, q_o, -q_o / 2.0)
        exclude: set[TypePair] = set()
        for o, h1, h2 in self.molecules:
            for a, b in ((o, h1), (o, h2), (h1, h2)):
                exclude.add(_canon(int(a), int(b)))
        self._coulomb = WolfCoulomb(charges, alpha=0.3, rcut=rcut, exclude=exclude)
        self._lj = LennardJones(
            self.species, {(0, 0): (lj_eps, lj_sigma)}, rcut=rcut
        )
        # silence LJ for pairs involving H by giving them zero epsilon
        self._lj.params[(0, 1)] = (0.0, 1.0)
        self._lj.params[(1, 1)] = (0.0, 1.0)

    def _intramolecular(self, positions: np.ndarray, cell: Cell, forces: np.ndarray) -> float:
        e = 0.0
        mol = self.molecules
        o, h1, h2 = mol[:, 0], mol[:, 1], mol[:, 2]
        for h in (h1, h2):
            d = cell.minimum_image(positions[h] - positions[o])
            r = np.linalg.norm(d, axis=1)
            e += float(np.sum(self.k_bond * (r - self.r0) ** 2))
            f = (-2.0 * self.k_bond * (r - self.r0) / r)[:, None] * d
            np.add.at(forces, h, f)
            np.add.at(forces, o, -f)
        u = cell.minimum_image(positions[h1] - positions[o])
        v = cell.minimum_image(positions[h2] - positions[o])
        ru = np.linalg.norm(u, axis=1)
        rv = np.linalg.norm(v, axis=1)
        cos = np.sum(u * v, axis=1) / (ru * rv)
        dc = cos - self.cos_theta0
        e += float(np.sum(self.k_angle * dc**2))
        de_dcos = 2.0 * self.k_angle * dc
        uhat = u / ru[:, None]
        vhat = v / rv[:, None]
        dcos_du = v / (ru * rv)[:, None] - (cos / ru)[:, None] * uhat
        dcos_dv = u / (ru * rv)[:, None] - (cos / rv)[:, None] * vhat
        np.add.at(forces, h1, -de_dcos[:, None] * dcos_du)
        np.add.at(forces, h2, -de_dcos[:, None] * dcos_dv)
        np.add.at(forces, o, de_dcos[:, None] * (dcos_du + dcos_dv))
        return e

    def energy_forces(self, positions: np.ndarray, cell: Cell) -> tuple[float, np.ndarray]:
        n = positions.shape[0]
        forces = np.zeros((n, 3))
        e = self._intramolecular(positions, cell, forces)
        e_lj, f_lj = self._lj.energy_forces(positions, cell)
        e_c, f_c = self._coulomb.energy_forces(positions, cell)
        return e + e_lj + e_c, forces + f_lj + f_c


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------
@dataclass
class Composite(Potential):
    """Sum of potentials (e.g. Buckingham + WolfCoulomb for ionic systems)."""

    parts: Sequence[Potential] = field(default_factory=list)

    def energy_forces(self, positions: np.ndarray, cell: Cell) -> tuple[float, np.ndarray]:
        energy = 0.0
        forces = np.zeros_like(positions)
        for part in self.parts:
            e, f = part.energy_forces(positions, cell)
            energy += e
            forces += f
        return energy, forces
