"""Shared fixtures: tiny datasets and models reused across the suite."""

from __future__ import annotations

import mmap

import numpy as np
import pytest

from repro.autograd import Tensor, grad, ops
from repro.data import generate_dataset
from repro.model import DeePMD, DeePMDConfig, EnergyForces, make_batch


@pytest.fixture(scope="session")
def cu_dataset():
    """A small Cu dataset (32 atoms, 18 frames) for training-path tests."""
    return generate_dataset(
        "Cu", frames_per_temperature=6, size="small", equilibration_steps=10, stride=2
    )


@pytest.fixture(scope="session")
def tiny_cfg():
    """A minimal network that keeps gradcheck-heavy tests fast."""
    return DeePMDConfig(
        embedding_widths=(6, 6, 6),
        m_less=4,
        fitting_widths=(8, 8, 8),
        rcut=3.4,
        rcut_smooth=2.0,
        nmax=12,
    )


@pytest.fixture(scope="session")
def small_cfg():
    return DeePMDConfig.scaled_down(rcut=3.5, nmax=16)


@pytest.fixture()
def cu_model(cu_dataset, small_cfg):
    return DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)


@pytest.fixture()
def cu_batch(cu_dataset, small_cfg):
    return make_batch(cu_dataset, np.arange(3), small_cfg)


@pytest.fixture(scope="session")
def graph_predict():
    """``graph_predict(model, batch)``: energies and forces by ``grad``
    through ``model.energy_graph`` -- the oracle of the graph-free
    ``predict``, and the only forces of the Figure 7 baseline's graph."""

    def run(model, batch):
        coords = Tensor(batch.coords, requires_grad=True)
        e = model.energy_graph(coords, batch)
        (gc,) = grad(ops.tsum(e), [coords])
        return EnergyForces(energy=e.data, forces=-gc.data)

    return run


@pytest.fixture(scope="session")
def nacl_dataset():
    """A two-species dataset (NaCl) for multi-element paths."""
    return generate_dataset(
        "NaCl", frames_per_temperature=4, size="small", equilibration_steps=8, stride=2
    )


@pytest.fixture(scope="session")
def resident_bytes():
    """``resident_bytes(a)``: bytes of ``a``'s pages that hold memory
    of their own -- present and mapped once, per ``/proc/self/pagemap``
    (bits 63 and 56).  A page only read is the shared zero page, present
    but not exclusive, so it does not count (``mincore`` would count it);
    and unlike ``smaps``' ``Anonymous:``, which is per mapping, this is
    exact for one array even when the kernel merges two adjacent
    mappings with the same flags into one entry."""
    try:
        with open("/proc/self/pagemap", "rb") as f:
            f.read(8)
    except OSError:
        pytest.skip("needs Linux /proc/self/pagemap")

    page = mmap.PAGESIZE

    def measure(a: np.ndarray) -> int:
        lo, hi = a.ctypes.data // page, -(-(a.ctypes.data + a.nbytes) // page)
        with open("/proc/self/pagemap", "rb") as f:
            f.seek(lo * 8)
            entries = np.frombuffer(f.read((hi - lo) * 8), dtype=np.uint64)
        own = (entries >> np.uint64(63)) & (entries >> np.uint64(56)) & np.uint64(1)
        return int(own.sum()) * page

    return measure
