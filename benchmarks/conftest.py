"""Shared fixtures for ``bench_overhead.py``: the Cu dataset and the
scaled-down model config every observed run uses."""

from __future__ import annotations

import pytest

from repro.data import generate_dataset
from repro.model import DeePMDConfig


@pytest.fixture(scope="session")
def cu_data():
    return generate_dataset(
        "Cu", frames_per_temperature=24, size="small",
        equilibration_steps=15, stride=3,
    )


@pytest.fixture(scope="session")
def cfg():
    return DeePMDConfig.scaled_down(rcut=4.0, nmax=18)
