"""Shared infrastructure for the per-experiment harness modules.

Each experiment module exposes ``run(...) -> Report``; reports render as
aligned text tables (the "same rows the paper reports") and can be
appended to EXPERIMENTS.md.  ``experiment_setup`` standardizes dataset
generation and model configuration across experiments: per-system
descriptor cutoffs (clamped to the minimum-image radius), Nm sized from
the data, scaled-down network by default, paper network on request.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..data.systems import SYSTEMS, generate_dataset
from ..md.neighbor import max_neighbor_count
from ..model.config import DeePMDConfig
from ..model.network import DeePMD
from ..optim.base import make_optimizer
from ..optim.first_order import Adam
from ..optim.kalman import KalmanConfig


@dataclass
class Report:
    """A rendered experiment result: headers + rows + commentary."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    paper_reference: str = ""

    def add_row(self, *values) -> None:
        self.rows.append(list(values))

    def format_table(self) -> str:
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(self.headers)
        ]
        out = io.StringIO()
        out.write(f"== {self.experiment}: {self.title} ==\n")
        if self.paper_reference:
            out.write(f"(paper: {self.paper_reference})\n")
        header = "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for row in cells:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")
        for note in self.notes:
            out.write(f"note: {note}\n")
        return out.getvalue()

    def markdown(self) -> str:
        out = io.StringIO()
        out.write(f"### {self.experiment}: {self.title}\n\n")
        if self.paper_reference:
            out.write(f"*Paper reference: {self.paper_reference}*\n\n")
        out.write("| " + " | ".join(self.headers) + " |\n")
        out.write("|" + "|".join("---" for _ in self.headers) + "|\n")
        for row in self.rows:
            out.write("| " + " | ".join(_fmt(v) for v in row) + " |\n")
        out.write("\n")
        for note in self.notes:
            out.write(f"> {note}\n")
        out.write("\n")
        return out.getvalue()


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 1e-3:
            return f"{v:.3g}"
        return f"{v:.4f}".rstrip("0").rstrip(".")
    return str(v)


# ---------------------------------------------------------------------------
# standardized experiment setup
# ---------------------------------------------------------------------------
DEFAULT_SYSTEMS: tuple[str, ...] = tuple(SYSTEMS)


@dataclass
class ExperimentSetup:
    """Everything a training experiment needs for one system."""

    system: str
    train: Dataset
    test: Dataset
    cfg: DeePMDConfig

    def model(self, seed: int = 1) -> DeePMD:
        return DeePMD.for_dataset(self.train, self.cfg, seed=seed)


def experiment_setup(
    system: str,
    frames_per_temperature: int = 32,
    size: str = "small",
    network: str = "scaled",
    seed: int = 0,
    nmax_cap: int = 26,
) -> ExperimentSetup:
    """Generate data and a matched model config for one Table 3 system."""
    spec = SYSTEMS[system]
    ds = generate_dataset(
        system,
        frames_per_temperature=frames_per_temperature,
        size=size,
        seed=seed,
        equilibration_steps=30,
        stride=4,
    )
    # never clamp the descriptor below the first coordination shell (see
    # repro.data.systems._clamp for the rationale)
    rcut = min(spec.rcut, max(ds.cell.max_cutoff() * 0.99, spec.first_shell * 1.35))
    # size Nm from the actual coordination at this cutoff
    counts = [
        max_neighbor_count(ds.positions[t], ds.cell, rcut)
        for t in np.linspace(0, ds.n_frames - 1, 5).astype(int)
    ]
    nmax = min(max(counts) + 2, nmax_cap)
    if network == "paper":
        cfg = DeePMDConfig.paper(rcut=rcut, nmax=nmax)
    else:
        cfg = DeePMDConfig.scaled_down(rcut=rcut, nmax=nmax)
    train, test = ds.split(0.8, seed=seed)
    return ExperimentSetup(system=system, train=train, test=test, cfg=cfg)


def scaled_adam(
    model: DeePMD,
    steps_per_epoch: int,
    planned_epochs: int,
    batch_scale_lr: bool = True,
) -> Adam:
    """Adam with the paper's protocol, decay horizon scaled to the run.

    The paper decays x0.95 every 5000 steps over ~1M-step runs (~200
    decays); we keep the same decay *ratio* across the planned run length
    so the prefactor schedule traverses the same range.
    """
    total = max(steps_per_epoch * planned_epochs, 1)
    decay_steps = max(total // 200, 10)
    return make_optimizer(
        "adam",
        model,
        lr0=1e-3,
        decay_rate=0.95,
        decay_steps=decay_steps,
        batch_scale_lr=batch_scale_lr,
    )


def fast_kalman(blocksize: int = 2048) -> KalmanConfig:
    """Kalman config used by convergence-focused experiments: a
    blocksize matched to the scaled-down network."""
    return KalmanConfig(blocksize=blocksize)


def parse_systems(arg: Optional[str]) -> Sequence[str]:
    if not arg or arg == "quick":
        return ("Cu",)
    if arg == "all":
        return DEFAULT_SYSTEMS
    names = [s.strip() for s in arg.split(",") if s.strip()]
    for n in names:
        if n not in SYSTEMS:
            raise KeyError(f"unknown system {n!r}")
    return names
