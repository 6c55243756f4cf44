"""repro.md -- classical MD substrate (the "ab initio" labeler substitute).

Provides periodic cells, lattice builders, neighbor search, analytic-force
potentials (pair, Stillinger-Weber, ionic, water, many-body Sutton-Chen
EAM), Langevin/Berendsen/velocity-rescale integrators, RDF/MSD trajectory
analysis, and the sampler used to generate the Table 3 analog datasets.
"""

from .analysis import mean_squared_displacement, radial_distribution, rdf_similarity
from .cell import ACC_CONV, KB, KE_CONV, Cell, kinetic_energy, maxwell_boltzmann_velocities, temperature
from .eam import SuttonChenEAM, SuttonChenParams
from .integrator import LangevinIntegrator, MDState
from .lattice import bcc, diamond, fcc, fluorite, hcp, rocksalt, water_box
from .neighbor import (
    NeighborArrays,
    NeighborTable,
    PairList,
    batch_neighbor_tables,
    max_neighbor_count,
    neighbor_table,
    pair_list,
    pair_list_bruteforce,
    pair_list_cells,
)
from .potentials import (
    Buckingham,
    Composite,
    FlexibleWater,
    LennardJones,
    Morse,
    Potential,
    SWParams,
    StillingerWeber,
    WolfCoulomb,
)
from .sampler import Frame, Trajectory, sample_trajectory
from .thermostats import ThermostattedIntegrator, kinetic_target_ev

__all__ = [
    "Cell",
    "KB",
    "ACC_CONV",
    "KE_CONV",
    "kinetic_energy",
    "temperature",
    "maxwell_boltzmann_velocities",
    "LangevinIntegrator",
    "MDState",
    "fcc",
    "bcc",
    "hcp",
    "diamond",
    "rocksalt",
    "fluorite",
    "water_box",
    "PairList",
    "NeighborTable",
    "NeighborArrays",
    "pair_list",
    "pair_list_bruteforce",
    "pair_list_cells",
    "neighbor_table",
    "batch_neighbor_tables",
    "max_neighbor_count",
    "Potential",
    "LennardJones",
    "Morse",
    "Buckingham",
    "WolfCoulomb",
    "StillingerWeber",
    "SWParams",
    "FlexibleWater",
    "Composite",
    "SuttonChenEAM",
    "SuttonChenParams",
    "radial_distribution",
    "mean_squared_displacement",
    "rdf_similarity",
    "Frame",
    "Trajectory",
    "sample_trajectory",
    "ThermostattedIntegrator",
    "kinetic_target_ev",
]
