"""Entanglement structure of short-range dimer-liquid states on two-leg ladders.

The package builds the equal-weight superposition of nearest-neighbour
singlet coverings of a 2 x M ladder, extracts two-site Werner parameters for
rail and step bonds, and evaluates the derived quantities: teleportation
fidelities, the pairwise-entanglement monogamy inequality, asymmetric-cloning
angle bounds, and the generalized geometric measure of genuine multiparty
entanglement.  `run_sweep` / the `rvb-ladder` CLI tie the pieces together and
emit one CSV per published figure.
"""

from .density import (EdgeAggregates, WernerFit, edge_werner_parameters,
                      partial_trace, regional_entanglement,
                      teleportation_fidelities, werner_parameter)
from .lattice import (Edge, LadderLattice, automorphisms, build_ladder,
                      count_coverings, enumerate_coverings)
from .measures import (CloningBoundRecord, GgmRecord, MonogamyRecord,
                       cloning_theta_sets, ggm, monogamy_check,
                       monogamy_surface_sample, tangle)
from .numerics import PolyFit, poly_fit
from .state import dump_state, rvb_state, total_spin_squared
from .sweep import EntanglementReport, RunConfig, SizeRow, run_sweep

__all__ = [
    "Edge", "LadderLattice", "build_ladder", "enumerate_coverings",
    "count_coverings", "automorphisms",
    "rvb_state", "total_spin_squared",
    "dump_state",
    "partial_trace", "WernerFit", "werner_parameter", "EdgeAggregates",
    "edge_werner_parameters", "regional_entanglement", "teleportation_fidelities",
    "PolyFit", "poly_fit",
    "tangle", "MonogamyRecord", "monogamy_check",
    "monogamy_surface_sample", "CloningBoundRecord", "cloning_theta_sets",
    "GgmRecord", "ggm",
    "RunConfig", "SizeRow", "EntanglementReport", "run_sweep",
]

__version__ = "0.1.0"
