"""Reduced density matrices, Werner parameters and teleportation fidelities.

A rotationally invariant two-qubit state is a Werner state
rho(p) = p |s><s| + (1 - p)/4 I with -1/3 <= p <= 1, entangled iff p > 1/3.
The parameter is extracted from the singlet fraction F = <s|rho|s> as
p = (4F - 1)/3, and a residual records how far rho is from the exact
Werner form at that p.
"""

import math
from dataclasses import dataclass

import numpy as np

from .state import INV_SQRT2, bipartition_matrix

WERNER_TOL = 1e-8
MAX_KEPT_SITES = 12  # memory guard: a 2^12 x 2^12 float64 matrix is 128 MiB


def partial_trace(state, keep):
    """Trace out all sites except `keep` (ordered list of site ids).

    Row/column index of the result uses keep-list order with keep[0] as the
    least significant bit, matching the global basis convention.
    """
    psi = np.asarray(state)
    n = int(math.log2(psi.size))
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate sites in keep: {keep}")
    if any(not 0 <= s < n for s in keep):
        raise ValueError(f"keep sites {keep} out of range for n={n}")
    if len(keep) > MAX_KEPT_SITES:
        raise ValueError(f"refusing to build a reduced matrix above {MAX_KEPT_SITES} sites")

    mat = bipartition_matrix(psi, n, keep)
    return mat @ mat.conj().T


@dataclass(frozen=True)
class WernerFit:
    p: float
    residual: float
    edge_kind: str = ""
    werner_ok: bool = True  # residual within WERNER_TOL


def _singlet_vector():
    # reduced basis: index = s_a + 2 s_b, a first (least significant)
    return np.array([0.0, -INV_SQRT2, INV_SQRT2, 0.0])


def werner_parameter(rho, a_site, b_site, kind=""):
    """Werner parameter of a two-site marginal.

    `rho` must be partial_trace(state, [a_site, b_site]) so that the A-site
    is the least significant reduced index; the directed singlet of that
    orientation defines the singlet fraction.
    """
    if a_site == b_site:
        raise ValueError("need two distinct sites")
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rho.shape}")
    s = _singlet_vector()
    F = float(np.real(s.conj() @ rho @ s))
    p = (4.0 * F - 1.0) / 3.0
    model = p * np.outer(s, s) + (1.0 - p) / 4.0 * np.eye(4)
    residual = float(np.max(np.abs(rho - model)))
    return WernerFit(p=p, residual=residual, edge_kind=kind,
                     werner_ok=residual <= WERNER_TOL)


@dataclass(frozen=True)
class EdgeAggregates:
    p_r: float
    p_s: float
    p_r_min: float
    p_r_max: float
    p_s_min: float
    p_s_max: float


def edge_werner_parameters(lattice, state):
    """Werner fit for every edge (dimer-forbidden wraps included, for the record).

    Returns (fits, aggregates): fits maps Edge -> WernerFit; the aggregates are
    p_r = mean over dimer-allowed rails, p_s = mean over steps, with per-kind
    min/max spread over the same edge sets.
    """
    fits = {}
    for e in lattice.edges:
        rho = partial_trace(state, [e.a, e.b])
        fits[e] = werner_parameter(rho, e.a, e.b, kind=e.kind)
    rail_ps = [fits[e].p for e in lattice.edges if e.kind == "rail" and e.dimer_allowed]
    step_ps = [fits[e].p for e in lattice.edges if e.kind == "step"]
    agg = EdgeAggregates(
        p_r=float(np.mean(rail_ps)), p_s=float(np.mean(step_ps)),
        p_r_min=min(rail_ps), p_r_max=max(rail_ps),
        p_s_min=min(step_ps), p_s_max=max(step_ps),
    )
    return fits, agg


def regional_entanglement(lattice, fits, site):
    """Mean Werner parameter over the three edges meeting at `site`."""
    incident = [e for e in lattice.edges if site in (e.a, e.b)]
    if len(incident) != 3:
        raise ValueError(f"site {site} has degree {len(incident)}, need 3")
    return float(np.mean([fits[e].p for e in incident]))


def teleportation_fidelities(p_r, p_s):
    """Fidelities (F_r, F_s, F_avg) of teleporting through the edge states.

    F = (p + 1)/2 per edge; the average weighs the two rails against one step,
    so F_avg = (p_avg + 1)/2 with p_avg = (2 p_r + p_s)/3.
    """
    F_r = (p_r + 1.0) / 2.0
    F_s = (p_s + 1.0) / 2.0
    F_avg = (2.0 * F_r + F_s) / 3.0
    return F_r, F_s, F_avg
