"""Two-site marginals read off the support, Werner fits and their edge averages.

A rotationally invariant two-qubit state is a Werner state
rho(p) = p |s><s| + (1 - p)/4 I with -1/3 <= p <= 1, entangled iff p > 1/3.
The parameter is extracted from the singlet fraction F = <s|rho|s> as
p = (4F - 1)/3, and a residual records how far rho is from the exact
Werner form at that p.
"""

from dataclasses import dataclass

import numpy as np

from .state import INV_SQRT2, site_count

WERNER_TOL = 1e-8

# reduced basis: index = s_a + 2 s_b, a first (least significant)
_SINGLET = np.array([0.0, -INV_SQRT2, INV_SQRT2, 0.0])
_SINGLET_PROJECTOR = np.outer(_SINGLET, _SINGLET)
_IDENTITY = np.eye(4)


@dataclass(frozen=True)
class WernerFit:
    p: float
    residual: float
    werner_ok: bool = True  # residual within WERNER_TOL


def werner_parameter(rho):
    """Werner parameter of a two-site marginal.

    `rho` is the reduced density matrix of the edge's A site a and B site b,
    with the A site the least significant reduced index; the directed
    singlet of that orientation defines the singlet fraction.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rho.shape}")
    F = float(np.real(_SINGLET @ rho @ _SINGLET))
    p = (4.0 * F - 1.0) / 3.0
    model = p * _SINGLET_PROJECTOR + (1.0 - p) / 4.0 * _IDENTITY
    residual = float(np.max(np.abs(rho - model)))
    return WernerFit(p=p, residual=residual, werner_ok=residual <= WERNER_TOL)


@dataclass(frozen=True)
class EdgeAggregates:
    p_r: float
    p_s: float
    p_avg: object  # float, or None when no site has degree 3


def _pattern_weights(support, weight, n):
    """(P00, P01, P11) of the support, each an (n, n) matrix.

    P_ij[a, b] is the sum of the weights |psi(x)|^2 over the support indices
    x with x_a = i and x_b = j; P10 is P01 transposed. Each entry is its own
    weighted sum over the (n, s) bit table of the support. Raises ValueError
    when the support spans more than one S_z sector.
    """
    bits = ((support >> np.arange(n)[:, None]) & 1).astype(np.float64)  # (n, s)
    down = bits.sum(axis=0)
    if down.size and down.min() != down.max():
        raise ValueError("state mixes S_z sectors: its two-site marginals are not S_z blocks")
    weighted = bits * weight
    p11 = weighted @ bits.T
    np.subtract(weight, weighted, out=weighted)  # exact: weight where x = 0, else 0
    p01 = weighted @ bits.T
    np.subtract(1.0, bits, out=bits)
    return weighted @ bits.T, p01, p11


def edge_werner_parameters(lattice, state):
    """Werner fit for every edge.

    Returns (fits, aggregates): fits maps Edge -> WernerFit; the aggregates are
    p_r = mean over rails, p_s = mean over steps, and the
    regional p_avg = mean over degree-3 sites of the mean p of each one's
    three edges, taken in edge order. Degree-2 corners of open ladders are
    skipped; p_avg is None when no site has degree 3 (the open m = 2 ladder).

    Each marginal is read off the support, the nonzero amplitudes. The state
    must lie in one S_z sector, as every dimer covering does (S_z = 0), else
    ValueError. Then the ten entries that change the pair's S_z are exactly
    zero; the others are the four pattern weights on the diagonal and the
    coherence rho[1, 2] = conj(rho[2, 1]). The whole 4 x 4 matrix goes to
    `werner_parameter`, so the residual still covers all 16 entries.
    """
    psi = np.asarray(state)
    n = site_count(psi)
    support = np.flatnonzero(psi)
    amps = psi[support]
    p00, p01, p11 = _pattern_weights(support, (amps * amps.conj()).real, n)
    fits = {}
    for e in lattice.edges:
        a, b = e.a, e.b
        flip = (1 << a) | (1 << b)
        # rows with x_a = 1; where x_b = 1 too, x ^ flip leaves the sector and reads 0
        rows = np.flatnonzero(support & (1 << a))
        coherence = np.vdot(psi[support[rows] ^ flip], amps[rows])
        rho = np.array([[p00[a, b], 0.0, 0.0, 0.0],
                        [0.0, p01[b, a], coherence, 0.0],
                        [0.0, coherence.conjugate(), p01[a, b], 0.0],
                        [0.0, 0.0, 0.0, p11[a, b]]])
        fits[e] = werner_parameter(rho)
    rail_ps = [fits[e].p for e in lattice.edges if e.kind == "rail"]
    step_ps = [fits[e].p for e in lattice.edges if e.kind == "step"]
    incident = [[] for _ in lattice.sites]
    for e in lattice.edges:
        incident[e.a].append(fits[e].p)
        incident[e.b].append(fits[e].p)
    regional = [float(np.mean(ps)) for ps in incident if len(ps) == 3]
    p_avg = sum(regional) / len(regional) if regional else None
    return fits, EdgeAggregates(p_r=float(np.mean(rail_ps)), p_s=float(np.mean(step_ps)),
                                p_avg=p_avg)
