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


def _werner_fits(rho):
    """(p, residual) of a stack of two-site marginals, `rho` of shape (..., 4, 4).

    p = (4F - 1)/3 from the singlet fraction F = <s|rho|s>, and the residual
    is the largest entrywise distance of rho from the Werner state at that p,
    over all 16 entries. F is taken as one (1, 4) @ (4, 1) product per
    matrix, the same product `werner_parameter` takes for a single one.
    """
    row = (_SINGLET @ rho)[..., None, :]
    F = np.real(row @ _SINGLET[:, None])[..., 0, 0]
    p = (4.0 * F - 1.0) / 3.0
    model = (p[..., None, None] * _SINGLET_PROJECTOR
             + ((1.0 - p) / 4.0)[..., None, None] * _IDENTITY)
    return p, np.abs(rho - model).max(axis=(-2, -1))


def _werner_fit(p, residual):
    return WernerFit(p=p, residual=residual, werner_ok=residual <= WERNER_TOL)


def werner_parameter(rho):
    """Werner parameter of a two-site marginal.

    `rho` is the reduced density matrix of the edge's A site a and B site b,
    with the A site the least significant reduced index; the directed
    singlet of that orientation defines the singlet fraction.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rho.shape}")
    p, residual = _werner_fits(rho)
    return _werner_fit(float(p), float(residual))


@dataclass(frozen=True)
class EdgeAggregates:
    p_r: float
    p_s: float
    p_avg: object  # float, or None when no site has degree 3


def _pattern_weights(table, weight):
    """(P00, P01, P11) of the support, each an (n, n) matrix.

    P_ij[a, b] is the sum of the weights |psi(x)|^2 over the support indices
    x with x_a = i and x_b = j; P10 is P01 transposed. Each entry is its own
    weighted sum over the (n, s) bit `table` of the support. Raises ValueError
    when the support spans more than one S_z sector.
    """
    bits = table.astype(np.float64)
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
    coherence rho[1, 2] = conj(rho[2, 1]). The (edges, 4, 4) stack of whole
    marginals is fitted at once, so each residual still covers all 16 entries.
    """
    psi = np.asarray(state)
    n = site_count(psi)
    edges = lattice.edges
    support = np.flatnonzero(psi != 0)
    amps = psi[support]
    # (n, s) uint8 bit table, row k = bit k of each support index, unpacked
    # from the indices' little-endian bytes: no int64 table is built
    octets = support.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    table = np.unpackbits(octets[:, :(n + 7) // 8].T, axis=0, bitorder="little")[:n]
    p00, p01, p11 = _pattern_weights(table, (amps * amps.conj()).real)
    down = {}  # A site a -> the support indices x with x_a = 1, and their amplitudes
    for site in {e.a for e in edges}:
        rows = np.flatnonzero(table[site])
        down[site] = support[rows], amps[rows]
    coherence = []
    for e in edges:
        # where x_b = 1 too, x ^ flip leaves the sector and reads 0
        x, amp = down[e.a]
        coherence.append(np.vdot(psi[x ^ ((1 << e.a) | (1 << e.b))], amp))
    coherence = np.array(coherence)
    a = np.array([e.a for e in edges], dtype=np.intp)
    b = np.array([e.b for e in edges], dtype=np.intp)
    rho = np.zeros((len(edges), 4, 4), dtype=np.result_type(coherence, p00))
    rho[:, 0, 0] = p00[a, b]
    rho[:, 1, 1] = p01[b, a]
    rho[:, 1, 2] = coherence
    rho[:, 2, 1] = coherence.conj()
    rho[:, 2, 2] = p01[a, b]
    rho[:, 3, 3] = p11[a, b]
    p, residual = _werner_fits(rho)
    fits = {e: _werner_fit(pe, re) for e, pe, re in zip(edges, p.tolist(), residual.tolist())}

    kinds = np.array([e.kind for e in edges])
    incident = [[] for _ in lattice.sites]
    for i, e in enumerate(edges):
        incident[e.a].append(i)
        incident[e.b].append(i)
    triples = [ids for ids in incident if len(ids) == 3]
    p_avg = sum(np.mean(p[triples], axis=1).tolist()) / len(triples) if triples else None
    return fits, EdgeAggregates(p_r=float(np.mean(p[kinds == "rail"])),
                                p_s=float(np.mean(p[kinds == "step"])), p_avg=p_avg)
