"""Two-site marginals read off the support, Werner parameters and their edge averages.

A rotationally invariant two-qubit state is a Werner state
rho(p) = p |s><s| + (1 - p)/4 I with -1/3 <= p <= 1, entangled iff p > 1/3.
In the reduced basis s_a + 2 s_b of an edge (a, b) the directed singlet is
|s> = (|01> - |10>)/sqrt(2) = (0, -1, 1, 0)/sqrt(2). The parameter is read
from the singlet fraction F = <s|rho|s> as p = (4F - 1)/3, and a residual
records how far rho is from the exact Werner form at that p.
"""

from dataclasses import dataclass

import numpy as np

from .state import support_bits

WERNER_TOL = 1e-8


@dataclass(frozen=True)
class WernerFit:
    p: float
    residual: float
    werner_ok: bool  # residual within WERNER_TOL


@dataclass(frozen=True)
class EdgeAggregates:
    p_r: float
    p_s: float
    p_avg: object  # float, or None when no site has degree 3


def _edge_marginals(edges, psi):
    """(rho00, rho11, rho22, rho33, rho12) of every edge's marginal, each an array over edges.

    The marginal of edge (a, b) is read off the support, the nonzero
    amplitudes, in the reduced basis s_a + 2 s_b. The state must be
    normalized, its norm (from the support weights) within 1e-10 of 1 as
    `ggm` asks, and lie in one S_z sector, as every dimer covering does
    (S_z = 0), else ValueError.
    Then the ten entries that change the pair's S_z are exactly zero, and
    rho21 = conj(rho12): these six entries are the whole marginal.

    The diagonal holds the pattern weights P_ij[a, b], the sum of |psi(x)|^2
    over the support indices x with x_a = i and x_b = j, each its own
    weighted sum over the (n, s) bit table of `support_bits` (P10 is P01
    transposed). The coherence rho12 pairs each x with x_a = 1 with its
    partner x ^ 2^a ^ 2^b.
    """
    support, amps, table = support_bits(psi)
    bits = table.astype(np.float64)
    down = bits.sum(axis=0)
    if down.size and down.min() != down.max():
        raise ValueError("state mixes S_z sectors: its two-site marginals are not S_z blocks")
    weight = (amps * amps.conj()).real
    if abs(np.sqrt(weight.sum()) - 1.0) > 1e-10:
        raise ValueError("state is not normalized")
    weighted = bits * weight
    p11 = weighted @ bits.T
    np.subtract(weight, weighted, out=weighted)  # exact: weight where x = 0, else 0
    p01 = weighted @ bits.T
    np.subtract(1.0, bits, out=bits)
    p00 = weighted @ bits.T
    down_at = {}  # A site a -> the support indices x with x_a = 1, and their amplitudes
    for site in {e.a for e in edges}:
        rows = np.flatnonzero(table[site])
        down_at[site] = support[rows], amps[rows]
    coherence = []
    for e in edges:
        # where x_b = 1 too, x ^ flip leaves the sector and reads 0
        x, amp = down_at[e.a]
        coherence.append(np.vdot(psi[x ^ ((1 << e.a) | (1 << e.b))], amp))
    a = np.array([e.a for e in edges], dtype=np.intp)
    b = np.array([e.b for e in edges], dtype=np.intp)
    return p00[a, b], p01[b, a], p01[a, b], p11[a, b], np.array(coherence)


def edge_werner_parameters(lattice, state):
    """Werner fit for every edge.

    Returns (fits, aggregates): fits maps Edge -> WernerFit; the aggregates are
    p_r = mean over rails, p_s = mean over steps, and the
    regional p_avg = mean over degree-3 sites of the mean p of each one's
    three edges, taken in edge order. Degree-2 corners of open ladders are
    skipped; p_avg is None when no site has degree 3 (the open m = 2 ladder).

    p and the residual come in closed form from the six nonzero entries of
    each marginal (`_edge_marginals`): F = (rho11 + rho22)/2 - Re rho12, so
    p = (2 (rho11 + rho22) - 4 Re rho12 - 1)/3. The Werner model at p has
    (1 - p)/4 at rho00 and rho33, (1 + p)/4 at rho11 and rho22, -p/2 at
    rho12 and rho21, and zero at the other ten entries, where the marginal
    is zero too; so the largest of the five distances below is the largest
    entrywise distance over all 16 entries.
    """
    psi = np.asarray(state)
    if psi.size != 1 << lattice.n:
        raise ValueError(f"state has {psi.size} amplitudes, the {lattice.n}-site lattice "
                         f"m={lattice.m} {lattice.boundary} needs {1 << lattice.n}")
    edges = lattice.edges
    r00, r11, r22, r33, c = _edge_marginals(edges, psi)
    p = (2.0 * (r11 + r22) - 4.0 * c.real - 1.0) / 3.0
    mixed, singlet = (1.0 - p) / 4.0, (1.0 + p) / 4.0
    residual = np.max([np.abs(r00 - mixed), np.abs(r33 - mixed), np.abs(r11 - singlet),
                       np.abs(r22 - singlet), np.abs(c + p / 2.0)], axis=0)
    fits = {e: WernerFit(p=pe, residual=re, werner_ok=re <= WERNER_TOL)
            for e, pe, re in zip(edges, p.tolist(), residual.tolist())}

    kinds = np.array([e.kind for e in edges])
    incident = [[] for _ in lattice.sites]
    for i, e in enumerate(edges):
        incident[e.a].append(i)
        incident[e.b].append(i)
    triples = [ids for ids in incident if len(ids) == 3]
    p_avg = sum(np.mean(p[triples], axis=1).tolist()) / len(triples) if triples else None
    return fits, EdgeAggregates(p_r=float(np.mean(p[kinds == "rail"])),
                                p_s=float(np.mean(p[kinds == "step"])), p_avg=p_avg)
