"""Werner parameters of the edges of a total singlet and their edge averages.

A rotationally invariant two-qubit state is a Werner state
rho(p) = p |s><s| + (1 - p)/4 I with -1/3 <= p <= 1, entangled iff p > 1/3,
|s> the singlet. A total singlet is invariant under U (x) ... (x) U, so each
of its two-site marginals is one (Werner, PRA 40, 4277 (1989)), with
p = -<sigma^z_i sigma^z_j>.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import _shorten
from .state import require_singlet, support_bits


@dataclass(frozen=True)
class WernerFit:
    p: float
    werner_ok = True  # not a field: `require_singlet` guarantees it; only bench/workloads.py
    # reads it, and ROADMAP item 2 deletes it together with that benchmark change


@dataclass(frozen=True)
class EdgeAggregates:
    p_r: object  # float, or None when the lattice has no rail
    p_s: object  # float, or None when it has no step
    p_avg: object  # float, or None when no site has degree 3


def edge_werner_parameters(lattice, state):
    """Werner fit for every distinct bond.

    Returns (fits, aggregates): fits maps Edge -> WernerFit. Parallel bonds
    (the doubled rails of the periodic m = 2 ring) are equal edges and share
    one key, as they share one marginal. The aggregates walk every edge:
    p_r = mean over rails, p_s = mean over steps, and the
    regional p_avg = mean over degree-3 sites of the mean p of each one's
    three edges, i.e. of every edge's p once per degree-3 end. Each mean is
    one correctly rounded sum (`math.fsum`) over its length, so within an
    ulp of the exact mean, and None when empty: no rail, no step, or no
    degree-3 site (the open m = 2 ladder, all degree-2 corners).

    The state must pass `require_singlet`. Then every marginal is within
    state.WERNER_TOL of the Werner state at p = -<sigma^z_a sigma^z_b>.
    """
    psi = np.asarray(state)
    if lattice.n > 62 or psi.size != 1 << lattice.n:  # no array has 2^63 entries
        n = _shorten(lattice.n)
        raise ValueError(f"state has {psi.size} amplitudes, the {n}-site lattice needs 2^{n}")
    require_singlet(psi)
    return _werner_fits(lattice, psi)


def _werner_fits(lattice, psi):
    """`edge_werner_parameters` after its checks. One product of the support's
    signs s = 1 - 2 bits (`support_bits`) and weights w = |psi|^2 gives every
    pair's correlation at once: zz = (s w) s^T."""
    _, amps, bits = support_bits(psi)
    signs = 1.0 - 2.0 * bits
    zz = (signs * (amps * amps.conj()).real) @ signs.T
    edges = lattice.edges
    p = (-zz[[e.a for e in edges], [e.b for e in edges]]).tolist()
    fits = {e: WernerFit(p=pe) for e, pe in zip(edges, p)}

    def mean(ps):
        return math.fsum(ps) / len(ps) if ps else None

    ends = np.array([e.a for e in edges] + [e.b for e in edges], dtype=np.int64)
    deg3 = np.bincount(ends, minlength=lattice.n)[ends] == 3
    p_r, p_s = (mean([pe for e, pe in zip(edges, p) if e.kind == kind])
                for kind in ("rail", "step"))
    p_avg = mean([pe for pe, d in zip(p + p, deg3) if d])
    return fits, EdgeAggregates(p_r=p_r, p_s=p_s, p_avg=p_avg)
