"""Entanglement measures: tangle, monogamy, cloning bounds, and the GGM.

The monogamy constraint between one rail and one step sharing a site is
(3 p_r - 1)^2 / 2 + (3 p_s - 1)^2 / 4 <= 1.

The asymmetric 1 -> 1+2 cloning machine bounds the simultaneously achievable
pair (p_r, p_s) through a machine angle theta in [0, pi/2]:
    S1 = {theta : p_r <= (sin^2 theta + sqrt(2) sin 2theta) / 3}
    S2 = {theta : p_s <= 1 - (4/3) sin^2 theta}
and theta_max = max(S1 intersect S2) when the intersection is nonempty.

The generalized geometric measure of a pure n-site state is
1 - max lambda^2 over all bipartitions, lambda the top Schmidt coefficient.
Site permutations that map the state to +-itself leave lambda unchanged, so
one bipartition per symmetry orbit suffices.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .state import bipartition_matrix, site_count

_P_EPS = 1e-12
MAX_SITES = 16  # largest state the GGM scan and the sweep accept


def tangle(p):
    """Tangle (squared concurrence) of a Werner state, clamped at separability."""
    if not -1.0 / 3.0 - _P_EPS <= p <= 1.0 + _P_EPS:
        raise ValueError(f"Werner parameter {p} outside [-1/3, 1]")
    return max(0.0, (3.0 * p - 1.0) / 2.0) ** 2


def tangle_from_density_matrix(rho):
    """Wootters tangle of an arbitrary two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("density matrix trace is not 1")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    rho_tilde = yy @ rho.conj() @ yy
    eigs = np.linalg.eigvals(rho @ rho_tilde)
    lams = np.sort(np.sqrt(np.clip(eigs.real, 0.0, None)))[::-1]
    c = max(0.0, lams[0] - lams[1] - lams[2] - lams[3])
    return c * c


@dataclass(frozen=True)
class MonogamyRecord:
    p_r: float
    p_s: float
    tangle_rail: float
    tangle_step: float
    lhs: float  # verbatim (3p_r-1)^2/2 + (3p_s-1)^2/4, no clamping
    satisfied: bool  # 2*tangle(p_r) + tangle(p_s) <= 1


def monogamy_check(p_r, p_s):
    lhs = (3.0 * p_r - 1.0) ** 2 / 2.0 + (3.0 * p_s - 1.0) ** 2 / 4.0
    t_r, t_s = tangle(p_r), tangle(p_s)
    return MonogamyRecord(p_r=p_r, p_s=p_s, tangle_rail=t_r, tangle_step=t_s,
                          lhs=lhs, satisfied=2.0 * t_r + t_s <= 1.0 + 1e-12)


def monogamy_surface_sample(grid_resolution):
    """Sample (3p_r-1)^2/2 + (3p_s-1)^2/4 - 1 on the [-1/3, 1]^2 grid."""
    if grid_resolution < 2:
        raise ValueError("need grid resolution >= 2")
    axis = np.linspace(-1.0 / 3.0, 1.0, grid_resolution)
    rows = np.empty((grid_resolution * grid_resolution, 3))
    k = 0
    for p_r in axis:
        for p_s in axis:
            val = (3.0 * p_r - 1.0) ** 2 / 2.0 + (3.0 * p_s - 1.0) ** 2 / 4.0 - 1.0
            rows[k] = (p_r, p_s, val)
            k += 1
    return rows


def _g_rail(theta):
    return (math.sin(theta) ** 2 + math.sqrt(2.0) * math.sin(2.0 * theta)) / 3.0


def _g_step(theta):
    return 1.0 - 4.0 / 3.0 * math.sin(theta) ** 2


@dataclass(frozen=True)
class CloningBoundRecord:
    p_r: float
    p_s: float
    grid_resolution: int
    s1: tuple  # union of closed intervals (lo, hi)
    s2: tuple
    theta_max: object  # float, or None for an empty intersection


def _feasible_intervals(pred, grid_resolution, endpoint_tol=1e-10):
    """Closed intervals of {theta in [0, pi/2] : pred(theta)} by grid scan
    with bisection refinement of the boundaries."""
    thetas = np.linspace(0.0, math.pi / 2.0, grid_resolution)
    flags = [bool(pred(t)) for t in thetas]
    intervals = []
    start = None
    for i, ok in enumerate(flags):
        if ok and start is None:
            start = i
        if start is not None and (not ok or i == len(flags) - 1):
            last = i if ok else i - 1
            lo = thetas[start]
            if start > 0:
                lo = numerics.bisect_boundary(pred, thetas[start - 1], thetas[start],
                                              endpoint_tol)
            hi = thetas[last]
            if last < len(flags) - 1:
                hi = numerics.bisect_boundary(pred, thetas[last], thetas[last + 1],
                                              endpoint_tol)
            intervals.append((lo, hi))
            start = None
    return tuple(intervals)


def _intersect_unions(u1, u2, tol):
    out = []
    for lo1, hi1 in u1:
        for lo2, hi2 in u2:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi + tol:
                out.append((lo, max(lo, hi)))
    return tuple(sorted(out))


def cloning_theta_sets(p_r, p_s, grid_resolution=2048, theta_tol=1e-9):
    """Feasible-theta sets of the cloning bounds and their common maximum.

    Interval endpoints are refined by bisection to 1e-10; the two unions are
    intersected allowing `theta_tol` slack so that boundary-touching sets
    (a single common point) are detected.
    """
    if grid_resolution < 2:
        raise ValueError("need grid resolution >= 2")
    s1 = _feasible_intervals(lambda t: _g_rail(t) >= p_r, grid_resolution)
    s2 = _feasible_intervals(lambda t: _g_step(t) >= p_s, grid_resolution)
    common = _intersect_unions(s1, s2, theta_tol)
    theta_max = max((hi for lo, hi in common), default=None)
    return CloningBoundRecord(p_r=p_r, p_s=p_s, grid_resolution=grid_resolution,
                              s1=s1, s2=s2, theta_max=theta_max)


@dataclass(frozen=True)
class GgmRecord:
    value: float
    max_schmidt_sq: float
    maximizing_bipartition: tuple  # site ids on the side containing site 0
    bipartitions_scanned: int
    mask: int  # bitmask of the maximizing side (smallest among ties)
    tied_masks: tuple  # all masks whose Schmidt^2 ties the maximum within 1e-12


def _schmidt_sq_max(psi, n, mask):
    keep = [k for k in range(n) if (mask >> k) & 1]
    if 2 * len(keep) > n:  # Gram matrix on the smaller side
        keep = [k for k in range(n) if not (mask >> k) & 1]
    mat = bipartition_matrix(psi, n, keep)
    gram = mat @ mat.conj().T
    return numerics.hermitian_eigenvalues(gram)[0], mat


def _permute_bits(values, perm):
    """Move bit k of every entry of `values` to bit perm[k], 8 bits per table."""
    byte = np.arange(256, dtype=values.dtype)
    out = np.zeros_like(values)
    for low in range(0, len(perm), 8):
        table = np.zeros_like(byte)
        for k, g in enumerate(perm[low:low + 8]):
            table |= ((byte >> k) & 1) << g
        out |= table[(values >> low) & 0xFF]
    return out


def _check_symmetry(psi, n, perm):
    """Raise ValueError unless relabelling sites by `perm` maps psi to +-psi."""
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of the {n} sites")
    moved = psi[_permute_bits(np.arange(psi.size), perm)]
    err = min(np.max(np.abs(moved - psi)), np.max(np.abs(moved + psi)))
    if err > 1e-12:
        raise ValueError(f"site permutation {perm} is not a symmetry of the state: "
                         f"max |psi(gx) -+ psi(x)| = {err:.3e}")


def ggm(state, tie_tol=1e-12, *, symmetries=()):
    """Generalized geometric measure over all 2^(n-1) - 1 bipartitions.

    Site 0 is fixed on the reported side, halving the scan. The recorded
    bipartition is the smallest-bitmask maximizer; exact symmetry can tie
    several splits, so every tied mask is kept alongside.

    `symmetries` are site permutations (perm[site] = image) that map the
    state to plus or minus itself, such as `lattice.automorphisms`. Such a
    relabelling carries each bipartition to one with the same Schmidt
    spectrum, so the Schmidt coefficient is computed once per orbit, at its
    smallest mask (an image without site 0 is replaced by its complement),
    and shared by the orbit. Every permutation is checked against the state
    first, to 1e-12, and one that fails raises ValueError. The record does
    not depend on `symmetries`: `bipartitions_scanned` counts every
    bipartition covered and `tied_masks` lists every tied mask, so the
    default (no symmetry, one orbit per mask) is the full scan.
    """
    psi = np.asarray(state)
    n = site_count(psi)
    if n > MAX_SITES:
        raise ValueError(f"bipartition scan limited to {MAX_SITES} sites")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state is not normalized")

    full = (1 << n) - 1
    masks = np.arange(1, full, 2)  # bit 0 always set, complement never empty
    reps = masks.copy()
    for perm in symmetries:
        _check_symmetry(psi, n, perm)
        image = _permute_bits(masks, perm)
        np.minimum(reps, np.where(image & 1, image, full ^ image), out=reps)
    orbits, orbit_of = np.unique(reps, return_inverse=True)
    lam2 = np.array([_schmidt_sq_max(psi, n, int(rep))[0] for rep in orbits])
    best = float(lam2.max())
    tied = tuple(masks[best - lam2[orbit_of] <= tie_tol].tolist())
    winner = tied[0]  # the smallest mask of its orbit, so one computed above

    # cross-check the winner with the iterative kernel
    _, mat = _schmidt_sq_max(psi, n, winner)
    sigma = numerics.dominant_singular_value(mat)
    if abs(sigma * sigma - best) > 1e-9:
        raise RuntimeError(f"power-iteration cross-check failed: {sigma**2} vs {best}")

    sites = tuple(k for k in range(n) if (winner >> k) & 1)
    return GgmRecord(value=1.0 - best, max_schmidt_sq=best,
                     maximizing_bipartition=sites,
                     bipartitions_scanned=len(masks),
                     mask=winner, tied_masks=tied)
