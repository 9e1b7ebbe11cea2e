"""Entanglement measures: tangle, monogamy, cloning bounds, and the GGM.

The monogamy constraint between one rail and one step sharing a site is
(3 p_r - 1)^2 / 2 + (3 p_s - 1)^2 / 4 <= 1.

The asymmetric 1 -> 1+2 cloning machine bounds the simultaneously achievable
pair (p_r, p_s) through a machine angle theta in [0, pi/2]:
    S1 = {theta : p_r <= (sin^2 theta + sqrt(2) sin 2theta) / 3}
    S2 = {theta : p_s <= 1 - (4/3) sin^2 theta}
and theta_max = max(S1 intersect S2) when the intersection is nonempty.
Both sets are single intervals with closed-form ends.

The generalized geometric measure of a pure n-site state is
1 - max lambda^2 over all bipartitions, lambda the top Schmidt coefficient.
Site permutations that map the state to +-itself leave lambda unchanged, so
one bipartition per symmetry orbit suffices; for a total singlet, one S_z
block of each reduced state holds lambda^2.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .state import site_count, total_spin_squared

_P_EPS = 1e-12
_PHI = math.atan(1.0 / (2.0 * math.sqrt(2.0)))  # phase of the rail bound
_TOUCH_TOL = 1e-12  # rounding slack for windows that touch in one angle
_TIE_TOL = 1e-12  # Schmidt^2 gap below which two bipartitions tie
_SINGLET_TOL = 1e-10  # largest <S^2> that `ggm` accepts as a total singlet
_CHUNK_ENTRIES = 1 << 13  # amplitudes gathered per stacked eigensolve
MAX_SITES = 18  # largest state the GGM scan and the sweep accept


def tangle(p):
    """Tangle (squared concurrence) of a Werner state, clamped at separability."""
    if not -1.0 / 3.0 - _P_EPS <= p <= 1.0 + _P_EPS:
        raise ValueError(f"Werner parameter {p} outside [-1/3, 1]")
    return max(0.0, (3.0 * p - 1.0) / 2.0) ** 2


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
    p_r, p_s = (grid.ravel() for grid in np.meshgrid(axis, axis, indexing="ij"))
    # square with pow(), as float64 scalars do; an array's x * x can differ in
    # the last bit, and fig5's bytes are pinned to pow()
    val = (np.float_power(3.0 * p_r - 1.0, 2) / 2.0
           + np.float_power(3.0 * p_s - 1.0, 2) / 4.0 - 1.0)
    return np.column_stack([p_r, p_s, val])


@dataclass(frozen=True)
class CloningBoundRecord:
    p_r: float
    p_s: float
    s1: tuple  # the rail window as () or ((lo, hi),)
    s2: tuple  # the step window, likewise
    theta_max: object  # float, or None for an empty intersection
    margin: object  # min(hi1, hi2) - max(lo1, lo2), or None if a window is empty


def cloning_theta_sets(p_r, p_s):
    """Feasible-theta windows of the cloning bounds and their common maximum.

    With phi = atan(1/(2 sqrt 2)), the rail bound reads
    sin(2 theta - phi) >= x = 2 p_r - 1/3 and the step bound
    sin^2 theta <= y = 3 (1 - p_s) / 4, so
        S1 = [(phi + asin x) / 2, (phi + pi - asin x) / 2] intersect [0, pi/2]
        S2 = [0, asin sqrt y]
    with S1 empty for x > 1 and S2 empty for y < 0. The signed margin is the
    width of the common interval, negative when the windows miss each other;
    they count as touching, with theta_max at the touching angle, down to a
    rounding-level margin of -1e-12.
    """
    x = max(2.0 * p_r - 1.0 / 3.0, -1.0)
    y = min(3.0 * (1.0 - p_s) / 4.0, 1.0)
    s1 = s2 = ()
    if x <= 1.0:
        a = math.asin(x)
        s1 = ((max((_PHI + a) / 2.0, 0.0),
               min((_PHI + math.pi - a) / 2.0, math.pi / 2.0)),)
    if y >= 0.0:
        s2 = ((0.0, math.asin(math.sqrt(y))),)
    theta_max = margin = None
    if s1 and s2:
        lo, hi = max(s1[0][0], s2[0][0]), min(s1[0][1], s2[0][1])
        margin = hi - lo
        if margin >= -_TOUCH_TOL:
            theta_max = max(lo, hi)
    return CloningBoundRecord(p_r=p_r, p_s=p_s, s1=s1, s2=s2,
                              theta_max=theta_max, margin=margin)


@dataclass(frozen=True)
class GgmRecord:
    value: float
    max_schmidt_sq: float
    maximizing_bipartition: tuple  # site ids on the side containing site 0
    bipartitions_scanned: int
    mask: int  # bitmask of the maximizing side (smallest among ties)
    tied_masks: tuple  # all masks whose Schmidt^2 ties the maximum within 1e-12
    total_spin_sq: float  # <S^2> measured by the singlet precondition


@functools.lru_cache(maxsize=None)
def _sector_positions(width, downs):
    """Down-spin positions of every `width`-site pattern with `downs` down spins.

    Cached read-only; MAX_SITES bounds the keys to a few hundred tables.
    """
    combos = list(itertools.combinations(range(width), downs))
    table = np.array(combos, dtype=np.intp).reshape(len(combos), downs)
    table.flags.writeable = False
    return table


def _sector_blocks(psi, n, masks):
    """psi on the S_z sector of each split in `masks`, one (R, C) block each.

    Every split has the same size k <= n/2 of its smaller side. Rows run over
    the patterns of that side with k // 2 down spins, columns over the
    patterns of the other n - k sites with n/2 - k // 2 down spins: the only
    ones a state of total S_z = 0 pairs them with.
    """
    bits = (masks[:, None] >> np.arange(n)) & 1
    bits ^= 2 * bits.sum(axis=1, keepdims=True) > n  # the smaller side
    k = int(bits[0].sum())
    # 1 << site for the side's sites, then the rest's, each in ascending order
    weight = np.left_shift(1, np.argsort(1 - bits, axis=1, kind="stable"))
    rows = weight[:, :k][:, _sector_positions(k, k // 2)].sum(axis=2)
    cols = weight[:, k:][:, _sector_positions(n - k, n // 2 - k // 2)].sum(axis=2)
    return psi[rows[:, :, None] | cols[:, None, :]]


def _sector_top_eigenvalues(psi, n, masks):
    """Top eigenvalue of the reduced state across each split in `masks`.

    Splits are grouped by the size k of their smaller side. Within a group,
    each chunk of blocks holding at most _CHUNK_ENTRIES amplitudes (or one
    larger block) gets one batched Gram product and one stacked eigensolve.
    """
    ones = sum((masks >> s) & 1 for s in range(n))
    sizes = np.minimum(ones, n - ones)
    top = np.empty(len(masks))
    for k in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == k)
        entries = math.comb(k, k // 2) * math.comb(n - k, n // 2 - k // 2)
        step = max(1, _CHUNK_ENTRIES // entries)
        for start in range(0, len(group), step):
            chunk = group[start:start + step]
            blocks = _sector_blocks(psi, n, masks[chunk])
            gram = blocks @ blocks.conj().swapaxes(1, 2)
            top[chunk] = np.linalg.eigvalsh(gram)[:, -1]
    return top


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
    """Basis index x -> gx of the relabelling of sites by `perm`.

    Raises ValueError unless the relabelling maps psi to +-psi.
    """
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of the {n} sites")
    index = _permute_bits(np.arange(psi.size), perm)
    moved = psi[index]
    err = min(np.max(np.abs(moved - psi)), np.max(np.abs(moved + psi)))
    if err > 1e-12:
        raise ValueError(f"site permutation {perm} is not a symmetry of the state: "
                         f"max |psi(gx) -+ psi(x)| = {err:.3e}")
    return index


def ggm(state, *, symmetries=()):
    """Generalized geometric measure over all 2^(n-1) - 1 bipartitions.

    Site 0 is fixed on the reported side, halving the scan. The recorded
    bipartition is the smallest-bitmask maximizer; exact symmetry can tie
    several splits, so every tied mask (within 1e-12) is kept alongside.

    The state must be a normalized total singlet, <S^2> <= 1e-10, and
    ValueError is raised otherwise; the record keeps the measured <S^2>.
    Then every reduced state rho_A commutes with spin rotations of A, so
    each of its spin multiplets has a member with S_z^A = 0 (k sites in A,
    k even) or 1/2 (k odd), and the top eigenvalue of rho_A is the top
    eigenvalue of that one S_z block: the Gram matrix of a
    C(k, k//2) x C(n-k, n/2 - k//2) block of psi, taken on the smaller
    side.

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
    spin_sq = total_spin_squared(psi)
    if spin_sq > _SINGLET_TOL:
        raise ValueError(f"state is not a total singlet: S^2 = {spin_sq:.3e}")

    full = (1 << n) - 1
    masks = np.arange(1, full, 2)  # bit 0 always set, complement never empty
    reps = masks.copy()
    for perm in symmetries:
        image = _check_symmetry(psi, n, perm)[1:full:2]  # the images of masks
        np.minimum(reps, np.where(image & 1, image, full ^ image), out=reps)
    orbits, orbit_of = np.unique(reps, return_inverse=True)
    lam2 = _sector_top_eigenvalues(psi, n, orbits)
    best = float(lam2.max())
    tied = tuple(masks[best - lam2[orbit_of] <= _TIE_TOL].tolist())
    sites = tuple(k for k in range(n) if (tied[0] >> k) & 1)
    return GgmRecord(value=1.0 - best, max_schmidt_sq=best,
                     maximizing_bipartition=sites,
                     bipartitions_scanned=len(masks),
                     mask=tied[0], tied_masks=tied, total_spin_sq=spin_sq)
