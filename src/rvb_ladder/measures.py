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
For a total singlet, the spin-sector weights of every reduced state bound
lambda^2 for all bipartitions at once, and one S_z block of a reduced state
holds its lambda^2 exactly; only the splits the bound cannot rule out are
solved.
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
# a split whose bound is this far below a solved split's Schmidt^2 cannot tie
# the maximum: the <S^2> slack moves the bound and the Schmidt^2 by at most
# 3 sqrt(_SINGLET_TOL / 2) together, and a second _TIE_TOL covers rounding
_PRUNE_MARGIN = 3.0 * math.sqrt(_SINGLET_TOL / 2.0) + 2.0 * _TIE_TOL
MAX_SITES = 20  # largest state the GGM scan and the sweep accept


def tangle(p):
    """Tangle (squared concurrence) of a Werner state, clamped at separability."""
    if not -1.0 / 3.0 - _P_EPS <= p <= 1.0 + _P_EPS:
        raise ValueError(f"Werner parameter {p} outside [-1/3, 1]")
    return max(0.0, (3.0 * p - 1.0) / 2.0) ** 2


@dataclass(frozen=True)
class MonogamyRecord:
    tangle_rail: float
    tangle_step: float
    lhs: float  # verbatim (3p_r-1)^2/2 + (3p_s-1)^2/4, no clamping
    satisfied: bool  # 2*tangle(p_r) + tangle(p_s) <= 1


def monogamy_check(p_r, p_s):
    lhs = (3.0 * p_r - 1.0) ** 2 / 2.0 + (3.0 * p_s - 1.0) ** 2 / 4.0
    t_r, t_s = tangle(p_r), tangle(p_s)
    return MonogamyRecord(tangle_rail=t_r, tangle_step=t_s, lhs=lhs,
                          satisfied=2.0 * t_r + t_s <= 1.0 + 1e-12)


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
    return CloningBoundRecord(s1=s1, s2=s2, theta_max=theta_max, margin=margin)


@dataclass(frozen=True)
class GgmRecord:
    value: float
    max_schmidt_sq: float
    mask: int  # bitmask of the maximizing side, site 0 in it (smallest among ties)
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


def _schmidt_sq_max(psi, n, mask):
    """Top eigenvalue of the reduced state across the split `mask`.

    The block is taken on the smaller side, k <= n/2 sites (the side of
    `mask` when k = n/2). Rows run over its patterns with k // 2 down spins,
    columns over the patterns of the other n - k sites with n/2 - k // 2
    down spins: the only ones a state of total S_z = 0 pairs them with.
    """
    side = [s for s in range(n) if (mask >> s) & 1]
    rest = [s for s in range(n) if not (mask >> s) & 1]
    if 2 * len(side) > n:
        side, rest = rest, side
    k = len(side)
    rows = np.left_shift(1, side)[_sector_positions(k, k // 2)].sum(axis=1)
    cols = np.left_shift(1, rest)[_sector_positions(n - k, n // 2 - k // 2)].sum(axis=1)
    block = psi[rows[:, None] | cols[None, :]]
    return float(np.linalg.eigvalsh(block @ block.conj().T)[-1])


def _sector_weight_bounds(psi, n):
    """An upper bound on the top Schmidt^2 across each odd mask 1, 3, ...,
    2^n - 3, in mask order, for a total singlet psi.

    A singlet's reduced state is rho_A = sum_S rho_S (x) 1_{2S+1} over the
    total spin S of A, so its top eigenvalue is at most max_S tr rho_S, and
    tr rho_S = Pr(S_z^A = S) - Pr(S_z^A = S + 1). With k sites in A and d
    down spins among them, S_z^A = k/2 - d, so tr rho_S = H[d] - H[d - 1]
    at d = k/2 - S, where H[d, A] = sum_x |psi(x)|^2 [popcount(x & A) = d].

    One product transform gives H for every subset A at once: n in-place
    passes, one per bit, of the kernel [[1, 1], [1, t]] with t counting the
    down spins of A, truncated at d <= n // 4. Read on the smaller side of
    a split, that covers every sector, d <= k/2; the terms with d > k/2
    are not positive for a singlet, and a max over more terms is still a
    bound. On the larger side it covers only some of the same sectors, so
    the larger of the two sides' reads is the smaller side's bound
    (docs/decisions.md).
    """
    top = n // 4
    full = (1 << n) - 1
    weight = np.zeros((top + 1, 1 << n))
    weight[0] = np.abs(psi) ** 2
    for bit in range(n):
        pairs = weight.reshape(top + 1, -1, 2, 1 << bit)
        up, down = pairs[:, :, 0], pairs[:, :, 1]  # bit clear / set in the index
        for d in range(top, -1, -1):  # down[d - 1] still holds its old row
            shifted = up[d] + down[d - 1] if d else up[d].copy()
            up[d] += down[d]
            down[d] = shifted
    for d in range(top, 0, -1):
        weight[d] -= weight[d - 1]
    bound = weight.max(axis=0)
    return np.maximum(bound[1:full:2], bound[full - 1:0:-2])


def ggm(state):
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

    Every bipartition is covered, but few are solved. `_sector_weight_bounds`
    bounds the top Schmidt^2 of every split at once. The split with the
    largest bound is solved first, then every split whose bound reaches its
    Schmidt^2 minus _PRUNE_MARGIN. A split below that can neither reach the
    maximum nor tie it, even with the <S^2> slack (docs/decisions.md), so
    `mask` and `tied_masks` are the full scan's.
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

    masks = np.arange(1, (1 << n) - 1, 2)  # bit 0 always set, complement never empty
    bound = _sector_weight_bounds(psi, n)
    first = int(np.argmax(bound))
    floor = _schmidt_sq_max(psi, n, int(masks[first]))
    near = bound >= floor - _PRUNE_MARGIN
    near[first] = False
    solved = np.append(masks[first], masks[near])
    lam2 = np.array([floor] + [_schmidt_sq_max(psi, n, mask)
                               for mask in masks[near].tolist()])
    best = float(lam2.max())
    tied = tuple(np.sort(solved[best - lam2 <= _TIE_TOL]).tolist())
    return GgmRecord(value=1.0 - best, max_schmidt_sq=best, mask=tied[0],
                     tied_masks=tied, total_spin_sq=spin_sq)
