"""Independent brute-force oracles and frozen expected values.

Everything here is deliberately written by a different route than the package
code: coverings come from subset enumeration instead of backtracking, state
amplitudes from per-index sign products or per-orientation loops instead of
one vectorised bincount, total spin from Pauli sums instead of S_- S_+,
marginals from explicit index loops instead of reshape/transpose, Schmidt
values from numpy's SVD instead of Gram eigenvalues / power iteration, and
the amplitude dump line by line instead of once per distinct value.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# literal lattices (hand-derived; site = row*m + col, A iff row+col even,
# A-site first on dimer-allowed edges)

M2_OPEN_EDGES = (
    (0, 1, "rail"), (3, 2, "rail"),
    (0, 2, "step"), (3, 1, "step"),
)

M3_OPEN_EDGES = (
    (0, 1, "rail"), (2, 1, "rail"), (4, 3, "rail"), (4, 5, "rail"),
    (0, 3, "step"), (4, 1, "step"), (2, 5, "step"),
)


def brute_force_coverings(n, edges):
    """All perfect matchings of `edges` over sites 0..n-1, by subset scan.

    `edges` are (a, b[, kind]) tuples; returns a sorted list of coverings,
    each a sorted tuple of (a, b) pairs (kept in the given orientation).
    """
    pairs = [(e[0], e[1]) for e in edges]
    found = []
    for combo in itertools.combinations(range(len(pairs)), n // 2):
        seen = set()
        for k in combo:
            seen.update(pairs[k])
        if len(seen) == n:
            # parallel edges (the m = 2 ring) yield equal pair tuples from
            # different edge subsets; keep every one, as enumeration does
            found.append(tuple(sorted(pairs[k] for k in combo)))
    return sorted(found)


def oracle_state(coverings, n):
    """Equal-weight covering superposition via per-index amplitude products.

    amp[idx] = sum over coverings of prod over dimers (a, b) of
    f(bit_a, bit_b), with f(up, down) = +1, f(down, up) = -1, else 0
    (the common (1/sqrt2)^(n/2) factor cancels in normalization).
    """
    amps = np.zeros(1 << n)
    for covering in coverings:
        for idx in range(1 << n):
            prod = 1
            for a, b in covering:
                sa, sb = (idx >> a) & 1, (idx >> b) & 1
                if (sa, sb) == (0, 1):
                    continue
                if (sa, sb) == (1, 0):
                    prod = -prod
                else:
                    prod = 0
                    break
            amps[idx] += prod
    return amps / np.linalg.norm(amps)


def loop_covering_state(covering, n):
    """One covering's product state by a loop over its 2^(n/2) orientations.

    Orientation bit t puts the t-th dimer in its minus branch (down on the
    A-site); each orientation adds its signed amplitude to one index.
    """
    pairs = list(covering)
    k = len(pairs)
    scale = (1.0 / math.sqrt(2.0)) ** k
    psi = np.zeros(1 << n)
    for orient in range(1 << k):
        idx = 0
        sign = 1
        for t, (a, b) in enumerate(pairs):
            if (orient >> t) & 1:
                idx |= 1 << a
                sign = -sign
            else:
                idx |= 1 << b
        psi[idx] += sign * scale
    return psi


def loop_rvb_state(coverings, n):
    """Normalized covering sum, adding one covering state at a time."""
    psi = np.zeros(1 << n)
    for covering in coverings:
        psi += loop_covering_state(covering, n)
    psi /= np.linalg.norm(psi)
    return psi


def oracle_total_spin_squared(psi):
    """<psi| S_tot^2 |psi> as |S_x psi|^2 + |S_y psi|^2 + |S_z psi|^2, with
    each S_a = sum_k sigma_a^(k) / 2 applied by index flips and phases."""
    psi = np.asarray(psi)
    n = psi.size.bit_length() - 1
    idx = np.arange(psi.size)
    popcount = np.zeros(psi.size, dtype=np.int64)
    for k in range(n):
        popcount += (idx >> k) & 1
    sz = (n - 2 * popcount) / 2.0
    out = float(np.vdot(sz * psi, sz * psi).real)

    sx = np.zeros(psi.size, dtype=complex)
    sy = np.zeros(psi.size, dtype=complex)
    for k in range(n):
        flipped = idx ^ (1 << k)
        bit = (idx >> k) & 1
        sx[flipped] = sx[flipped] + 0.5 * psi
        # sigma_y: |0> -> i|1>, |1> -> -i|0>
        phase = np.where(bit == 0, 1j, -1j)
        sy[flipped] = sy[flipped] + 0.5 * phase * psi
    return out + float(np.vdot(sx, sx).real) + float(np.vdot(sy, sy).real)


def reference_dump(psi, path, m, boundary):
    """Amplitude dump written line by line: header, then one value per index."""
    psi = np.asarray(psi)
    n = psi.size.bit_length() - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"rvb n={n} boundary={boundary} m={m}\n")
        for amp in psi:
            fh.write(f"{float(amp):.17g}\n")


def oracle_partial_trace(psi, keep):
    """Reduced density matrix by explicit index loops over the traced sites."""
    psi = np.asarray(psi)
    n = psi.size.bit_length() - 1
    rest = [s for s in range(n) if s not in keep]
    dim = 1 << len(keep)
    rho = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            acc = 0.0j
            for r_bits in range(1 << len(rest)):
                base = 0
                for u, site in enumerate(rest):
                    base |= ((r_bits >> u) & 1) << site
                ii, jj = base, base
                for t, site in enumerate(keep):
                    ii |= ((i >> t) & 1) << site
                    jj |= ((j >> t) & 1) << site
                acc += psi[ii] * np.conj(psi[jj])
            rho[i, j] = acc
    return rho


def oracle_werner_p(rho):
    """Werner parameter from the singlet fraction, reduced index = s_a + 2 s_b."""
    s = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)
    F = float(np.real(s @ np.asarray(rho) @ s))
    return (4.0 * F - 1.0) / 3.0


def oracle_schmidt_sq_max(psi, mask):
    """Top squared Schmidt coefficient across `mask` | rest, via numpy SVD
    of a matrix assembled by index loops."""
    psi = np.asarray(psi)
    n = psi.size.bit_length() - 1
    side = [s for s in range(n) if (mask >> s) & 1]
    rest = [s for s in range(n) if not (mask >> s) & 1]
    mat = np.zeros((1 << len(side), 1 << len(rest)), dtype=psi.dtype)
    for idx in range(psi.size):
        r = sum(((idx >> s) & 1) << t for t, s in enumerate(side))
        c = sum(((idx >> s) & 1) << t for t, s in enumerate(rest))
        mat[r, c] = psi[idx]
    top = np.linalg.svd(mat, compute_uv=False)[0]
    return float(top * top)


def oracle_ggm(psi):
    psi = np.asarray(psi)
    n = psi.size.bit_length() - 1
    best = max(oracle_schmidt_sq_max(psi, mask)
               for mask in range(1, (1 << n) - 1, 2))
    return 1.0 - best


def g_rail(theta):
    return (math.sin(theta) ** 2 + math.sqrt(2.0) * math.sin(2.0 * theta)) / 3.0


def g_step(theta):
    return 1.0 - 4.0 / 3.0 * math.sin(theta) ** 2


def oracle_theta_max(p_r, p_s, points=2_000_001, slack=0.0):
    """Largest grid angle satisfying both cloning inequalities (dense scan)."""
    best = None
    for theta in np.linspace(0.0, math.pi / 2.0, points):
        if g_rail(theta) >= p_r - slack and g_step(theta) >= p_s - slack:
            best = float(theta)
    return best


# ---------------------------------------------------------------------------
# frozen expected values (exact rationals and closed forms, derived once with
# an exact-arithmetic pipeline and spot-checked against the oracles above)

F = Fraction

EXPECTED = {
    # (m, boundary, odd_wrap): per-size pipeline quantities
    (2, "open", "forbid"): dict(
        count=2, p_r=F(2, 3), p_s=F(2, 3), p_avg=None,
        ggm=F(1, 4), ggm_mask=0x3, theta=None),
    (3, "open", "forbid"): dict(
        count=3, p_r=F(5, 11), p_s=F(25, 33), p_avg=F(17, 33),
        ggm=F(3, 22), ggm_mask=0x9, theta=None),
    (2, "periodic", "forbid"): dict(count=5),
    (3, "periodic", "forbid"): dict(
        count=3, p_r=F(5, 11), p_s=F(25, 33), p_avg=F(43, 99),
        ggm=F(3, 22), ggm_mask=0x9, theta=None),
    (5, "periodic", "forbid"): dict(
        count=8, p_r=F(86, 201), p_s=F(733, 1005),
        ggm=0.090348138876, ggm_mask=0x63,
        theta=math.asin(math.sqrt(68.0 / 335.0))),
    (3, "periodic", "twist"): dict(
        count=6, p_r=F(5, 9), p_s=F(5, 9), p_avg=F(5, 9),
        ggm=F(1, 3), ggm_mask=0x3, theta=math.asin(1.0 / math.sqrt(3.0)),
        lhs=F(1, 3)),
    (4, "periodic", "forbid"): dict(
        count=9, p_r=F(11, 21), p_s=F(11, 21), p_avg=F(11, 21),
        ggm=F(143, 504), ggm_mask=0xF, theta=math.asin(math.sqrt(5.0 / 14.0)),
        lhs=F(12, 49)),
    (5, "periodic", "twist"): dict(
        count=13, p_r=F(89, 201), p_s=F(43, 67), p_avg=F(307, 603),
        ggm=0.248930971690, ggm_mask=0x63,
        theta=math.asin(math.sqrt(18.0 / 67.0)), lhs=F(1203, 4489)),
    (6, "periodic", "forbid"): dict(
        count=20, p_r=F(18, 43), p_s=F(2, 3), p_avg=F(194, 387),
        ggm=0.225555700263, ggm_mask=0xC3, theta=math.pi / 6.0,
        lhs=F(2091, 7396)),
}
# an even-m periodic ladder ignores odd_wrap: same rows under "twist"
for _m in (4, 6):
    EXPECTED[(_m, "periodic", "twist")] = EXPECTED[(_m, "periodic", "forbid")]

# the published construction (periodic, twisted odd closure), N = 2m = 6..12
PAPER_SIZES = ((3, "periodic", "twist"), (4, "periodic", "twist"),
               (5, "periodic", "twist"), (6, "periodic", "twist"))
