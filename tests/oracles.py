"""Independent brute-force oracles and frozen expected values.

Everything here is deliberately written by a different route than the package
code: coverings come from subset enumeration instead of backtracking, their
count from the Ryser permanent of the bond matrix instead of the
enumeration's length, state
amplitudes from per-index sign products or per-orientation loops instead of
one vectorised bincount, total spin from Pauli sums instead of S_- S_+,
or S_+ psi by N strided adds over the dense tensor instead of one scatter
per site on the support,
marginals from explicit index loops or the dense reshape/transpose partial
trace, and the Werner fit of the whole 4 x 4 marginal against all 16 model
entries, instead of one sigma^z sigma^z correlation product on the support, Schmidt
values from numpy's SVD, power iteration or the full Gram matrix of every
bipartition instead of one S_z block per split, the splits to solve from
the symmetry orbits of a stabilizer chain of lattice generators (the orbit
route, which shares the package's S_z-block eigensolve) instead of the
spin-sector weight bound, that bound's subset transform in index order
with a temporary per degree row instead of in place on a layout with the
low bits slow, the amplitude dump line by line instead of once
per distinct support value between runs of zeros, the lattice symmetry
group also by full enumeration instead of generators, the tangle from Wootters' concurrence instead of the
Werner closed form, p_avg by one edge-list scan per site instead of one
pass over the edges, the cloning windows by grid scan and bisection instead
of closed forms, the monogamy surface by a scalar double loop, and its CSV
one formatted line per sample row instead of one write per grid row, and
the caption fits by exact rational normal equations instead of a float
`lstsq`.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from rvb_ladder import measures
from rvb_ladder.lattice import Edge, Lattice
from rvb_ladder.state import INV_SQRT2, WERNER_TOL, site_count, total_spin_squared

# ---------------------------------------------------------------------------
# literal lattices (hand-derived; site = row*m + col, A iff row+col even,
# A-site first on every edge)

M2_OPEN_EDGES = (
    (0, 1, "rail"), (3, 2, "rail"),
    (0, 2, "step"), (3, 1, "step"),
)

M3_OPEN_EDGES = (
    (0, 1, "rail"), (2, 1, "rail"), (4, 3, "rail"), (4, 5, "rail"),
    (0, 3, "step"), (4, 1, "step"), (2, 5, "step"),
)


def square_torus(rows, cols):
    """rows x cols square lattice with both directions wrapped (both even),
    site = row*cols + col; "rail" bonds run along rows, "step" bonds along
    columns."""
    edges = []
    for s in range(rows * cols):
        r, c = divmod(s, cols)
        for t, kind in ((r * cols + (c + 1) % cols, "rail"),
                        (((r + 1) % rows) * cols + c, "step")):
            a, b = (s, t) if (r + c) % 2 == 0 else (t, s)  # A iff row+col even
            edges.append(Edge(a, b, kind))
    return Lattice(n=rows * cols, edges=tuple(edges))


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


def covering_permanent(lattice):
    """Number of perfect matchings: the permanent of the A x B bond matrix.

    Entry (i, j) counts the edges from the i-th A site to the j-th B site,
    so the doubled rails of the periodic m = 2 ring count twice.
    Ryser's formula sums over the 2^k column subsets S of the k x k matrix:
    perm = sum_S (-1)^(k - |S|) prod_i sum_{j in S} M_ij, exact in int64.
    It reads only the edge list, whose `a` ends are the A sites and `b`
    ends the B sites, so it holds on any bipartite lattice and shares
    nothing with the backtracking enumeration. A site on no edge is in
    neither set and leaves the lattice without a covering.
    """
    a_sites = sorted({e.a for e in lattice.edges})
    b_sites = sorted({e.b for e in lattice.edges})
    if len(a_sites) != len(b_sites) or len(a_sites) + len(b_sites) != lattice.n:
        return 0
    k = len(a_sites)
    row = {s: i for i, s in enumerate(a_sites)}
    col = {s: j for j, s in enumerate(b_sites)}
    bonds = np.zeros((k, k), dtype=np.int64)
    for e in lattice.edges:
        bonds[row[e.a], col[e.b]] += 1
    subsets = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    signs = 1 - 2 * ((k - subsets.sum(axis=1)) & 1)
    return int(signs @ np.prod(subsets @ bonds.T, axis=1))


def automorphisms(lattice):
    """All site permutations preserving the multiset of edges.

    Each is a tuple `perm` with `perm[site]` the image of `site`; the
    identity comes first and the order is deterministic. The whole group by
    backtracking over sites in order, checking each new image against the
    multiplicity of every pair already placed, where the package keeps only
    a stabilizer chain of generators.
    """
    n = lattice.n
    mult = [[0] * n for _ in range(n)]
    for e in lattice.edges:
        mult[e.a][e.b] += 1
        mult[e.b][e.a] += 1
    degree = [sum(row) for row in mult]
    # an earlier neighbour of each site, whose image's neighbours are then
    # the only candidates for the site's own image
    anchor = [next((t for t in range(s) if mult[s][t]), None) for s in range(n)]

    out = []
    image = []
    used = [False] * n

    def extend():
        s = len(image)
        if s == n:
            out.append(tuple(image))
            return
        a = anchor[s]
        candidates = range(n) if a is None else [g for g in range(n) if mult[image[a]][g]]
        for g in candidates:
            if used[g] or degree[g] != degree[s]:
                continue
            if any(mult[s][t] != mult[g][image[t]] for t in range(s)):
                continue
            used[g] = True
            image.append(g)
            extend()
            image.pop()
            used[g] = False

    extend()
    return tuple(out)


def group_closure(generators, n):
    """Every product of `generators` (site permutations of n sites), as a set
    of tuples, the identity included; breadth-first over compositions."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        frontier = [tuple(g[h[s]] for s in range(n))
                    for h in frontier for g in generators]
        frontier = list(set(frontier) - group)
        group.update(frontier)
    return group


def automorphism_generators(lattice):
    """Generators of the site permutations preserving the edges.

    The group is every permutation that preserves the multiset of edges;
    such a permutation maps dimer coverings to dimer coverings, so it maps
    the liquid state to plus or minus itself. Each generator is a tuple
    `perm` with `perm[site]` the image of `site`.

    A stabilizer chain (Schreier-Sims), walked from the last site to the
    first: at level i every generator found so far fixes sites 0..i-1, and
    for each site c > i outside the orbit of i under them, the first
    permutation of the group that fixes sites 0..i-1 and sends i to c, if
    there is one, becomes a new generator. They generate the whole group,
    whose order is the product of the orbit sizes of the levels
    (docs/decisions.md). A search backtracks over sites in order, checking
    each new image against the multiplicity of every pair already placed.
    Deterministic; a lattice with no symmetry but the identity gives ().
    """
    n = lattice.n
    mult = [[0] * n for _ in range(n)]
    for e in lattice.edges:
        mult[e.a][e.b] += 1
        mult[e.b][e.a] += 1
    degree = [sum(row) for row in mult]
    # an earlier neighbour of each site, whose image's neighbours are then
    # the only candidates for the site's own image
    anchor = [next((t for t in range(s) if mult[s][t]), None) for s in range(n)]

    def fits(g, image):
        """Whether site len(image) may go to g, given the images before it."""
        s = len(image)
        return (g not in image and degree[g] == degree[s]
                and all(mult[s][t] == mult[g][image[t]] for t in range(s)))

    def complete(image):
        """The first group element extending `image`, or None."""
        if len(image) == n:
            return tuple(image)
        a = anchor[len(image)]
        candidates = range(n) if a is None else [g for g in range(n) if mult[image[a]][g]]
        for g in candidates:
            if fits(g, image):
                found = complete(image + [g])
                if found is not None:
                    return found
        return None

    def orbit(site, gens):
        seen, frontier = {site}, {site}
        while frontier:
            frontier = {g[s] for s in frontier for g in gens} - seen
            seen |= frontier
        return seen

    gens = []
    for i in reversed(range(n)):
        fixed = list(range(i))
        reached = orbit(i, gens)
        for c in range(i + 1, n):
            if c in reached or not fits(c, fixed):
                continue
            found = complete(fixed + [c])
            if found is not None:
                gens.append(found)
                reached = orbit(i, gens)
    return tuple(gens)


def permute_bits(values, perm):
    """Move bit k of every entry of `values` to bit perm[k], 8 bits per table."""
    byte = np.arange(256, dtype=values.dtype)
    out = np.zeros_like(values)
    for low in range(0, len(perm), 8):
        table = np.zeros_like(byte)
        for k, g in enumerate(perm[low:low + 8]):
            table |= ((byte >> k) & 1) << g
        out |= table[(values >> low) & 0xFF]
    return out


def check_symmetry(psi, n, perm):
    """Basis index x -> gx of the relabelling of sites by `perm`.

    Raises ValueError unless the relabelling maps psi to +-psi.
    """
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of the {n} sites")
    index = permute_bits(np.arange(psi.size), perm)
    moved = psi[index]
    err = min(np.max(np.abs(moved - psi)), np.max(np.abs(moved + psi)))
    if err > 1e-12:
        raise ValueError(f"site permutation {perm} is not a symmetry of the state: "
                         f"max |psi(gx) -+ psi(x)| = {err:.3e}")
    return index


def orbit_labels(psi, n, symmetries):
    """Position (mask >> 1) of the smallest odd mask in the orbit of each odd
    mask under the group `symmetries` generate, each checked against psi.

    A move sends a position to that of the permuted split, complemented when
    site 0 left its side. Each round lowers every label to the label at its
    image under each move, then jumps it to its own label's label; labels
    only fall and stay inside their orbit, and at the fixpoint each is the
    orbit's smallest position (docs/decisions.md).
    """
    full = (1 << n) - 1
    moves = []
    for perm in symmetries:
        image = check_symmetry(psi, n, perm)[1:full:2]  # the images of the masks
        moves.append((np.where(image & 1, image, full ^ image) >> 1).astype(np.int32))
    label = np.arange(full >> 1, dtype=np.int32)
    while True:
        prev = label
        for move in moves:
            label = np.minimum(label, label[move])
        label = label[label]
        if np.array_equal(label, prev):
            return label


def orbit_ggm(state, symmetries=()):
    """The GGM record of a total singlet by the orbit route.

    `symmetries` are site permutations (perm[site] = image) that map the
    state to plus or minus itself, such as `automorphism_generators`; the
    whole group is valid too. Each is checked against the state to 1e-12
    first, and one that fails raises ValueError. Such a relabelling carries
    each bipartition to one with the same Schmidt spectrum, so the top
    Schmidt^2 is computed once per orbit of the generated group, at its
    smallest odd mask, by the package's S_z-block eigensolve, and shared by
    the orbit. Every field but `value` and `max_schmidt_sq` is exact; those
    two carry the eigensolver's roundoff at the representative. With no
    symmetry every mask is its own orbit: the full scan.
    """
    psi = np.asarray(state)
    n = psi.size.bit_length() - 1
    masks = np.arange(1, (1 << n) - 1, 2)
    orbits, orbit_of = np.unique(masks[orbit_labels(psi, n, symmetries)],
                                 return_inverse=True)
    lam2 = np.array([measures._schmidt_sq_max(psi, n, mask) for mask in orbits.tolist()])
    best = float(lam2.max())
    tied = tuple(masks[best - lam2[orbit_of] <= 1e-12].tolist())
    return measures.GgmRecord(
        value=1.0 - best, max_schmidt_sq=best, mask=tied[0], tied_masks=tied,
        total_spin_sq=total_spin_squared(psi))


def sector_weight_bounds(psi, n):
    """`measures._sector_weight_bounds` in index order, one degree row at a time.

    Every pass reads its bit through strided views of the index-ordered array
    and forms each row's shifted half in a temporary; the package runs the
    low bits' passes on a transposed layout, in place, with the halves
    swapped. Both make the same additions on the same operands in the same
    order, so they agree bit for bit.
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


def singlet_pair():
    """The two-site singlet (|up down> - |down up>)/sqrt(2), site 0 the A site,
    written out amplitude by amplitude (index = bit0 + 2 bit1, 1 = down)."""
    return np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)


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


def dense_total_spin_squared(state):
    """<psi| S_tot^2 |psi> from S^2 = S_- S_+ + S_z^2 + S_z.

    So <S^2> = |S_+ psi|^2 + <S_z^2 + S_z>. S_+ psi is built on the
    (2,)*n tensor: site k raises a down spin (index 1 on its axis) to up.
    """
    psi = np.asarray(state)
    n = site_count(psi)
    tensor = psi.reshape([2] * n)
    raised = np.zeros_like(tensor)
    for axis in range(n):
        lead = (slice(None),) * axis
        raised[lead + (0,)] += tensor[lead + (1,)]

    # S_z is diagonal: n/2 minus the number of down spins, read on the support
    support = np.flatnonzero(psi)
    sz = n / 2 - sum((support >> k) & 1 for k in range(n))
    amps = psi[support]
    weight = (amps * amps.conj()).real
    return float(np.vdot(raised, raised).real) + float(weight @ (sz * (sz + 1.0)))


def reference_dump(psi, path, m, boundary):
    """Amplitude dump written line by line: header, then one value per index."""
    psi = np.asarray(psi)
    n = psi.size.bit_length() - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"rvb n={n} boundary={boundary} m={m}\n")
        for amp in psi:
            fh.write(f"{float(amp):.17g}\n")


MAX_KEPT_SITES = 12  # memory guard: a 2^12 x 2^12 float64 matrix is 128 MiB


def partial_trace(state, keep):
    """Trace out all sites except `keep` (ordered list of site ids).

    Row/column index of the result uses keep-list order with keep[0] as the
    least significant bit, matching the global basis convention.
    """
    psi = np.asarray(state)
    n = site_count(psi)
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate sites in keep: {keep}")
    if any(not 0 <= s < n for s in keep):
        raise ValueError(f"keep sites {keep} out of range for n={n}")
    if len(keep) > MAX_KEPT_SITES:
        raise ValueError(f"refusing to build a reduced matrix above {MAX_KEPT_SITES} sites")

    kept = set(keep)
    rest = [s for s in range(n) if s not in kept]
    # axis of site k in the reshaped tensor is n-1-k; most significant first
    perm = [n - 1 - k for k in reversed(keep)] + [n - 1 - s for s in reversed(rest)]
    mat = psi.reshape([2] * n).transpose(perm).reshape(1 << len(keep), -1)
    return mat @ mat.conj().T


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


_SINGLET = np.array([0.0, -INV_SQRT2, INV_SQRT2, 0.0])
_SINGLET_PROJECTOR = np.outer(_SINGLET, _SINGLET)


@dataclass(frozen=True)
class DenseWernerFit:
    p: float
    residual: float  # largest entrywise distance of rho from werner_state(p)
    werner_ok: bool  # residual within WERNER_TOL


def werner_state(p):
    """The 4 x 4 Werner state p |s><s| + (1 - p)/4 I in the reduced basis s_a + 2 s_b."""
    return p * _SINGLET_PROJECTOR + (1.0 - p) / 4.0 * np.eye(4)


def werner_fit(rho):
    """Werner fit of one 4 x 4 two-site marginal: the dense reference.

    `rho` is the reduced density matrix of the edge's A site a and B site b,
    with the A site the least significant reduced index; the directed
    singlet of that orientation defines the singlet fraction F = <s|rho|s>.
    p = (4F - 1)/3, and the residual is the largest entrywise distance of rho
    from the Werner state at that p, over all 16 entries.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rho.shape}")
    row = (_SINGLET @ rho)[None, :]
    F = float(np.real(row @ _SINGLET[:, None])[0, 0])
    p = (4.0 * F - 1.0) / 3.0
    residual = float(np.abs(rho - werner_state(p)).max())
    return DenseWernerFit(p=p, residual=residual, werner_ok=residual <= WERNER_TOL)


def rail_and_step_ps(lattice, fits):
    """The p of each edge the two aggregates average: rails, steps.

    Their min and max give the per-kind spread around p_r and p_s.
    """
    rails = [fits[e].p for e in lattice.edges if e.kind == "rail"]
    steps = [fits[e].p for e in lattice.edges if e.kind == "step"]
    return rails, steps


def reference_p_avg(lattice, fits):
    """p_avg by the per-site route: degree-3 sites found one at a time, each
    one's incident edges by a scan of the edge list, then one correctly
    rounded sum over all their p, divided by three per site (the exact mean
    of the site means).

    None when no site has degree 3.
    """
    regional = []
    for site in range(lattice.n):
        incident = [e for e in lattice.edges if site in (e.a, e.b)]
        if len(incident) == 3:
            regional.extend(fits[e].p for e in incident)
    if not regional:
        return None
    return math.fsum(regional) / len(regional)


def oracle_bipartition_matrix(psi, mask):
    """psi as a (2^|mask|, 2^(n - |mask|)) matrix across `mask` | rest,
    assembled bit by bit from every basis index."""
    psi = np.asarray(psi)
    n = psi.size.bit_length() - 1
    side = [s for s in range(n) if (mask >> s) & 1]
    rest = [s for s in range(n) if not (mask >> s) & 1]
    idx = np.arange(psi.size)
    r = sum(((idx >> s) & 1) << t for t, s in enumerate(side))
    c = sum(((idx >> s) & 1) << t for t, s in enumerate(rest))
    mat = np.zeros((1 << len(side), 1 << len(rest)), dtype=psi.dtype)
    mat[r, c] = psi
    return mat


def oracle_schmidt_sq_max(psi, mask):
    """Top squared Schmidt coefficient across `mask` | rest, via numpy SVD
    of the bit-by-bit bipartition matrix."""
    top = np.linalg.svd(oracle_bipartition_matrix(psi, mask), compute_uv=False)[0]
    return float(top * top)


def dominant_singular_value(matrix):
    """Largest singular value by power iteration on A^H A, from a seeded
    random start, until the Rayleigh quotient moves by at most 1e-12
    relative (1000 steps at most)."""
    mat = np.asarray(matrix).astype(complex)
    # seeded start: reproducible, and structured states (e.g. singlet products,
    # whose slices sum to zero) cannot be orthogonal to it by symmetry
    rng = np.random.default_rng(1905)
    v = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(1000):
        w = mat.conj().T @ (mat @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        cur = float(np.real(v.conj() @ (mat.conj().T @ (mat @ v))))
        if abs(cur - prev) <= 1e-12 * max(1.0, cur):
            break
        prev = cur
    return float(np.sqrt(max(cur, 0.0)))


def power_iteration_schmidt_sq(psi, mask):
    """Top squared Schmidt coefficient across `mask` | rest by power
    iteration on the full bit-by-bit bipartition matrix."""
    return dominant_singular_value(oracle_bipartition_matrix(psi, mask)) ** 2


def column_aligned_tied_mask(tied_masks, m):
    """The first of `tied_masks` that keeps both sites of every column of an
    m-rung ladder on one side, or None."""
    for mask in tied_masks:
        if all((mask >> c) & 1 == (mask >> (c + m)) & 1 for c in range(m)):
            return mask
    return None


def dense_schmidt_sq_max(psi, mask):
    """Top squared Schmidt coefficient across `mask` | rest from the full
    Gram matrix of the state reshaped across the split, smaller side first."""
    psi = np.asarray(psi)
    n = psi.size.bit_length() - 1
    keep = [k for k in range(n) if (mask >> k) & 1]
    if 2 * len(keep) > n:
        keep = [k for k in range(n) if not (mask >> k) & 1]
    rest = [k for k in range(n) if k not in keep]
    axes = [n - 1 - k for k in reversed(keep)] + [n - 1 - k for k in reversed(rest)]
    mat = psi.reshape([2] * n).transpose(axes).reshape(1 << len(keep), -1)
    return float(np.linalg.eigvalsh(mat @ mat.conj().T)[-1])


def dense_ggm_scan(psi):
    """(max Schmidt^2, masks within 1e-12 of it) of the full scan over every
    bipartition with site 0 on the reported side, one dense Gram eigensolve
    per mask."""
    n = np.asarray(psi).size.bit_length() - 1
    masks = range(1, (1 << n) - 1, 2)
    lam2 = [dense_schmidt_sq_max(psi, mask) for mask in masks]
    best = max(lam2)
    return best, tuple(m for m, v in zip(masks, lam2) if best - v <= 1e-12)


def loop_monogamy_surface_sample(grid_resolution):
    """(axis, surface) of the monogamy surface: the grid filled by a double
    loop over (p_r, p_s) = (axis[i], axis[j]) in scalar float64 arithmetic."""
    axis = np.linspace(-1.0 / 3.0, 1.0, grid_resolution)
    surface = np.empty((grid_resolution, grid_resolution))
    for i, p_r in enumerate(axis):
        for j, p_s in enumerate(axis):
            surface[i, j] = (3.0 * p_r - 1.0) ** 2 / 2.0 + (3.0 * p_s - 1.0) ** 2 / 4.0 - 1.0
    return axis, surface


def reference_fig5_csv(axis, surface, path):
    """fig5 written one line per grid point (axis[i], axis[j], surface[i, j]),
    in row-major order: each value a Python float formatted with ".12g" (the
    float case of the sweep's CSV cell format), one write per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("p_r,p_s,surface_value\n")
        for i, p_r in enumerate(axis):
            for j, p_s in enumerate(axis):
                row = (p_r, p_s, surface[i, j])
                fh.write(",".join(format(v, ".12g") for v in map(float, row)) + "\n")


def singlet_combination(terms, n):
    """Normalized real combination of singlet-pair products on n sites.

    `terms` is a list of (coefficient, site order) pairs; each order
    pairs its sites two by two, first site as the A site. Returns None when
    the combination cancels.
    """
    psi = np.zeros(1 << n)
    for coeff, order in terms:
        pairs = [(order[2 * t], order[2 * t + 1]) for t in range(n // 2)]
        psi += coeff * loop_covering_state(pairs, n)
    norm = np.linalg.norm(psi)
    return psi / norm if norm > 1e-6 else None


MODEL_POWERS = {"linear": (0, 1), "quadratic_no_linear_term": (0, 2),
                "full_quadratic": (0, 1, 2)}


def poly_value(fit, x):
    """A fitted polynomial at x, summing coefficient times power of x term by
    term from the model's list of powers."""
    x = np.asarray(x, dtype=float)
    return sum(c * x ** p for c, p in zip(fit.coefficients, MODEL_POWERS[fit.model]))


def exact_least_squares(xs, ys, model):
    """Least-squares coefficients of `model`, constant term first, as exact
    Fractions of the float inputs: the normal equations over the rationals,
    with the exact powers of x, solved by Gauss-Jordan elimination."""
    powers = MODEL_POWERS[model]
    rows = [[Fraction(x) ** p for p in powers] for x in xs]
    ys = [Fraction(y) for y in ys]
    k = len(powers)
    system = [[sum(r[i] * r[j] for r in rows) for j in range(k)]
              + [sum(r[i] * y for r, y in zip(rows, ys))] for i in range(k)]
    for col in range(k):
        pivot = next(i for i in range(col, k) if system[i][col] != 0)
        system[col], system[pivot] = system[pivot], system[col]
        for i in range(k):
            if i != col and system[i][col] != 0:
                factor = system[i][col] / system[col][col]
                system[i] = [a - factor * b for a, b in zip(system[i], system[col])]
    return [system[i][k] / system[i][i] for i in range(k)]


def singular_values(matrix):
    """Singular values, descending."""
    return list(np.linalg.svd(np.asarray(matrix), compute_uv=False))


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


def bisect_boundary(predicate, lo, hi, tol):
    """Boundary point where a predicate flips on [lo, hi], within tol."""
    plo, phi = bool(predicate(lo)), bool(predicate(hi))
    if plo == phi:
        raise ValueError("predicate does not flip on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if bool(predicate(mid)) == plo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def feasible_intervals(pred, grid_resolution, endpoint_tol=1e-10):
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
                lo = bisect_boundary(pred, thetas[start - 1], thetas[start], endpoint_tol)
            hi = thetas[last]
            if last < len(flags) - 1:
                hi = bisect_boundary(pred, thetas[last], thetas[last + 1], endpoint_tol)
            intervals.append((lo, hi))
            start = None
    return tuple(intervals)


def intersect_unions(u1, u2, tol):
    out = []
    for lo1, hi1 in u1:
        for lo2, hi2 in u2:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi + tol:
                out.append((lo, max(lo, hi)))
    return tuple(sorted(out))


def grid_cloning_theta_sets(p_r, p_s, grid_resolution=2048, theta_tol=1e-9):
    """(S1, S2, theta_max) of the cloning bounds by grid scan and bisection.

    Endpoints are refined to 1e-10; the unions are intersected with
    `theta_tol` slack so that windows touching in one angle still meet. A
    window narrower than the grid spacing can fall between grid points and
    be missed.
    """
    s1 = feasible_intervals(lambda t: g_rail(t) >= p_r, grid_resolution)
    s2 = feasible_intervals(lambda t: g_step(t) >= p_s, grid_resolution)
    common = intersect_unions(s1, s2, theta_tol)
    return s1, s2, max((hi for lo, hi in common), default=None)


# ---------------------------------------------------------------------------
# frozen expected values (exact rationals and closed forms, derived once with
# an exact-arithmetic pipeline and spot-checked against the oracles above)

F = Fraction

EXPECTED = {
    # (m, boundary): per-size pipeline quantities
    (2, "open"): dict(
        count=2, p_r=F(2, 3), p_s=F(2, 3), p_avg=None,
        ggm=F(1, 4), ggm_mask=0x3, theta=None),
    (3, "open"): dict(
        count=3, p_r=F(5, 11), p_s=F(25, 33), p_avg=F(17, 33),
        ggm=F(3, 22), ggm_mask=0x9, theta=None),
    (5, "open"): dict(
        count=8, p_r=F(86, 201), p_s=F(733, 1005),
        ggm=0.090348138876, ggm_mask=0x63,
        theta=math.asin(math.sqrt(68.0 / 335.0))),
    (2, "periodic"): dict(count=5),
    (3, "periodic"): dict(
        count=6, p_r=F(5, 9), p_s=F(5, 9), p_avg=F(5, 9),
        ggm=F(1, 3), ggm_mask=0x3, theta=math.asin(1.0 / math.sqrt(3.0)),
        lhs=F(1, 3)),
    (4, "periodic"): dict(
        count=9, p_r=F(11, 21), p_s=F(11, 21), p_avg=F(11, 21),
        ggm=F(143, 504), ggm_mask=0xF, theta=math.asin(math.sqrt(5.0 / 14.0)),
        lhs=F(12, 49)),
    (5, "periodic"): dict(
        count=13, p_r=F(89, 201), p_s=F(43, 67), p_avg=F(307, 603),
        ggm=0.248930971690, ggm_mask=0x63,
        theta=math.asin(math.sqrt(18.0 / 67.0)), lhs=F(1203, 4489)),
    (6, "periodic"): dict(
        count=20, p_r=F(18, 43), p_s=F(2, 3), p_avg=F(194, 387),
        ggm=0.225555700263, ggm_mask=0xC3, theta=math.pi / 6.0,
        lhs=F(2091, 7396)),
}

# the published construction (periodic, twisted odd closure), N = 2m = 6..12
PAPER_SIZES = ((3, "periodic"), (4, "periodic"), (5, "periodic"), (6, "periodic"))

# every ladder configuration with N = 2m <= 16 sites
CONFIGS = [(m, boundary) for m in range(2, 9) for boundary in ("open", "periodic")]
# every ladder configuration with N = 2m <= 12 sites
SMALL_CONFIGS = [(m, boundary) for m, boundary in CONFIGS if m <= 6]

# The parametrized tests name each ladder under the two closures an odd
# periodic ladder once had. "twist" is the one build_ladder keeps; "forbid"
# left the odd wraps without dimers, so its state was the open ladder's, and
# its cases still run on that state.
CLOSURES = ("forbid", "twist")


def with_closures(configs):
    """Each (m, boundary) of `configs` as (m, boundary, closure), both closures."""
    return [(m, boundary, closure) for m, boundary in configs for closure in CLOSURES]


def ladder_key(m, boundary, closure):
    """The (m, boundary) of the ladder state an (m, boundary, closure) names."""
    if closure == "forbid" and boundary == "periodic" and m % 2:
        return m, "open"
    return m, boundary
