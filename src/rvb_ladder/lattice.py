"""Two-leg ladder lattices and their nearest-neighbor dimer coverings.

Sites of a 2 x m ladder are indexed row-major: site = row * m + col with
row in {0, 1}. The sublattice label is the checkerboard rule, A iff
(row + col) is even. Edges within a row are "rails", edges within a
column are "steps". A dimer may only occupy an edge joining the two
sublattices; such edges store their A-site endpoint first.
"""

from dataclasses import dataclass

import numpy as np

BOUNDARIES = ("open", "periodic")
ODD_WRAPS = ("forbid", "twist")


@dataclass(frozen=True)
class Edge:
    """One lattice bond. For dimer-allowed edges `a` is the A-sublattice site."""

    a: int
    b: int
    kind: str  # "rail" or "step"
    dimer_allowed: bool
    index: int  # position in LadderLattice.edges (keeps parallel edges distinct)


@dataclass(frozen=True)
class LadderLattice:
    m: int
    boundary: str
    odd_wrap: str
    n: int
    sublattice: tuple  # sublattice[site] = "A" | "B"
    edges: tuple

    @property
    def sites(self):
        return range(self.n)


def build_ladder(m, boundary="periodic", odd_wrap="forbid"):
    """Construct the 2 x m ladder.

    boundary: "open" or "periodic". For periodic ladders with odd m the two
    wrap rails would join same-sublattice sites; `odd_wrap` selects how they
    are treated:
      "forbid" - keep the straight wrap edges but mark them dimer-forbidden;
      "twist"  - cross the wrap rails between the rows (Moebius closure),
                 which restores bipartiteness and leaves them dimer-allowed.
    `odd_wrap` has no effect for open or even-m lattices.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    if odd_wrap not in ODD_WRAPS:
        raise ValueError(f"odd_wrap must be one of {ODD_WRAPS}, got {odd_wrap!r}")

    n = 2 * m
    sub = tuple("A" if (divmod(s, m)[0] + divmod(s, m)[1]) % 2 == 0 else "B"
                for s in range(n))

    edges = []

    def add(u, v, kind):
        if sub[u] != sub[v]:
            a, b = (u, v) if sub[u] == "A" else (v, u)
            edges.append(Edge(a, b, kind, True, len(edges)))
        else:
            a, b = min(u, v), max(u, v)
            edges.append(Edge(a, b, kind, False, len(edges)))

    for row in range(2):
        for col in range(m - 1):
            add(row * m + col, row * m + col + 1, "rail")
    if boundary == "periodic":
        if m % 2 == 1 and odd_wrap == "twist":
            add(0 * m + (m - 1), 1 * m + 0, "rail")
            add(1 * m + (m - 1), 0 * m + 0, "rail")
        else:
            add(0 * m + (m - 1), 0 * m + 0, "rail")
            add(1 * m + (m - 1), 1 * m + 0, "rail")
    for col in range(m):
        add(0 * m + col, 1 * m + col, "step")

    return LadderLattice(m=m, boundary=boundary, odd_wrap=odd_wrap, n=n,
                         sublattice=sub, edges=tuple(edges))


def enumerate_coverings(lattice):
    """All perfect matchings by dimer-allowed edges, as sorted tuples of (a, b).

    Recursive backtracking over the lowest uncovered site. Parallel edges
    (periodic m = 2) contribute one covering each. Deterministic output order.
    """
    allowed = [e for e in lattice.edges if e.dimer_allowed]
    by_site = {s: [] for s in lattice.sites}
    for e in allowed:
        by_site[e.a].append(e)
        by_site[e.b].append(e)

    out = []
    covered = [False] * lattice.n
    chosen = []

    def extend():
        try:
            s = covered.index(False)
        except ValueError:
            out.append(tuple(sorted((e.a, e.b) for e in chosen)))
            return
        for e in by_site[s]:
            other = e.b if e.a == s else e.a
            if covered[other]:
                continue
            covered[s] = covered[other] = True
            chosen.append(e)
            extend()
            chosen.pop()
            covered[s] = covered[other] = False

    extend()
    return sorted(out)


def count_coverings(lattice):
    """Number of perfect matchings: the permanent of the A x B bond matrix.

    Entry (i, j) counts the dimer-allowed edges from the i-th A site to the
    j-th B site, so the doubled rails of the periodic m = 2 ring count twice.
    Ryser's formula sums over the 2^k column subsets S of the k x k matrix:
    perm = sum_S (-1)^(k - |S|) prod_i sum_{j in S} M_ij, exact in int64.
    It reads only the edge list and the sublattice labels, so it holds on
    any bipartite lattice and shares nothing with the backtracking
    enumeration.
    """
    a_sites = [s for s in lattice.sites if lattice.sublattice[s] == "A"]
    b_sites = [s for s in lattice.sites if lattice.sublattice[s] == "B"]
    if len(a_sites) != len(b_sites):
        return 0
    k = len(a_sites)
    row = {s: i for i, s in enumerate(a_sites)}
    col = {s: j for j, s in enumerate(b_sites)}
    bonds = np.zeros((k, k), dtype=np.int64)
    for e in lattice.edges:
        if e.dimer_allowed:
            bonds[row[e.a], col[e.b]] += 1
    subsets = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    signs = 1 - 2 * ((k - subsets.sum(axis=1)) & 1)
    return int(signs @ np.prod(subsets @ bonds.T, axis=1))

