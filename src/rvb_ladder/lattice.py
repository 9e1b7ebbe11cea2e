"""Bipartite lattices and their nearest-neighbor dimer coverings.

A `Lattice` is n sites with sublattice labels and an edge list; every edge
joins the two sublattices and stores its A-site endpoint first, and
`Lattice` refuses any other edge. The enumeration, the count and the
states read nothing else. `build_ladder` is the ladder constructor: sites
of a 2 x m ladder are indexed row-major, site = row * m + col with row in
{0, 1}, the sublattice label is the checkerboard rule, A iff (row + col)
is even, and edges within a row are "rails", edges within a column are
"steps".
"""

import operator
from dataclasses import dataclass

import numpy as np

BOUNDARIES = ("open", "periodic")


@dataclass(frozen=True)
class Edge:
    """One lattice bond; `a` is the A-sublattice site."""

    a: int
    b: int
    kind: str  # "rail" or "step"
    index: int  # position in Lattice.edges (keeps parallel edges distinct)


@dataclass(frozen=True)
class Lattice:
    n: int
    sublattice: tuple  # sublattice[site] = "A" | "B"
    edges: tuple

    def __post_init__(self):
        if len(self.sublattice) != self.n:
            raise ValueError(f"{len(self.sublattice)} sublattice labels for {self.n} sites")
        for e in self.edges:
            if not (0 <= e.a < self.n and 0 <= e.b < self.n):
                raise ValueError(f"{e} has an end outside the {self.n} sites")
            if (self.sublattice[e.a], self.sublattice[e.b]) != ("A", "B"):
                raise ValueError(f"{e} does not run from an A site to a B site")

    @property
    def sites(self):
        return range(self.n)


def build_ladder(m, boundary="periodic", odd_wrap="twist"):
    """Construct the 2 x m ladder.

    boundary: "open" or "periodic". For periodic ladders with odd m straight
    wrap rails would join same-sublattice sites, so they cross between the
    rows instead (the twisted, Moebius closure) and every edge stays
    bipartite. `odd_wrap` names that closure; "twist" is its only value.
    """
    try:
        m = operator.index(m)  # numpy integers pass, floats and strings do not
    except TypeError:
        raise ValueError(f"ladder size m={m!r} is not an integer") from None
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    if odd_wrap != "twist":
        raise ValueError(f"odd_wrap must be 'twist', got {odd_wrap!r}")

    n = 2 * m
    sub = tuple("A" if (divmod(s, m)[0] + divmod(s, m)[1]) % 2 == 0 else "B"
                for s in range(n))

    edges = []

    def add(u, v, kind):
        a, b = (u, v) if sub[u] == "A" else (v, u)
        edges.append(Edge(a, b, kind, len(edges)))

    for row in range(2):
        for col in range(m - 1):
            add(row * m + col, row * m + col + 1, "rail")
    if boundary == "periodic":
        other = m if m % 2 else 0  # odd m: each wrap rail ends on the other row
        add(m - 1, other, "rail")
        add(2 * m - 1, m - other, "rail")
    for col in range(m):
        add(0 * m + col, 1 * m + col, "step")

    return Lattice(n=n, sublattice=sub, edges=tuple(edges))


def enumerate_coverings(lattice):
    """All perfect matchings, as sorted tuples of (a, b).

    Recursive backtracking over the lowest uncovered site. Parallel edges
    (periodic m = 2) contribute one covering each. Deterministic output order.
    """
    by_site = {s: [] for s in lattice.sites}
    for e in lattice.edges:
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

    Entry (i, j) counts the edges from the i-th A site to the j-th B site,
    so the doubled rails of the periodic m = 2 ring count twice.
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
        bonds[row[e.a], col[e.b]] += 1
    subsets = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    signs = 1 - 2 * ((k - subsets.sum(axis=1)) & 1)
    return int(signs @ np.prod(subsets @ bonds.T, axis=1))

