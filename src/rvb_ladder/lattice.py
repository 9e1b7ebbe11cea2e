"""Two-leg ladder lattices and their nearest-neighbor dimer coverings.

Sites of a 2 x m ladder are indexed row-major: site = row * m + col with
row in {0, 1}. The sublattice label is the checkerboard rule, A iff
(row + col) is even. Edges within a row are "rails", edges within a
column are "steps". A dimer may only occupy an edge joining the two
sublattices; such edges store their A-site endpoint first.
"""

import itertools
from dataclasses import dataclass

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

    def sites(self):
        return (self.a, self.b)


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

    def site(self, row, col):
        return row * self.m + col

    def row_col(self, site):
        return divmod(site, self.m)

    def degree(self, site):
        return sum(1 for e in self.edges if site in (e.a, e.b))

    def incident_edges(self, site):
        return [e for e in self.edges if site in (e.a, e.b)]


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
    """Number of perfect matchings by a column-by-column dynamic program.

    Independent of the backtracking enumeration: sweep the columns left to
    right, tracking as the frontier which sites of the current column were
    already matched by a rail from the previous column. Periodic wraps are
    handled by conditioning on the subset of wrap edges used (their endpoints
    become pre-matched) and running the open-ladder sweep on the rest, so the
    twisted closure and the doubled rails of the m = 2 ring both count
    correctly.
    """
    m = lattice.m
    n_direct = 2 * (m - 1)  # construction order: direct rails, wrap rails, steps
    steps = [0] * m
    rails = {}  # (row, col) -> multiplicity of allowed rail col -> col+1
    wraps = []
    for e in lattice.edges:
        if not e.dimer_allowed:
            continue
        if e.kind == "step":
            steps[lattice.row_col(e.a)[1]] += 1
        elif e.index < n_direct:
            ra, ca = lattice.row_col(e.a)
            cb = lattice.row_col(e.b)[1]
            key = (ra, min(ca, cb))
            rails[key] = rails.get(key, 0) + 1
        else:
            wraps.append(e)

    def sweep(pre_matched):
        # frontier state: (top, bottom) of the current column already matched
        state = {(False, False): 1}
        for c in range(m):
            last = c == m - 1
            nxt = {}
            for (top, bot), ways in state.items():
                top_pre = (0, c) in pre_matched
                bot_pre = (1, c) in pre_matched
                if (top and top_pre) or (bot and bot_pre):
                    continue  # a wrap dimer and a rail dimer collide
                need_top = not top and not top_pre
                need_bot = not bot and not bot_pre
                if not need_top and not need_bot:
                    options = [((False, False), 1)]
                elif need_top and need_bot:
                    options = []
                    if steps[c]:
                        options.append(((False, False), steps[c]))
                    if not last:
                        w = rails.get((0, c), 0) * rails.get((1, c), 0)
                        if w:
                            options.append(((True, True), w))
                elif need_top:
                    options = ([((True, False), rails[(0, c)])]
                               if not last and rails.get((0, c)) else [])
                else:
                    options = ([((False, True), rails[(1, c)])]
                               if not last and rails.get((1, c)) else [])
                for out, mult in options:
                    nxt[out] = nxt.get(out, 0) + ways * mult
            state = nxt
        return state.get((False, False), 0)

    total = 0
    for subset in range(1 << len(wraps)):
        chosen = [w for k, w in enumerate(wraps) if (subset >> k) & 1]
        ends = [s for w in chosen for s in (w.a, w.b)]
        if len(set(ends)) != len(ends):
            continue  # wrap dimers sharing a site cannot coexist
        total += sweep({lattice.row_col(s) for s in ends})
    return total


def automorphisms(lattice):
    """All site permutations preserving the multiset of dimer-allowed edges.

    Each is a tuple `perm` with `perm[site]` the image of `site`; the
    identity comes first and the order is deterministic. Such a permutation
    maps dimer coverings to dimer coverings, so it maps the liquid state to
    plus or minus itself. Backtracking over sites in order, checking each new
    image against the multiplicity of every pair already placed.
    """
    n = lattice.n
    mult = [[0] * n for _ in range(n)]
    for e in lattice.edges:
        if e.dimer_allowed:
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


def describe(lattice):
    """Plain-text dump: one line per site, then one per edge."""
    lines = []
    for s in lattice.sites:
        r, c = lattice.row_col(s)
        lines.append(f"site {s} row {r} col {c} sublattice {lattice.sublattice[s]}")
    for e in lattice.edges:
        status = "allowed" if e.dimer_allowed else "forbidden"
        lines.append(f"edge {e.a} {e.b} {e.kind} {status}")
    return "\n".join(lines)
