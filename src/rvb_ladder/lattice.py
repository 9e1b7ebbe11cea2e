"""Bipartite lattices and their nearest-neighbor dimer coverings.

A `Lattice` is n sites and an edge list. An edge is its A end, its B end
and its kind, so two parallel bonds are equal edges; the A sites are the
edges' `a` ends and the B sites their `b` ends, and `Lattice` refuses a
site that is both. The enumeration, the count and the states read nothing
else. `build_ladder` is the ladder constructor: sites of a 2 x m ladder
are indexed row-major, site = row * m + col with row in {0, 1}, a site is
an A end iff (row + col) is even (the checkerboard rule), and edges
within a row are "rails", edges within a column are "steps".
"""

import functools
import operator
from dataclasses import dataclass

BOUNDARIES = ("open", "periodic")


@dataclass(frozen=True)
class Edge:
    """One lattice bond; `a` is its A end, `b` its B end."""

    a: int
    b: int
    kind: str  # "rail" or "step"

    def __post_init__(self):
        object.__setattr__(self, "a", _integer(self.a, "edge end a"))
        object.__setattr__(self, "b", _integer(self.b, "edge end b"))


def _integer(value, name):
    """`value` as an int by `operator.index`: no float, no string."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}={_shorten(repr(value))} is not an integer") from None


def _shorten(value):
    """`str(value)` cut to 20 characters and an ellipsis: an error names input of
    any length. A long int is cut from its leading digits, `value // 10**drop`,
    since `str` refuses an int past `sys.get_int_max_str_digits()` digits."""
    if isinstance(value, int) and value.bit_length() > 64:  # 20 digits or more
        # (bit_length - 1) * log10(2) rounded down, less a margin, stays below
        # the digit count, so the head keeps more than the 20 characters shown
        drop = max(0, int((value.bit_length() - 1) * 0.30102) - 20)
        text = ("-" if value < 0 else "") + str(abs(value) // 10 ** drop)
    else:
        text = str(value)
    return text if len(text) <= 20 else text[:20] + "\u2026"


@dataclass(frozen=True)
class Lattice:
    """n >= 1 sites and their A-end-first edges; frozen, so the cached
    `coverings` never go stale."""

    n: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "site count n"))
        if self.n < 1:
            raise ValueError(f"need n >= 1 sites, got {_shorten(self.n)}")
        out = [end for e in self.edges for end in (e.a, e.b) if not 0 <= end < self.n]
        if out:
            raise ValueError(f"edge end {_shorten(out[0])} is outside the {_shorten(self.n)} sites")
        # one rule refuses self-loops and odd cycles too: both need such a site
        both = {e.a for e in self.edges} & {e.b for e in self.edges}
        if both:
            raise ValueError(f"site {min(both)} is the A end of one edge and the B end of another")

    @functools.cached_property
    def coverings(self):
        """The sorted tuple of dimer coverings, found once per object (equal
        lattices built apart share nothing) by `_matchings`."""
        return _matchings(self.n, self.edges)


def _matchings(n, edges):
    """Sorted tuple of the perfect matchings, each a sorted tuple of (a, b).

    Backtracking over the lowest uncovered site, the lowest zero bit of the
    int `covered`. Parallel edges (periodic m = 2) give one covering each.
    """
    by_site = [[] for _ in range(n)]
    for e in edges:
        by_site[e.a].append((1 << e.b, (e.a, e.b)))
        by_site[e.b].append((1 << e.a, (e.a, e.b)))
    full = (1 << n) - 1
    out = []
    chosen = []

    def extend(covered):
        if covered == full:
            out.append(tuple(sorted(chosen)))
            return
        low = ~covered & (covered + 1)
        for bit, pair in by_site[low.bit_length() - 1]:
            if not covered & bit:
                chosen.append(pair)
                extend(covered | low | bit)
                chosen.pop()

    extend(0)
    return tuple(sorted(out))


def build_ladder(m, boundary="periodic", odd_wrap="twist"):
    """Construct the 2 x m ladder.

    boundary: "open" or "periodic". For periodic ladders with odd m straight
    wrap rails would join two A or two B sites, so they cross between the
    rows instead (the twisted, Moebius closure) and every edge stays
    bipartite. `odd_wrap` names that closure; "twist" is its only value.
    """
    m = _integer(m, "ladder size m")
    if m < 2:
        raise ValueError(f"need m >= 2, got {_shorten(m)}")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {_shorten(repr(boundary))}")
    if odd_wrap != "twist":
        raise ValueError(f"odd_wrap must be 'twist', got {_shorten(repr(odd_wrap))}")

    edges = []

    def add(u, v, kind):
        a, b = (u, v) if sum(divmod(u, m)) % 2 == 0 else (v, u)
        edges.append(Edge(a, b, kind))

    for row in range(2):
        for col in range(m - 1):
            add(row * m + col, row * m + col + 1, "rail")
    if boundary == "periodic":
        other = m if m % 2 else 0  # odd m: each wrap rail ends on the other row
        add(m - 1, other, "rail")
        add(2 * m - 1, m - other, "rail")
    for col in range(m):
        add(0 * m + col, 1 * m + col, "step")

    return Lattice(n=2 * m, edges=tuple(edges))


def enumerate_coverings(lattice):
    """All perfect matchings, as sorted tuples of (a, b), in sorted order: a
    new list of `lattice.coverings` on each call, so no caller can change it.
    The benchmark's reader of the coverings; the package reads the property."""
    return list(lattice.coverings)


def count_coverings(lattice):
    """Number of perfect matchings: the length of `lattice.coverings`. The
    benchmark's reader of the count; the package reads the property."""
    return len(lattice.coverings)
