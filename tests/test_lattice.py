"""Lattice construction, covering enumeration, and the independent count."""

import collections
import math

import pytest

from rvb_ladder import (Edge, LadderLattice, build_ladder, count_coverings,
                        enumerate_coverings)
from rvb_ladder.measures import MAX_SITES

import oracles

ALL_CONFIGS = [(m, b, w)
               for m in range(2, 7)
               for b in ("open", "periodic")
               for w in ("forbid", "twist")]

# every configuration the sweep accepts, N = 2m <= MAX_SITES
SWEEP_CONFIGS = [(m, b, w)
                 for m in range(2, MAX_SITES // 2 + 1)
                 for b in ("open", "periodic")
                 for w in ("forbid", "twist")]


def test_sites_and_sublattices():
    lat = build_ladder(4, "open")
    assert lat.n == 8
    # site = row * m + col: the step of column 2 joins sites 2 and 6
    steps = sorted((min(e.a, e.b), max(e.a, e.b)) for e in lat.edges if e.kind == "step")
    assert steps == [(0, 4), (1, 5), (2, 6), (3, 7)]
    # checkerboard: A iff row+col even
    assert lat.sublattice == ("A", "B", "A", "B", "B", "A", "B", "A")


def test_open_m2_shape():
    lat = build_ladder(2, "open")
    assert lat.n == 4
    assert len(lat.edges) == 4
    assert all(e.dimer_allowed for e in lat.edges)
    assert sorted(e.kind for e in lat.edges) == ["rail", "rail", "step", "step"]


def test_open_edges_match_hand_derived_lists():
    for m, expected in ((2, oracles.M2_OPEN_EDGES), (3, oracles.M3_OPEN_EDGES)):
        lat = build_ladder(m, "open")
        assert tuple((e.a, e.b, e.kind) for e in lat.edges) == expected


def test_periodic_m3_forbid_wraps():
    lat = build_ladder(3, "periodic")  # forbid is the default
    assert lat.n == 6
    assert len(lat.edges) == 9
    forbidden = [e for e in lat.edges if not e.dimer_allowed]
    assert len(forbidden) == 2
    assert all(e.kind == "rail" for e in forbidden)
    assert sorted(tuple(sorted((e.a, e.b))) for e in forbidden) == [(0, 2), (3, 5)]


def test_periodic_m4_all_allowed():
    lat = build_ladder(4, "periodic")
    assert len(lat.edges) == 12
    assert all(e.dimer_allowed for e in lat.edges)


def test_twist_wrap_crosses_rows_and_restores_bipartiteness():
    lat = build_ladder(5, "periodic", "twist")
    wraps = [e for e in lat.edges if e.kind == "rail"
             and abs(e.a % lat.m - e.b % lat.m) > 1]
    assert len(wraps) == 2
    for e in wraps:
        assert e.a // lat.m != e.b // lat.m
    # with the twisted closure every edge joins the two sublattices
    assert all(e.dimer_allowed for e in lat.edges)
    for e in lat.edges:
        assert lat.sublattice[e.a] == "A" and lat.sublattice[e.b] == "B"


def test_twist_ignored_for_even_m_and_open():
    # the stored odd_wrap label differs, the geometry must not
    for args in ((4, "periodic"), (5, "open")):
        twist = build_ladder(*args, "twist")
        forbid = build_ladder(*args, "forbid")
        assert twist.edges == forbid.edges
        assert twist.sublattice == forbid.sublattice


def test_periodic_m2_parallel_rails_kept_distinct():
    lat = build_ladder(2, "periodic")
    rails = [e for e in lat.edges if e.kind == "rail"]
    assert len(rails) == 4  # two doubled rungs of the 2-ring
    assert len({(e.a, e.b, e.index) for e in rails}) == 4
    assert count_coverings(lat) == 5


def test_dimer_allowed_edges_are_a_first():
    for m, b, w in ALL_CONFIGS:
        lat = build_ladder(m, b, w)
        for e in lat.edges:
            if e.dimer_allowed:
                assert lat.sublattice[e.a] == "A"
                assert lat.sublattice[e.b] == "B"
            else:
                assert lat.sublattice[e.a] == lat.sublattice[e.b]


def test_validation_errors():
    with pytest.raises(ValueError):
        build_ladder(1, "open")
    with pytest.raises(ValueError):
        build_ladder(3, "moebius")
    with pytest.raises(ValueError):
        build_ladder(3, "periodic", "drop")


def test_enumeration_matches_brute_force_small():
    for m, edges in ((2, oracles.M2_OPEN_EDGES), (3, oracles.M3_OPEN_EDGES)):
        lat = build_ladder(m, "open")
        got = enumerate_coverings(lat)
        want = oracles.brute_force_coverings(lat.n, edges)
        assert got == want


def test_enumeration_matches_brute_force_all_configs():
    for m, b, w in ALL_CONFIGS:
        lat = build_ladder(m, b, w)
        allowed = [(e.a, e.b) for e in lat.edges if e.dimer_allowed]
        got = enumerate_coverings(lat)
        want = oracles.brute_force_coverings(lat.n, allowed)
        assert got == want, (m, b, w)


def test_every_covering_is_a_perfect_matching():
    for m, b, w in ALL_CONFIGS:
        lat = build_ladder(m, b, w)
        for covering in enumerate_coverings(lat):
            seen = [s for pair in covering for s in pair]
            assert sorted(seen) == list(lat.sites)


def test_count_matches_enumeration_everywhere():
    assert len(SWEEP_CONFIGS) == 36
    for m, b, w in SWEEP_CONFIGS:
        lat = build_ladder(m, b, w)
        assert count_coverings(lat) == len(enumerate_coverings(lat)), (m, b, w)


def _torus(rows, cols):
    """rows x cols square lattice with both directions wrapped (both even)."""
    sub = tuple("A" if (s // cols + s % cols) % 2 == 0 else "B"
                for s in range(rows * cols))
    edges = []
    for s in range(rows * cols):
        r, c = divmod(s, cols)
        for t, kind in ((r * cols + (c + 1) % cols, "rail"),
                        (((r + 1) % rows) * cols + c, "step")):
            a, b = (s, t) if sub[s] == "A" else (t, s)
            edges.append(Edge(a, b, kind, True, len(edges)))
    return LadderLattice(m=cols, boundary="periodic", odd_wrap="forbid",
                         n=rows * cols, sublattice=sub, edges=tuple(edges))


def test_count_on_a_torus_that_is_not_a_ladder():
    # the count reads only the bond matrix, so it holds off the ladder
    lat = _torus(4, 4)
    assert count_coverings(lat) == len(enumerate_coverings(lat)) == 272
    # a three-site path A-B-A has unequal sublattices and no covering
    path = LadderLattice(m=3, boundary="open", odd_wrap="forbid", n=3,
                         sublattice=("A", "B", "A"),
                         edges=(Edge(0, 1, "rail", True, 0), Edge(2, 1, "rail", True, 1)))
    assert count_coverings(path) == len(enumerate_coverings(path)) == 0


def test_expected_covering_counts():
    for (m, b, w), exp in oracles.EXPECTED.items():
        lat = build_ladder(m, b, w)
        assert count_coverings(lat) == exp["count"], (m, b, w)


def test_open_counts_follow_fibonacci_recurrence():
    counts = {m: count_coverings(build_ladder(m, "open")) for m in range(2, 8)}
    assert counts[2] == 2 and counts[3] == 3
    for m in range(4, 8):
        assert counts[m] == counts[m - 1] + counts[m - 2]


def test_odd_periodic_forbid_coverings_equal_open():
    for m in (3, 5):
        per = enumerate_coverings(build_ladder(m, "periodic", "forbid"))
        opn = enumerate_coverings(build_ladder(m, "open"))
        assert per == opn


def test_periodic_m3_site_and_edge_table():
    lat = build_ladder(3, "periodic")
    # (row, col) = divmod(site, m); A iff row + col is even
    assert divmod(0, lat.m) == (0, 0) and lat.sublattice[0] == "A"
    assert divmod(4, lat.m) == (1, 1) and lat.sublattice[4] == "A"
    table = [(e.a, e.b, e.kind, e.dimer_allowed) for e in lat.edges]
    assert (0, 1, "rail", True) in table
    assert (0, 2, "rail", False) in table
    assert (0, 3, "step", True) in table
    assert lat.n == 6 and len(table) == 9


def test_degree_and_incident_edges():
    def degree(lat, s):
        return len([e for e in lat.edges if s in (e.a, e.b)])

    lat = build_ladder(4, "periodic")
    for s in lat.sites:
        assert degree(lat, s) == 3
    lat_open = build_ladder(4, "open")
    assert degree(lat_open, 0) == 2
    assert degree(lat_open, 1) == 3


def _allowed_edge_multiset(lat, perm=None):
    perm = perm or tuple(lat.sites)
    return collections.Counter(frozenset((perm[e.a], perm[e.b]))
                               for e in lat.edges if e.dimer_allowed)


def test_automorphisms_preserve_allowed_edges():
    for m in range(2, 9):
        for b, w in (("open", "forbid"), ("periodic", "forbid"), ("periodic", "twist")):
            lat = build_ladder(m, b, w)
            group = oracles.automorphisms(lat)
            assert group[0] == tuple(lat.sites), (m, b, w)
            assert len(set(group)) == len(group)
            edges = _allowed_edge_multiset(lat)
            for perm in group:
                assert sorted(perm) == list(lat.sites)
                assert _allowed_edge_multiset(lat, perm) == edges, (m, b, w, perm)


def _group_order(lat):
    """Order of the group, from the oracle's enumeration and from the closure
    of the generators, which must agree."""
    order = len(oracles.automorphisms(lat))
    assert len(oracles.group_closure(oracles.automorphism_generators(lat), lat.n)) == order
    return order


def test_automorphism_group_orders():
    assert _group_order(build_ladder(2, "open")) == 8  # the 4-cycle
    assert _group_order(build_ladder(3, "periodic", "twist")) == 72  # K_3,3
    assert _group_order(build_ladder(4, "periodic")) == 48  # the cube
    for m in range(5, 9):
        # prism (even m) or Moebius ladder (odd m): rotations, reflections, leg swap
        assert _group_order(build_ladder(m, "periodic", "twist")) == 4 * m
    for m in range(3, 9):
        # leg swap and left-right reflection
        assert _group_order(build_ladder(m, "open")) == 4


def _basic_orbit_sizes(gens, n):
    """Size of the orbit of site i under the generators that fix sites
    0..i-1, for every level i of the stabilizer chain."""
    sizes = []
    for i in range(n):
        level = [g for g in gens if g[:i] == tuple(range(i))]
        orbit = {g[i] for g in oracles.group_closure(level, n)}
        sizes.append(len(orbit))
    return sizes


@pytest.mark.parametrize("m, b, w", SWEEP_CONFIGS)
def test_automorphism_generators_generate_the_group(m, b, w):
    lat = build_ladder(m, b, w)
    gens = oracles.automorphism_generators(lat)
    assert len(gens) <= 4
    edges = _allowed_edge_multiset(lat)
    for perm in gens:
        assert sorted(perm) == list(lat.sites)
        assert _allowed_edge_multiset(lat, perm) == edges, perm
    group = oracles.group_closure(gens, lat.n)
    assert group == set(oracles.automorphisms(lat))
    # the group order is the product of the basic orbit sizes
    assert math.prod(_basic_orbit_sizes(gens, lat.n)) == len(group)
