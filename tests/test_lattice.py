"""Lattice construction, covering enumeration, and the independent count."""

import collections

import pytest

from rvb_ladder import (automorphisms, build_ladder, count_coverings, describe,
                        enumerate_coverings)

import oracles

ALL_CONFIGS = [(m, b, w)
               for m in range(2, 7)
               for b in ("open", "periodic")
               for w in ("forbid", "twist")]


def test_sites_and_sublattices():
    lat = build_ladder(4, "open")
    assert lat.n == 8
    assert lat.site(0, 2) == 2 and lat.site(1, 2) == 6
    assert lat.row_col(6) == (1, 2)
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
             and abs(lat.row_col(e.a)[1] - lat.row_col(e.b)[1]) > 1]
    assert len(wraps) == 2
    for e in wraps:
        assert lat.row_col(e.a)[0] != lat.row_col(e.b)[0]
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
    for m, b, w in ALL_CONFIGS:
        lat = build_ladder(m, b, w)
        assert count_coverings(lat) == len(enumerate_coverings(lat)), (m, b, w)


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


def test_describe_format():
    text = describe(build_ladder(3, "periodic"))
    lines = text.splitlines()
    assert lines[0] == "site 0 row 0 col 0 sublattice A"
    assert lines[4] == "site 4 row 1 col 1 sublattice A"
    assert "edge 0 1 rail allowed" in lines
    assert "edge 0 2 rail forbidden" in lines
    assert "edge 0 3 step allowed" in lines
    assert len(lines) == 6 + 9


def test_degree_and_incident_edges():
    lat = build_ladder(4, "periodic")
    for s in lat.sites:
        assert lat.degree(s) == 3
        assert len(lat.incident_edges(s)) == 3
    lat_open = build_ladder(4, "open")
    assert lat_open.degree(0) == 2
    assert lat_open.degree(1) == 3


def _allowed_edge_multiset(lat, perm=None):
    perm = perm or tuple(lat.sites)
    return collections.Counter(frozenset((perm[e.a], perm[e.b]))
                               for e in lat.edges if e.dimer_allowed)


def test_automorphisms_preserve_allowed_edges():
    for m in range(2, 9):
        for b, w in (("open", "forbid"), ("periodic", "forbid"), ("periodic", "twist")):
            lat = build_ladder(m, b, w)
            group = automorphisms(lat)
            assert group[0] == tuple(lat.sites), (m, b, w)
            assert len(set(group)) == len(group)
            edges = _allowed_edge_multiset(lat)
            for perm in group:
                assert sorted(perm) == list(lat.sites)
                assert _allowed_edge_multiset(lat, perm) == edges, (m, b, w, perm)


def test_automorphism_group_orders():
    assert len(automorphisms(build_ladder(2, "open"))) == 8  # the 4-cycle
    assert len(automorphisms(build_ladder(3, "periodic", "twist"))) == 72  # K_3,3
    assert len(automorphisms(build_ladder(4, "periodic"))) == 48  # the cube
    for m in range(5, 9):
        # prism (even m) or Moebius ladder (odd m): rotations, reflections, leg swap
        assert len(automorphisms(build_ladder(m, "periodic", "twist"))) == 4 * m
    for m in range(3, 9):
        # leg swap and left-right reflection
        assert len(automorphisms(build_ladder(m, "open"))) == 4
