"""Lattice construction, covering enumeration, and the independent count."""

import collections
import math

import numpy as np
import pytest

from rvb_ladder import (Edge, Lattice, RunConfig, build_ladder, edge_werner_parameters,
                        lattice, poly_fit, run_sweep, rvb_state)
from rvb_ladder.measures import MAX_SITES

import oracles

# every configuration the sweep accepts, N = 2m <= MAX_SITES
SWEEP_CONFIGS = [(m, b) for m in range(2, MAX_SITES // 2 + 1) for b in ("open", "periodic")]


def test_sites_and_sublattices():
    lat = build_ladder(4, "open")
    assert lat.n == 8
    # site = row * m + col: the step of column 2 joins sites 2 and 6
    steps = sorted((min(e.a, e.b), max(e.a, e.b)) for e in lat.edges if e.kind == "step")
    assert steps == [(0, 4), (1, 5), (2, 6), (3, 7)]
    # checkerboard: A iff row+col even; the A sites are the edges' a ends
    assert sorted({e.a for e in lat.edges}) == [0, 2, 5, 7]
    assert sorted({e.b for e in lat.edges}) == [1, 3, 4, 6]


def test_open_m2_shape():
    lat = build_ladder(2, "open")
    assert lat.n == 4
    assert len(lat.edges) == 4
    assert sorted(e.kind for e in lat.edges) == ["rail", "rail", "step", "step"]


def test_open_edges_match_hand_derived_lists():
    for m, expected in ((2, oracles.M2_OPEN_EDGES), (3, oracles.M3_OPEN_EDGES)):
        lat = build_ladder(m, "open")
        assert tuple((e.a, e.b, e.kind) for e in lat.edges) == expected


def test_periodic_m3_has_no_same_sublattice_edge():
    # the odd ring closes with the twist: both wrap rails cross the rows
    lat = build_ladder(3, "periodic")
    assert lat.n == 6
    assert len(lat.edges) == 9
    assert not {e.a for e in lat.edges} & {e.b for e in lat.edges}
    wraps = [(e.a, e.b) for e in lat.edges if e.kind == "rail" and e.a // 3 != e.b // 3]
    assert sorted(wraps) == [(0, 5), (2, 3)]


def test_twist_wrap_crosses_rows_and_restores_bipartiteness():
    m = 5
    lat = build_ladder(m, "periodic")
    wraps = [e for e in lat.edges if e.kind == "rail"
             and abs(e.a % m - e.b % m) > 1]
    assert len(wraps) == 2
    for e in wraps:
        assert e.a // m != e.b // m
    # with the twisted closure every edge runs from a checkerboard A site to a B site
    for e in lat.edges:
        assert sum(divmod(e.a, m)) % 2 == 0 and sum(divmod(e.b, m)) % 2 == 1


def test_twist_is_the_one_odd_wrap():
    # the third parameter names the twisted closure; it has no other value
    for m in range(2, MAX_SITES // 2 + 1):
        for b in ("open", "periodic"):
            assert build_ladder(m, b, "twist") == build_ladder(m, b), (m, b)
            with pytest.raises(ValueError, match="odd_wrap"):
                build_ladder(m, b, "forbid")


def test_periodic_m2_parallel_rails_kept_distinct():
    lat = build_ladder(2, "periodic")
    rails = [e for e in lat.edges if e.kind == "rail"]
    assert len(rails) == 4  # two doubled rungs of the 2-ring
    assert len(lat.coverings) == 5


def test_every_edge_is_a_first():
    for m, b in SWEEP_CONFIGS:
        lat = build_ladder(m, b)
        # A iff row + col is even, (row, col) = divmod(site, m)
        for e in lat.edges:
            assert sum(divmod(e.a, m)) % 2 == 0
            assert sum(divmod(e.b, m)) % 2 == 1


def test_validation_errors():
    with pytest.raises(ValueError):
        build_ladder(1, "open")
    with pytest.raises(ValueError):
        build_ladder(3, "moebius")
    with pytest.raises(ValueError):
        build_ladder(3, "periodic", "drop")
    with pytest.raises(ValueError, match="not an integer"):
        build_ladder(3.0, "open")


def test_lattice_refuses_an_edge_that_does_not_join_a_to_b():
    # three cases: an end outside the sites, a self-loop, and a site that is
    # the A end of one edge and the B end of another (as on an odd cycle)
    both = "site {} is the A end of one edge and the B end of another"
    for n, edges, match in ((2, ((0, 2),), "outside the 2 sites"),
                            (2, ((1, 1),), both.format(1)),
                            (3, ((0, 1), (1, 2)), both.format(1))):
        with pytest.raises(ValueError, match=match):
            Lattice(n, tuple(Edge(a, b, "step") for a, b in edges))


def test_refusals_name_a_huge_value_cut_to_twenty_characters():
    # an edge end, a site count and a fit model of any size: each refusal
    # names the value through `lattice._shorten`, never in full, and forms no 2^n
    big, long_model = 10 ** 5000, "x" * 5000
    one_site = np.array([1.0, 0.0, 0.0, 0.0])
    cases = ((lambda: Lattice(2, (Edge(0, big, "step"),)), big),
             (lambda: Lattice(2, (Edge(0, 10 ** 30, "step"),)), 10 ** 30),
             (lambda: edge_werner_parameters(Lattice(20000, ()), one_site), 20000),
             (lambda: edge_werner_parameters(Lattice(big, ()), one_site), big),
             (lambda: poly_fit([1, 2, 3], [1, 2, 3], long_model), repr(long_model)))
    for call, value in cases:
        with pytest.raises(ValueError) as info:
            call()
        message = str(info.value)
        assert len(message) <= 120 and lattice._shorten(value) in message, message


def test_enumeration_matches_brute_force_small():
    for m, edges in ((2, oracles.M2_OPEN_EDGES), (3, oracles.M3_OPEN_EDGES)):
        lat = build_ladder(m, "open")
        got = list(lat.coverings)
        want = oracles.brute_force_coverings(lat.n, edges)
        assert got == want


def test_enumeration_matches_brute_force_all_configs():
    for m, b in oracles.SMALL_CONFIGS:
        lat = build_ladder(m, b)
        got = list(lat.coverings)
        want = oracles.brute_force_coverings(lat.n, [(e.a, e.b) for e in lat.edges])
        assert got == want, (m, b)


def test_every_covering_is_a_perfect_matching():
    for m, b in oracles.SMALL_CONFIGS:
        lat = build_ladder(m, b)
        for covering in lat.coverings:
            seen = [s for pair in covering for s in pair]
            assert sorted(seen) == list(range(lat.n))


def test_count_matches_enumeration_everywhere():
    assert len(SWEEP_CONFIGS) == 18
    for m, b in SWEEP_CONFIGS:
        lat = build_ladder(m, b)
        assert oracles.covering_permanent(lat) == len(lat.coverings), (m, b)


def test_count_on_a_torus_that_is_not_a_ladder():
    # the permanent reads only the bond matrix, so it holds off the ladder
    lat = oracles.square_torus(4, 4)
    assert oracles.covering_permanent(lat) == len(lat.coverings) == 272
    # a three-site path A-B-A has two A ends, one B end and no covering
    path = Lattice(n=3, edges=(Edge(0, 1, "rail"), Edge(2, 1, "rail")))
    assert oracles.covering_permanent(path) == len(path.coverings) == 0
    # a site on no edge: one A end and one B end, yet no covering of three sites
    isolated = Lattice(n=3, edges=(Edge(0, 1, "rail"),))
    assert oracles.covering_permanent(isolated) == len(isolated.coverings) == 0


def test_coverings_are_enumerated_once_per_lattice_object(monkeypatch):
    real = lattice._matchings
    runs = []

    def counting(n, edges):
        runs.append(n)
        return real(n, edges)

    monkeypatch.setattr(lattice, "_matchings", counting)
    lat = build_ladder(5, "periodic")
    # the benchmark's call order on one ladder, through its two readers
    coverings = lattice.enumerate_coverings(lat)
    assert lattice.count_coverings(lat) == len(coverings) == 13
    psi = rvb_state(lat)
    assert runs == [10]
    # an equal lattice built apart shares no cache with it
    twin = build_ladder(5, "periodic")
    assert twin == lat and twin is not lat
    assert lattice.enumerate_coverings(twin) == coverings
    assert runs == [10, 10]
    # each call returns a new list: changing one leaves the lattice's cache
    coverings.clear()
    lattice.enumerate_coverings(lat).append(((0, 1),))
    assert lattice.count_coverings(lat) == 13
    assert rvb_state(lat).tobytes() == psi.tobytes()
    assert runs == [10, 10]


def test_lattice_refuses_a_site_count_or_edge_end_that_is_not_an_integer():
    step = Edge(0, 1, "step")
    with pytest.raises(ValueError, match="site count n=2.0 is not an integer"):
        Lattice(2.0, (step,))
    with pytest.raises(ValueError, match="edge end a=0.0 is not an integer"):
        Edge(0.0, 1, "step")
    with pytest.raises(ValueError, match="edge end b='1' is not an integer"):
        Edge(0, "1", "step")
    with pytest.raises(ValueError, match="n >= 1"):
        Lattice(0, ())
    # numpy integers pass, as plain ints
    lat = Lattice(np.int64(2), (Edge(np.int64(0), np.int32(1), "step"),))
    assert lat == Lattice(2, (step,))
    assert type(lat.n) is int and type(lat.edges[0].a) is int
    assert lat.coverings == (((0, 1),),)
    assert rvb_state(lat).tolist() == pytest.approx([0.0, -2 ** -0.5, 2 ** -0.5, 0.0])


def test_periodic_m2_doubled_rails_share_one_fit(tmp_path):
    # each doubled rail of the 2-ring is one edge value twice: one marginal,
    # so one key of the fits, while the edge table walks all six edges
    report = run_sweep(RunConfig(sizes=(2,), out_dir=tmp_path))
    (row,) = report.rows
    lat = row.lattice
    assert len(lat.edges) == 6 and len(lat.coverings) == 5
    fits, _ = edge_werner_parameters(lat, rvb_state(lat))
    assert len(fits) == 4 and fits == row.fits
    rails = [e for e in lat.edges if e.kind == "rail"]
    assert len(rails) == 4 and len(set(rails)) == 2
    header, *lines = (tmp_path / "detail" / "edges.csv").read_text().splitlines()
    assert header == "n,m,boundary,edge_a,edge_b,kind,p" and len(lines) == 6
    ps = collections.defaultdict(list)
    for line in lines:
        _, _, _, a, b, kind, p = line.split(",")
        ps[Edge(int(a), int(b), kind)].append(p)
    # one row per edge: each doubled rail twice, with its one fit's p
    assert sorted(len(v) for v in ps.values()) == [1, 1, 2, 2]
    assert {e: set(v) for e, v in ps.items()} == {e: {format(f.p, ".12g")}
                                                   for e, f in fits.items()}


def test_expected_covering_counts():
    for (m, b), exp in oracles.EXPECTED.items():
        lat = build_ladder(m, b)
        assert len(lat.coverings) == exp["count"], (m, b)


def test_open_counts_follow_fibonacci_recurrence():
    counts = {m: len(build_ladder(m, "open").coverings) for m in range(2, 8)}
    assert counts[2] == 2 and counts[3] == 3
    for m in range(4, 8):
        assert counts[m] == counts[m - 1] + counts[m - 2]


def test_periodic_m3_site_and_edge_table():
    lat = build_ladder(3, "periodic")
    # (row, col) = divmod(site, m); A iff row + col is even
    a_ends = {e.a for e in lat.edges}
    assert 0 in a_ends  # (0, 0)
    assert 4 in a_ends  # (1, 1)
    table = [(e.a, e.b, e.kind) for e in lat.edges]
    assert (0, 1, "rail") in table
    assert (0, 5, "rail") in table  # the twisted wrap: top right to bottom left
    assert (0, 3, "step") in table
    assert lat.n == 6 and len(table) == 9


def test_degree_and_incident_edges():
    def degree(lat, s):
        return len([e for e in lat.edges if s in (e.a, e.b)])

    lat = build_ladder(4, "periodic")
    for s in range(lat.n):
        assert degree(lat, s) == 3
    lat_open = build_ladder(4, "open")
    assert degree(lat_open, 0) == 2
    assert degree(lat_open, 1) == 3


def _edge_multiset(lat, perm=None):
    perm = perm or tuple(range(lat.n))
    return collections.Counter(frozenset((perm[e.a], perm[e.b])) for e in lat.edges)


def test_automorphisms_preserve_the_edges():
    for m, b in oracles.CONFIGS:
        lat = build_ladder(m, b)
        group = oracles.automorphisms(lat)
        assert group[0] == tuple(range(lat.n)), (m, b)
        assert len(set(group)) == len(group)
        edges = _edge_multiset(lat)
        for perm in group:
            assert sorted(perm) == list(range(lat.n))
            assert _edge_multiset(lat, perm) == edges, (m, b, perm)


def _group_order(lat):
    """Order of the group, from the oracle's enumeration and from the closure
    of the generators, which must agree."""
    order = len(oracles.automorphisms(lat))
    assert len(oracles.group_closure(oracles.automorphism_generators(lat), lat.n)) == order
    return order


def test_automorphism_group_orders():
    assert _group_order(build_ladder(2, "open")) == 8  # the 4-cycle
    assert _group_order(build_ladder(3, "periodic")) == 72  # K_3,3
    assert _group_order(build_ladder(4, "periodic")) == 48  # the cube
    for m in range(5, 9):
        # prism (even m) or Moebius ladder (odd m): rotations, reflections, leg swap
        assert _group_order(build_ladder(m, "periodic")) == 4 * m
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


@pytest.mark.parametrize("m, b, closure", oracles.with_closures(SWEEP_CONFIGS))
def test_automorphism_generators_generate_the_group(m, b, closure):
    lat = build_ladder(*oracles.ladder_key(m, b, closure))
    gens = oracles.automorphism_generators(lat)
    assert len(gens) <= 4
    edges = _edge_multiset(lat)
    for perm in gens:
        assert sorted(perm) == list(range(lat.n))
        assert _edge_multiset(lat, perm) == edges, perm
    group = oracles.group_closure(gens, lat.n)
    assert group == set(oracles.automorphisms(lat))
    # the group order is the product of the basic orbit sizes
    assert math.prod(_basic_orbit_sizes(gens, lat.n)) == len(group)
