"""Tangle, monogamy, cloning angle sets, and the GGM."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rvb_ladder import (RunConfig, cloning_theta_sets, edge_werner_parameters,
                        ggm, measures, monogamy_check, monogamy_surface_sample,
                        partial_trace, run_sweep, tangle)

import oracles
from oracles import tangle_from_density_matrix


def test_tangle_formula():
    assert tangle(1.0) == pytest.approx(1.0)
    assert tangle(1.0 / 3.0) == 0.0
    assert tangle(0.0) == 0.0
    assert tangle(-1.0 / 3.0) == 0.0  # clamped below separability
    assert tangle(0.5) == pytest.approx(0.0625)


def test_tangle_domain():
    with pytest.raises(ValueError):
        tangle(1.2)
    with pytest.raises(ValueError):
        tangle(-0.5)


def test_wootters_tangle_agrees_on_werner_states():
    s = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = p * np.outer(s, s) + (1.0 - p) / 4.0 * np.eye(4)
        assert abs(tangle_from_density_matrix(rho) - tangle(p)) < 1e-10


def test_wootters_tangle_on_rvb_marginals(ladder_state):
    # dual route: closed-form Werner tangle vs full Wootters computation
    for m, b, w in oracles.PAPER_SIZES:
        lat, psi = ladder_state(m, b, w)
        for e in lat.edges:
            rho = partial_trace(psi, [e.a, e.b])
            p = oracles.oracle_werner_p(rho)
            assert abs(tangle_from_density_matrix(rho) - tangle(p)) < 1e-10


def test_wootters_tangle_random_werner_panel():
    # closed-form route vs full concurrence computation across the whole
    # physical range of the mixing parameter
    rng = np.random.default_rng(7)
    s = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)
    for p in rng.uniform(-1.0 / 3.0, 1.0, size=50):
        rho = p * np.outer(s, s) + (1.0 - p) / 4.0 * np.eye(4)
        assert abs(tangle_from_density_matrix(rho) - tangle(p)) < 1e-10


def test_wootters_tangle_validation():
    with pytest.raises(ValueError):
        tangle_from_density_matrix(np.eye(2) / 2.0)
    bad = np.eye(4) / 4.0 + 0.1j * np.diag([1.0, -1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        tangle_from_density_matrix(bad)


def test_monogamy_record_formula():
    rec = monogamy_check(0.5, 0.6)
    assert rec.lhs == pytest.approx((0.5) ** 2 / 2.0 + (0.8) ** 2 / 4.0)
    assert rec.tangle_rail == pytest.approx(tangle(0.5))
    assert rec.tangle_step == pytest.approx(tangle(0.6))
    assert rec.satisfied


def test_monogamy_violated_for_impossible_pair():
    rec = monogamy_check(1.0, 1.0)  # two perfect singlets sharing a site
    assert rec.lhs == pytest.approx(3.0)
    assert not rec.satisfied


def test_monogamy_boundary_examples():
    # both bonds at the separability threshold: nothing to share
    rec = monogamy_check(1.0 / 3.0, 1.0 / 3.0)
    assert rec.lhs == pytest.approx(0.0, abs=1e-15)
    assert rec.satisfied
    # one perfect step singlet, separable rails: exactly saturates the bound
    rec = monogamy_check(1.0 / 3.0, 1.0)
    assert rec.lhs == pytest.approx(1.0, abs=1e-15)
    assert rec.satisfied


def test_monogamy_lhs_expected_values(ladder_state):
    from rvb_ladder import edge_werner_parameters
    for (m, b, w), exp in oracles.EXPECTED.items():
        if "lhs" not in exp:
            continue
        lat, psi = ladder_state(m, b, w)
        _, agg = edge_werner_parameters(lat, psi)
        rec = monogamy_check(agg.p_r, agg.p_s)
        assert abs(rec.lhs - float(exp["lhs"])) < 1e-11, (m, b, w)
        assert rec.satisfied


def test_monogamy_flags_the_doubled_rail_of_the_periodic_four_site_ring():
    # at m = 2 the wrap rail repeats the inner rail, so a site's two rails
    # lead to one partner and 2 tau(p_r) counts that partner twice
    (row,) = run_sweep(RunConfig(sizes=(2,), out_dir=None)).rows
    rails = {(e.a, e.b) for e in row.lattice.edges if e.kind == "rail"}
    assert len(rails) == 2
    assert row.aggregates.p_r == pytest.approx(20.0 / 21.0, abs=1e-12)
    assert row.aggregates.p_s == pytest.approx(5.0 / 21.0, abs=1e-12)
    rec = row.monogamy
    assert not rec.satisfied
    assert 2.0 * rec.tangle_rail + rec.tangle_step == pytest.approx(338.0 / 196.0, abs=1e-12)
    # the one-partner form holds: tau_r + tau_s = (13/14)^2 + 0
    assert rec.tangle_rail + rec.tangle_step == pytest.approx(169.0 / 196.0, abs=1e-12)


def test_monogamy_surface_grid():
    rows = monogamy_surface_sample(5)
    assert rows.shape == (25, 3)
    assert rows[0][0] == pytest.approx(-1.0 / 3.0)
    assert rows[-1][1] == pytest.approx(1.0)
    for p_r, p_s, val in rows:
        want = (3 * p_r - 1) ** 2 / 2.0 + (3 * p_s - 1) ** 2 / 4.0 - 1.0
        assert val == pytest.approx(want)
    # corners: the most negative point is (1/3, 1/3) -> -1; (1,1) -> 2
    assert rows[:, 2].min() >= -1.0 - 1e-12
    assert rows[-1][2] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        monogamy_surface_sample(1)


def test_monogamy_surface_bit_identical_to_scalar_loop():
    for res in (2, 5, 42, 64, 83, 100, 257):
        want = oracles.loop_monogamy_surface_sample(res)
        assert monogamy_surface_sample(res).tobytes() == want.tobytes(), res


def test_cloning_sets_shape():
    rec = cloning_theta_sets(0.5, 0.6)
    # S1 is one interval strictly inside (0, pi/2); S2 starts at 0
    assert len(rec.s1) == 1 and len(rec.s2) == 1
    lo1, hi1 = rec.s1[0]
    lo2, hi2 = rec.s2[0]
    assert 0.0 < lo1 < hi1 < math.pi / 2.0
    assert lo2 == 0.0
    assert hi2 == pytest.approx(math.asin(math.sqrt(3.0 * (1.0 - 0.6) / 4.0)), abs=1e-9)
    # boundary points satisfy the defining equalities
    assert oracles.g_rail(lo1) == pytest.approx(0.5, abs=1e-9)
    assert oracles.g_rail(hi1) == pytest.approx(0.5, abs=1e-9)
    assert rec.theta_max == pytest.approx(hi2, abs=1e-9)


def test_cloning_theta_against_dense_grid_oracle():
    for p_r, p_s in ((0.45, 0.6), (0.5, 0.55), (0.42, 0.67)):
        rec = cloning_theta_sets(p_r, p_s)
        want = oracles.oracle_theta_max(p_r, p_s)
        assert rec.theta_max == pytest.approx(want, abs=1e-5)


def test_cloning_empty_intersection():
    # p_r above the rail curve's maximum 2/3 leaves S1 empty
    rec = cloning_theta_sets(0.7, 0.5)
    assert rec.s1 == ()
    assert rec.theta_max is None


def test_cloning_disjoint_windows():
    # demanding steps better than the s2 window allows while rails need
    # large angles: S1 and S2 exist but do not overlap
    rec = cloning_theta_sets(0.66, 0.9)
    assert rec.s1 and rec.s2
    assert rec.theta_max is None


def test_cloning_tangency_detected():
    # at p_r = p_s = 5/9 the two windows touch in exactly one angle,
    # asin(1/sqrt(3)); the intersection must not be reported empty
    rec = cloning_theta_sets(5.0 / 9.0, 5.0 / 9.0)
    assert rec.theta_max is not None
    assert rec.theta_max == pytest.approx(math.asin(1.0 / math.sqrt(3.0)), abs=1e-12)


def test_cloning_expected_closed_forms(ladder_state):
    for (m, b, w), exp in oracles.EXPECTED.items():
        if "theta" not in exp or "p_r" not in exp:
            continue
        lat, psi = ladder_state(m, b, w)
        _, agg = edge_werner_parameters(lat, psi)
        rec = cloning_theta_sets(agg.p_r, agg.p_s)
        if exp["theta"] is None:
            assert rec.theta_max is None, (m, b, w)
        else:
            assert rec.theta_max == pytest.approx(exp["theta"], abs=1e-12), (m, b, w)


def test_cloning_degenerate_examples():
    # perfect steps leave only theta = 0; the rail set still contains it
    rec = cloning_theta_sets(0.0, 1.0)
    assert rec.theta_max is not None
    assert rec.theta_max == pytest.approx(0.0, abs=1e-6)
    # unconstrained pair: the step window alone sets the top angle
    rec = cloning_theta_sets(0.0, 0.0)
    assert rec.theta_max == pytest.approx(math.pi / 3.0, abs=1e-9)


def test_cloning_margin_at_the_cube_and_k33(ladder_state):
    # N = 6 (K3,3): the windows touch in one angle, margin at rounding level;
    # N = 8 (the cube): they overlap by a clear margin
    margins = {}
    for m in (3, 4):
        lat, psi = ladder_state(m, "periodic", "twist")
        _, agg = edge_werner_parameters(lat, psi)
        margins[lat.n] = cloning_theta_sets(agg.p_r, agg.p_s).margin
    assert abs(margins[6]) <= 1e-12
    assert margins[8] > 0.07
    assert abs(cloning_theta_sets(5.0 / 9.0, 5.0 / 9.0).margin) <= 1e-12


def test_cloning_margin_sign_and_empty_windows():
    assert cloning_theta_sets(0.5, 0.6).margin > 0.0
    assert cloning_theta_sets(0.66, 0.9).margin < 0.0  # disjoint windows
    assert cloning_theta_sets(0.7, 0.5).margin is None  # S1 empty
    assert cloning_theta_sets(0.5, 1.2).margin is None  # S2 empty


# windows narrower than the oracle's grid spacing can fall between its points
_GRID_STEP = (math.pi / 2.0) / 2047


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(-1.0 / 3.0, 1.0), st.floats(-1.0 / 3.0, 1.0))
def test_cloning_closed_form_matches_grid_oracle(p_r, p_s):
    rec = cloning_theta_sets(p_r, p_s)
    s1, s2, theta_max = oracles.grid_cloning_theta_sets(p_r, p_s)
    if any(hi - lo < _GRID_STEP for (lo, hi) in rec.s1 + rec.s2):
        return
    assert len(rec.s1) == len(s1) and len(rec.s2) == len(s2)
    if rec.margin is not None and abs(rec.margin) <= 1e-8:
        return  # touching windows: only the tolerance decides, see tangency test
    assert (rec.theta_max is None) == (theta_max is None)
    if theta_max is not None:
        assert rec.theta_max == pytest.approx(theta_max, abs=1e-9)


def _product_ghz_w():
    product = np.zeros(8)
    product[0] = 1.0
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    w = np.zeros(8)
    w[1] = w[2] = w[4] = 1.0 / math.sqrt(3.0)
    return product, ghz, w


def test_ggm_product_state_is_zero():
    # not a singlet: the oracle route, which scans every bipartition by SVD
    product, _, _ = _product_ghz_w()
    assert oracles.oracle_ggm(product) == pytest.approx(0.0, abs=1e-12)


def test_ggm_ghz_and_w_states():
    _, ghz, w = _product_ghz_w()
    assert oracles.oracle_ggm(ghz) == pytest.approx(0.5, abs=1e-12)
    assert oracles.oracle_ggm(w) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_ggm_rejects_states_that_are_not_singlets():
    for psi in _product_ghz_w():
        with pytest.raises(ValueError, match="not a total singlet"):
            ggm(psi)


def test_ggm_two_site_singlet():
    rec = ggm(oracles.singlet_pair())
    assert rec.value == pytest.approx(0.5, abs=1e-12)
    assert abs(rec.total_spin_sq) < 1e-12


def test_ggm_requires_normalized_state():
    with pytest.raises(ValueError):
        ggm(np.ones(8))


def test_ggm_rejects_non_power_of_two_length():
    with pytest.raises(ValueError, match="not 2\\^n"):
        ggm(np.full(6, 1.0 / math.sqrt(6.0)))


def test_ggm_matches_svd_oracle_small(ladder_state):
    for key in ((2, "open", "forbid"), (3, "open", "forbid"),
                (3, "periodic", "twist")):
        _, psi = ladder_state(*key)
        rec = ggm(psi)
        assert rec.value == pytest.approx(oracles.oracle_ggm(psi), abs=1e-10)
        n = psi.size.bit_length() - 1
        # every bipartition agrees with the SVD route: the top reduced-density
        # eigenvalue equals the top squared Schmidt coefficient
        for mask in range(1, (1 << n) - 1, 2):
            keep = [k for k in range(n) if (mask >> k) & 1]
            top = float(np.linalg.eigvalsh(partial_trace(psi, keep))[-1])
            want = oracles.oracle_schmidt_sq_max(psi, mask)
            assert top == pytest.approx(want, abs=1e-10), (key, mask)


def test_ggm_expected_values(ladder_state):
    for (m, b, w), exp in oracles.EXPECTED.items():
        if "ggm" not in exp:
            continue
        _, psi = ladder_state(m, b, w)
        rec = ggm(psi)
        assert abs(rec.value - float(exp["ggm"])) < 1e-11, (m, b, w)
        assert rec.mask == exp["ggm_mask"], (m, b, w)
        assert rec.mask in rec.tied_masks
        assert rec.mask & 1  # site 0 on the recorded side
        assert rec.max_schmidt_sq == pytest.approx(1.0 - float(exp["ggm"]), abs=1e-11)


def _relabel_sites(psi, perm):
    n = psi.size.bit_length() - 1
    out = np.zeros_like(psi)
    for x in range(psi.size):
        y = 0
        for k in range(n):
            if (x >> k) & 1:
                y |= 1 << perm[k]
        out[y] = psi[x]
    return out


def test_ggm_invariant_under_site_relabeling(ladder_state):
    _, psi = ladder_state(3, "periodic", "twist")
    base = ggm(psi).value
    rotation = [1, 2, 0, 4, 5, 3]        # shift every column by one
    leg_swap = [3, 4, 5, 0, 1, 2]        # exchange the two rows
    for perm in (rotation, leg_swap):
        assert ggm(_relabel_sites(psi, perm)).value == pytest.approx(
            base, abs=1e-10)


def test_ggm_max_schmidt_bounded_below_by_dimension(ladder_state):
    for m, b, w in oracles.PAPER_SIZES:
        _, psi = ladder_state(m, b, w)
        rec = ggm(psi)
        a = rec.mask.bit_count()
        d_min = 2 ** min(a, 2 * m - a)
        assert rec.max_schmidt_sq >= 1.0 / d_min - 1e-12, (m, b, w)


def test_ggm_ties_include_column_aligned_split(ladder_state):
    # symmetry can tie several bipartitions; a whole-column split is always
    # among the maximizers for the ladder states
    for m, b, w in oracles.PAPER_SIZES:
        _, psi = ladder_state(m, b, w)
        rec = ggm(psi)
        aligned = oracles.column_aligned_tied_mask(rec.tied_masks, m)
        assert aligned is not None, (m, b, w)


# the orbit route computes each Schmidt value from one S_z block at one mask
# of the orbit, the bound route at every mask it cannot rule out, and the
# dense scan from the full Gram matrix at every mask; they differ only by
# eigensolver roundoff
SYMMETRY_VALUE_TOL = 64 * np.finfo(float).eps

# every (m, boundary, odd_wrap) with N <= 12
SMALL_CONFIGS = [(m, b, w) for m in range(2, 7)
                 for b in ("open", "periodic") for w in ("forbid", "twist")]
# periodic N = 14 and 16 (even m has one periodic lattice)
LARGE_PERIODIC_CONFIGS = [(7, "periodic", "forbid"), (7, "periodic", "twist"),
                          (8, "periodic", "forbid")]
# the dense scan would take about 30 s at N = 16, so it stops at N = 14
SYMMETRY_CONFIGS = SMALL_CONFIGS + LARGE_PERIODIC_CONFIGS[:2]


def test_ggm_symmetry_route_matches_full_scan(ladder_state):
    for key in SYMMETRY_CONFIGS:
        lat, psi = ladder_state(*key)
        best, tied = oracles.dense_ggm_scan(psi)
        full = ggm(psi)
        reduced = oracles.orbit_ggm(
            psi, symmetries=oracles.automorphism_generators(lat))
        # the bound covers every bipartition with site 0 on the mask's side
        n = lat.n
        assert measures._sector_weight_bounds(psi, n).shape == ((1 << (n - 1)) - 1,), key
        for rec in (full, reduced):
            assert abs(rec.value - (1.0 - best)) <= SYMMETRY_VALUE_TOL, key
            assert rec.mask == tied[0], key
            assert rec.tied_masks == tied, key
            # power iteration on the winner's full bipartition matrix
            lam2 = oracles.power_iteration_schmidt_sq(psi, rec.mask)
            assert abs(lam2 - rec.max_schmidt_sq) <= 1e-9, key


@pytest.mark.parametrize("key", SMALL_CONFIGS + LARGE_PERIODIC_CONFIGS)
def test_ggm_generators_give_the_whole_group_record(ladder_state, key):
    # the generators' orbits are the group's, so the same representatives
    # reach the eigensolves and every field agrees exactly
    lat, psi = ladder_state(*key)
    gens = oracles.automorphism_generators(lat)
    assert (oracles.orbit_ggm(psi, symmetries=gens)
            == oracles.orbit_ggm(psi, symmetries=oracles.automorphisms(lat)))


def _orbit_minima(group, n):
    """The smallest odd mask of each orbit of bipartitions under `group`."""
    full = (1 << n) - 1
    minima = set()
    for mask in range(1, full, 2):
        images = []
        for g in group:
            image = sum(1 << g[k] for k in range(n) if (mask >> k) & 1)
            images.append(image if image & 1 else full ^ image)
        minima.add(min(images))
    return minima


def test_ggm_labels_orbits_of_a_set_that_is_not_closed(ladder_state, monkeypatch):
    # the translation alone generates the rotations only, and the labels must
    # still reach the smallest mask of each orbit of that cyclic group
    m = 6
    lat, psi = ladder_state(m, "periodic", "twist")
    shift = tuple(r * m + (c + 1) % m for r in range(2) for c in range(m))
    real = measures._schmidt_sq_max
    seen = []

    def recording(psi, n, mask):
        seen.append(mask)
        return real(psi, n, mask)

    monkeypatch.setattr(measures, "_schmidt_sq_max", recording)
    rec = oracles.orbit_ggm(psi, symmetries=[shift])
    assert set(seen) == _orbit_minima(oracles.group_closure([shift], lat.n), lat.n)
    assert len(seen) == len(set(seen))
    best, tied = oracles.dense_ggm_scan(psi)
    assert abs(rec.value - (1.0 - best)) <= SYMMETRY_VALUE_TOL
    assert rec.mask == tied[0]
    assert rec.tied_masks == tied


def test_ggm_symmetry_route_evaluates_one_mask_per_orbit(ladder_state, monkeypatch):
    # orbits of the odd masks (site 0 on the kept side) under the ladder group
    orbit_counts = {3: 5, 4: 13, 5: 43, 6: 134, 7: 361}
    real = measures._schmidt_sq_max
    seen = []

    def counting(psi, n, mask):
        seen.append(mask)
        return real(psi, n, mask)

    monkeypatch.setattr(measures, "_schmidt_sq_max", counting)
    for m, count in orbit_counts.items():
        lat, psi = ladder_state(m, "periodic", "twist")
        seen.clear()
        rec = oracles.orbit_ggm(psi, symmetries=oracles.automorphism_generators(lat))
        assert len(seen) == len(set(seen)) == count, m
        assert all(mask & 1 for mask in seen), m
        assert rec.mask in seen, m


def test_ggm_permutes_the_basis_once_per_symmetry(ladder_state, monkeypatch):
    # the symmetry check's permuted basis index also gives the mask images
    real = oracles.permute_bits
    calls = []

    def counting(values, perm):
        calls.append((values.size, tuple(perm)))
        return real(values, perm)

    monkeypatch.setattr(oracles, "permute_bits", counting)
    for key in SMALL_CONFIGS:
        lat, psi = ladder_state(*key)
        syms = oracles.automorphisms(lat)
        calls.clear()
        rec = oracles.orbit_ggm(psi, symmetries=syms)
        assert calls == [(psi.size, tuple(perm)) for perm in syms], key
        best, tied = oracles.dense_ggm_scan(psi)
        assert abs(rec.value - (1.0 - best)) <= SYMMETRY_VALUE_TOL, key
        assert rec.mask == tied[0], key
        assert rec.tied_masks == tied, key


def test_ggm_sector_block_matches_svd_oracle_on_every_orbit(ladder_state, monkeypatch):
    # the one S_z block of each orbit representative holds the full top
    # Schmidt^2 of its split
    real = measures._schmidt_sq_max
    calls = []

    def recording(psi, n, mask):
        top = real(psi, n, mask)
        calls.append((mask, top))
        return top

    monkeypatch.setattr(measures, "_schmidt_sq_max", recording)
    for key in SMALL_CONFIGS:
        lat, psi = ladder_state(*key)
        calls.clear()
        oracles.orbit_ggm(psi, symmetries=oracles.automorphism_generators(lat))
        assert calls, key
        for mask, lam2 in calls:
            want = oracles.oracle_schmidt_sq_max(psi, mask)
            assert abs(lam2 - want) <= 1e-12, (key, mask)


def _random_singlet(data):
    """A singlet that is no RVB state, or None if it cancels: a real
    combination of singlet-pair products over random perfect matchings of
    4..10 sites, beyond any ladder geometry."""
    n = data.draw(st.sampled_from((4, 6, 8, 10)))
    terms = data.draw(st.lists(
        st.tuples(st.floats(-1.0, 1.0, allow_nan=False),
                  st.permutations(range(n))),
        min_size=1, max_size=4))
    return oracles.singlet_combination(terms, n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_ggm_sector_block_on_random_singlets(data):
    psi = _random_singlet(data)
    assume(psi is not None)
    n = psi.size.bit_length() - 1
    masks = data.draw(st.lists(st.integers(0, (1 << (n - 1)) - 2),
                               min_size=1, max_size=6, unique=True))
    for mask in (2 * m + 1 for m in masks):  # odd, complement nonempty
        lam2 = measures._schmidt_sq_max(psi, n, mask)
        assert abs(lam2 - oracles.oracle_schmidt_sq_max(psi, mask)) <= 1e-12, mask
    if n <= 8:
        assert abs(ggm(psi).value - oracles.oracle_ggm(psi)) <= 1e-12


def test_ggm_rejects_a_permutation_that_is_not_a_symmetry(ladder_state):
    _, psi = ladder_state(3, "open", "forbid")
    swap_01 = (1, 0, 2, 3, 4, 5)  # exchanges an A site with a B site of one rail
    with pytest.raises(ValueError, match="not a symmetry"):
        oracles.orbit_ggm(psi, symmetries=[swap_01])
    with pytest.raises(ValueError, match="not a permutation"):
        oracles.orbit_ggm(psi, symmetries=[(0, 0, 2, 3, 4, 5)])
    # true generators do not excuse a false one among them
    lat, _ = ladder_state(3, "open", "forbid")
    with pytest.raises(ValueError, match="not a symmetry"):
        oracles.orbit_ggm(psi, symmetries=[*oracles.automorphism_generators(lat), swap_01])


def test_default_sweep_solves_the_largest_bound_and_the_tied_masks(monkeypatch):
    # the bound rules out every other split of the default sizes, so the only
    # eigensolves are the split with the largest bound and the tied ones
    real = measures._schmidt_sq_max
    solved = {}

    def recording(psi, n, mask):
        solved.setdefault(n, []).append(mask)
        return real(psi, n, mask)

    monkeypatch.setattr(measures, "_schmidt_sq_max", recording)
    report = run_sweep(RunConfig(out_dir=None))
    assert [row.m for row in report.rows] == [3, 4, 5, 6]
    for row in report.rows:
        bound = measures._sector_weight_bounds(row.state, row.n)
        first = 2 * int(np.argmax(bound)) + 1
        rest = [mask for mask in row.ggm.tied_masks if mask != first]
        assert solved[row.n] == [first, *rest], row.m


# every (m, boundary, odd_wrap) the orbit oracle runs in a few seconds, N <= 16
ORBIT_ORACLE_CONFIGS = [(m, b, w) for m in range(2, 9)
                        for b in ("open", "periodic") for w in ("forbid", "twist")]


@pytest.mark.parametrize("key", ORBIT_ORACLE_CONFIGS)
def test_ggm_record_equals_the_orbit_oracle(ladder_state, key):
    lat, psi = ladder_state(*key)
    got = ggm(psi)
    want = oracles.orbit_ggm(psi, symmetries=oracles.automorphism_generators(lat))
    assert got.mask == want.mask
    assert got.tied_masks == want.tied_masks
    assert got.total_spin_sq == want.total_spin_sq
    assert abs(got.value - want.value) <= SYMMETRY_VALUE_TOL
    assert abs(got.max_schmidt_sq - want.max_schmidt_sq) <= SYMMETRY_VALUE_TOL


@pytest.mark.parametrize("key", ORBIT_ORACLE_CONFIGS)
def test_ggm_winner_is_its_split_solved_alone(ladder_state, key):
    # a split's Schmidt^2 depends only on the split, not on which other
    # splits are solved in the same call, so the record's value is exactly
    # the largest of its tied splits' solved one at a time
    _, psi = ladder_state(*key)
    n = psi.size.bit_length() - 1
    rec = ggm(psi)
    alone = max(measures._schmidt_sq_max(psi, n, t) for t in rec.tied_masks)
    assert rec.max_schmidt_sq == alone
    assert rec.value == 1.0 - alone


def _assert_bound_holds(psi):
    """The spin-sector weight bound is at least the SVD oracle's Schmidt^2
    on every odd mask."""
    n = psi.size.bit_length() - 1
    bound = measures._sector_weight_bounds(psi, n)
    assert bound.shape == ((1 << (n - 1)) - 1,)
    for mask, b in zip(range(1, (1 << n) - 1, 2), bound.tolist()):
        assert b >= oracles.oracle_schmidt_sq_max(psi, mask) - 1e-12, mask


def test_sector_weight_bound_holds_on_every_small_ladder(ladder_state):
    for key in SMALL_CONFIGS:
        _assert_bound_holds(ladder_state(*key)[1])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sector_weight_bound_holds_on_random_singlets(data):
    psi = _random_singlet(data)
    assume(psi is not None)
    _assert_bound_holds(psi)
