"""Tangle, monogamy, cloning angle sets, and the GGM."""

import math

import numpy as np
import pytest

from rvb_ladder import (automorphisms, build_ladder, cloning_theta_sets, ggm,
                        measures, monogamy_check, monogamy_surface_sample,
                        partial_trace, rvb_state, singlet_pair, tangle,
                        tangle_from_density_matrix)

import oracles


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


def test_cloning_sets_shape():
    rec = cloning_theta_sets(0.5, 0.6)
    assert rec.p_r == 0.5 and rec.p_s == 0.6
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
    assert rec.theta_max == pytest.approx(math.asin(1.0 / math.sqrt(3.0)), abs=2e-9)


def test_cloning_expected_closed_forms(ladder_state):
    from rvb_ladder import edge_werner_parameters
    for (m, b, w), exp in oracles.EXPECTED.items():
        if "theta" not in exp or "p_r" not in exp:
            continue
        lat, psi = ladder_state(m, b, w)
        _, agg = edge_werner_parameters(lat, psi)
        rec = cloning_theta_sets(agg.p_r, agg.p_s)
        if exp["theta"] is None:
            assert rec.theta_max is None, (m, b, w)
        else:
            assert rec.theta_max == pytest.approx(exp["theta"], abs=2e-9), (m, b, w)


def test_cloning_degenerate_examples():
    # perfect steps leave only theta = 0; the rail set still contains it
    rec = cloning_theta_sets(0.0, 1.0)
    assert rec.theta_max is not None
    assert rec.theta_max == pytest.approx(0.0, abs=1e-6)
    # unconstrained pair: the step window alone sets the top angle
    rec = cloning_theta_sets(0.0, 0.0)
    assert rec.theta_max == pytest.approx(math.pi / 3.0, abs=1e-9)


def test_cloning_validation():
    with pytest.raises(ValueError):
        cloning_theta_sets(0.5, 0.5, grid_resolution=1)


def test_ggm_product_state_is_zero():
    psi = np.zeros(8)
    psi[0] = 1.0
    rec = ggm(psi)
    assert rec.value == pytest.approx(0.0, abs=1e-12)


def test_ggm_ghz_and_w_states():
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    assert ggm(ghz).value == pytest.approx(0.5, abs=1e-12)
    w = np.zeros(8)
    w[1] = w[2] = w[4] = 1.0 / math.sqrt(3.0)
    assert ggm(w).value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_ggm_two_site_singlet():
    rec = ggm(singlet_pair(0, 1, 2))
    assert rec.value == pytest.approx(0.5, abs=1e-12)
    assert rec.bipartitions_scanned == 1


def test_ggm_requires_normalized_state():
    with pytest.raises(ValueError):
        ggm(np.ones(8))


def test_ggm_matches_svd_oracle_small(ladder_state):
    for key in ((2, "open", "forbid"), (3, "open", "forbid"),
                (3, "periodic", "twist")):
        _, psi = ladder_state(*key)
        rec = ggm(psi)
        assert rec.value == pytest.approx(oracles.oracle_ggm(psi), abs=1e-10)
        n = psi.size.bit_length() - 1
        assert rec.bipartitions_scanned == (1 << (n - 1)) - 1
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
        sites = tuple(k for k in range(2 * m) if (exp["ggm_mask"] >> k) & 1)
        assert rec.maximizing_bipartition == sites
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
        a = len(rec.maximizing_bipartition)
        d_min = 2 ** min(a, 2 * m - a)
        assert rec.max_schmidt_sq >= 1.0 / d_min - 1e-12, (m, b, w)


def test_ggm_ties_include_column_aligned_split(ladder_state):
    # symmetry can tie several bipartitions; a whole-column split is always
    # among the maximizers for the ladder states
    for m, b, w in oracles.PAPER_SIZES:
        _, psi = ladder_state(m, b, w)
        rec = ggm(psi)
        def is_column_aligned(mask):
            return all(((mask >> c) & 1) == ((mask >> (c + m)) & 1)
                       for c in range(m))
        assert any(is_column_aligned(t) for t in rec.tied_masks), (m, b, w)


# the orbit route computes each Schmidt value at one mask of the orbit, the
# full scan at every mask; the two differ only by eigensolver roundoff
SYMMETRY_VALUE_TOL = 64 * np.finfo(float).eps

SYMMETRY_CONFIGS = ([(m, b, w) for m in range(2, 7)
                     for b in ("open", "periodic") for w in ("forbid", "twist")]
                    + [(7, "periodic", "twist")])


def test_ggm_symmetry_route_matches_full_scan(ladder_state):
    for key in SYMMETRY_CONFIGS:
        lat, psi = ladder_state(*key)
        full = ggm(psi)
        reduced = ggm(psi, symmetries=automorphisms(lat))
        assert abs(reduced.value - full.value) <= SYMMETRY_VALUE_TOL, key
        assert reduced.mask == full.mask, key
        assert reduced.tied_masks == full.tied_masks, key
        assert reduced.bipartitions_scanned == full.bipartitions_scanned, key
        assert reduced.maximizing_bipartition == full.maximizing_bipartition, key


def test_ggm_symmetry_route_evaluates_one_mask_per_orbit(ladder_state, monkeypatch):
    # orbits of the odd masks (site 0 on the kept side) under the ladder group
    orbit_counts = {3: 5, 4: 13, 5: 43, 6: 134, 7: 361}
    real = measures._schmidt_sq_max
    seen = set()

    def counting(psi, n, mask):
        seen.add(mask)
        return real(psi, n, mask)

    monkeypatch.setattr(measures, "_schmidt_sq_max", counting)
    for m, count in orbit_counts.items():
        lat, psi = ladder_state(m, "periodic", "twist")
        seen.clear()
        rec = ggm(psi, symmetries=automorphisms(lat))
        assert len(seen) == count, m
        assert all(mask & 1 for mask in seen), m
        assert rec.mask in seen, m


def test_ggm_rejects_a_permutation_that_is_not_a_symmetry(ladder_state):
    _, psi = ladder_state(3, "open", "forbid")
    swap_01 = (1, 0, 2, 3, 4, 5)  # exchanges an A site with a B site of one rail
    with pytest.raises(ValueError, match="not a symmetry"):
        ggm(psi, symmetries=[swap_01])
    with pytest.raises(ValueError, match="not a permutation"):
        ggm(psi, symmetries=[(0, 0, 2, 3, 4, 5)])
