"""Edge Werner parameters against the dense partial trace and 4 x 4 fit, the
singlet precondition they share with `ggm`, edge averages."""

import dataclasses
import functools
import inspect
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import rvb_ladder
from rvb_ladder import (Edge, Lattice, RunConfig, build_ladder, density, edge_werner_parameters,
                        ggm, run_sweep, rvb_state, total_spin_squared)
from rvb_ladder.state import require_singlet

import oracles


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return psi / np.linalg.norm(psi)


def test_partial_trace_matches_index_loop_oracle():
    for n, keep, seed in ((4, [0, 2], 1), (4, [3], 2), (5, [1, 4], 3),
                          (6, [0, 2, 5], 4), (6, [5, 0], 5)):
        psi = _random_state(n, seed)
        got = oracles.partial_trace(psi, keep)
        want = oracles.oracle_partial_trace(psi, keep)
        assert np.allclose(got, want, atol=1e-12), (n, keep)


def test_partial_trace_keep_order_swaps_sites():
    psi = _random_state(4, 7)
    ab = oracles.partial_trace(psi, [1, 3])
    ba = oracles.partial_trace(psi, [3, 1])
    # swapping the kept sites permutes the reduced basis: swap the two bits
    perm = [0, 2, 1, 3]
    assert np.allclose(ba, ab[np.ix_(perm, perm)], atol=1e-12)


def test_partial_trace_properties():
    psi = _random_state(5, 11)
    rho = oracles.partial_trace(psi, [0, 3])
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.all(np.linalg.eigvalsh(rho) > -1e-12)


def test_partial_trace_of_singlet_is_maximally_mixed():
    psi = oracles.singlet_pair()
    for site in (0, 1):
        rho = oracles.partial_trace(psi, [site])
        assert np.max(np.abs(rho - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_validation():
    psi = _random_state(3, 13)
    with pytest.raises(ValueError):
        oracles.partial_trace(psi, [])
    with pytest.raises(ValueError):
        oracles.partial_trace(psi, [0, 0])
    with pytest.raises(ValueError):
        oracles.partial_trace(psi, [0, 3])


def test_partial_trace_rejects_non_power_of_two_length():
    with pytest.raises(ValueError, match="not 2\\^n"):
        oracles.partial_trace(np.full(6, 1.0 / math.sqrt(6.0)), [0])


def test_werner_parameter_pure_singlet():
    rho = oracles.partial_trace(oracles.singlet_pair(), [0, 1])
    fit = oracles.werner_fit(rho)
    assert abs(fit.p - 1.0) < 1e-12
    assert fit.residual < 1e-12
    assert fit.werner_ok


def test_werner_parameter_maximally_mixed():
    fit = oracles.werner_fit(np.eye(4) / 4.0)
    assert abs(fit.p) < 1e-12
    assert fit.residual < 1e-12


def test_werner_parameter_synthetic_family():
    s = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)
    for p in (-1.0 / 3.0, 0.1, 1.0 / 3.0, 0.62, 1.0):
        rho = p * np.outer(s, s) + (1.0 - p) / 4.0 * np.eye(4)
        fit = oracles.werner_fit(rho)
        assert abs(fit.p - p) < 1e-12
        assert fit.residual < 1e-12 and fit.werner_ok


def test_werner_parameter_flags_non_werner_states():
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0  # |up,up><up,up| is not Werner
    fit = oracles.werner_fit(rho)
    assert abs(fit.p - (-1.0 / 3.0)) < 1e-12  # F = 0
    assert fit.residual > 1e-2
    assert not fit.werner_ok


def test_werner_parameter_validation():
    with pytest.raises(ValueError, match="4x4"):
        oracles.werner_fit(np.eye(2) / 2.0)


def _werner_bound(psi):
    """How far an accepted state's marginals may be from Werner form, and its
    p from the dense fit's: sqrt(2 <S^2>) (docs/decisions.md), plus rounding."""
    return math.sqrt(2.0 * total_spin_squared(psi)) + 1e-15


def _assert_p_is_the_dense_fit(lattice, psi):
    """Every edge's p against the dense 4 x 4 fit of its dense marginal."""
    fits, _ = edge_werner_parameters(lattice, psi)
    bound = _werner_bound(psi)
    for e in lattice.edges:
        want = oracles.werner_fit(oracles.partial_trace(psi, [e.a, e.b]))
        assert abs(fits[e].p - want.p) <= bound, e
        assert want.residual <= bound and fits[e].werner_ok and want.werner_ok, e


@pytest.mark.parametrize("m, boundary", oracles.CONFIGS)
def test_stacked_werner_fit_matches_single_fit_on_ladder_marginals(ladder_state, m, boundary):
    _assert_p_is_the_dense_fit(*ladder_state(m, boundary))


COMPLEX_CASES = [(3, "open"), (4, "periodic"), (5, "periodic"), (6, "open")]


def _complex_phases(psi, seed):
    """`psi` with a random phase on each support amplitude."""
    support = np.flatnonzero(psi)
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, support.size)
    twisted = psi.astype(complex)
    twisted[support] *= np.exp(1j * phases)
    return twisted


@pytest.mark.parametrize("m, boundary", COMPLEX_CASES)
def test_stacked_werner_fit_matches_single_fit_on_complex_states(ladder_state, m, boundary):
    # one global phase keeps the singlet; a phase per amplitude does not
    lat, psi = ladder_state(m, boundary)
    phase = np.exp(1j * np.random.default_rng(m).uniform(0.0, 2.0 * np.pi))
    _assert_p_is_the_dense_fit(lat, phase * psi)


def _perturbed(lat, psi, eps, seed):
    """The liquid plus eps times a random unit vector of its S_z = 0 sector, normalized."""
    rng = np.random.default_rng(seed)
    sector = [x for x in range(1 << lat.n) if bin(x).count("1") == lat.n // 2]
    kick = np.zeros(1 << lat.n, dtype=complex)
    kick[sector] = rng.standard_normal(len(sector)) + 1j * rng.standard_normal(len(sector))
    perturbed = psi + eps * kick / np.linalg.norm(kick)
    return perturbed / np.linalg.norm(perturbed)


def test_stacked_werner_fit_matches_single_fit_on_perturbed_states(ladder_state):
    # eps = 1e-12 leaves <S^2> of order 1e-23, inside state.SINGLET_TOL
    for m, boundary in COMPLEX_CASES:
        lat, psi = ladder_state(m, boundary)
        _assert_p_is_the_dense_fit(lat, _perturbed(lat, psi, 1e-12, m))


def test_single_site_marginals_maximally_mixed(ladder_state):
    for m, b in oracles.EXPECTED:
        lat, psi = ladder_state(m, b)
        for s in range(lat.n):
            rho = oracles.partial_trace(psi, [s])
            assert np.max(np.abs(rho - np.eye(2) / 2.0)) < 1e-10, (m, b, s)


def test_edge_marginals_are_werner(ladder_state):
    for m, b in oracles.EXPECTED:
        lat, psi = ladder_state(m, b)
        fits, _ = edge_werner_parameters(lat, psi)
        for e, fit in fits.items():
            rho = oracles.partial_trace(psi, [e.a, e.b])
            assert np.max(np.abs(rho - oracles.werner_state(fit.p))) < 1e-8, (m, b, e)
            assert fit.werner_ok


def test_a_werner_fit_stores_only_its_p(ladder_state):
    # werner_ok is a class attribute that `require_singlet` guarantees, kept for
    # the benchmark's read; WernerFit is reachable as density.WernerFit only
    assert [f.name for f in dataclasses.fields(density.WernerFit)] == ["p"]
    for m in range(2, 11):
        for b in ("open", "periodic"):
            fits, _ = edge_werner_parameters(*ladder_state(m, b))
            assert all(f.werner_ok is True for f in fits.values()), (m, b)
    assert "WernerFit" not in rvb_ladder.__all__ and not hasattr(rvb_ladder, "WernerFit")


@pytest.mark.parametrize("m, boundary", oracles.CONFIGS)
def test_pairs_that_share_no_edge_are_not_entangled(ladder_state, m, boundary):
    # the liquid's pairwise entanglement is strictly nearest-neighbour: every
    # other pair has p <= 1/3 by the dense fit (the largest, 1/7, at periodic m = 4)
    lat, psi = ladder_state(m, boundary)
    bonded = {frozenset((e.a, e.b)) for e in lat.edges}
    for i, j in itertools.combinations(range(lat.n), 2):
        if frozenset((i, j)) not in bonded:
            p = oracles.werner_fit(oracles.partial_trace(psi, [i, j])).p
            assert p <= 1.0 / 3.0, (m, boundary, i, j, p)


def test_edge_p_matches_index_loop_oracle_small(ladder_state):
    for key in ((2, "open"), (3, "open"), (3, "periodic")):
        lat, psi = ladder_state(*key)
        fits, _ = edge_werner_parameters(lat, psi)
        for e, fit in fits.items():
            rho = oracles.oracle_partial_trace(psi, [e.a, e.b])
            assert abs(fit.p - oracles.werner_fit(rho).p) < 1e-10


@pytest.mark.parametrize("m, boundary, closure", oracles.with_closures(oracles.CONFIGS))
def test_support_marginals_equal_the_dense_partial_trace(ladder_state, m, boundary, closure):
    # the Werner state at each edge's p, read off the support, is the whole
    # dense marginal: all 16 entries, the ten that change the pair's S_z too
    lat, psi = ladder_state(*oracles.ladder_key(m, boundary, closure))
    fits, _ = edge_werner_parameters(lat, psi)
    bound = _werner_bound(psi)
    for e, fit in fits.items():
        rho = oracles.partial_trace(psi, [e.a, e.b])
        assert np.max(np.abs(rho - oracles.werner_state(fit.p))) <= bound, (m, boundary, e)


def _random_sector_state(down):
    """A random complex state of the open m = 3 ladder with `down` down spins."""
    rng = np.random.default_rng(down)
    psi = np.zeros(1 << 6, dtype=complex)
    sector = [x for x in range(1 << 6) if bin(x).count("1") == down]
    psi[sector] = rng.standard_normal(len(sector)) + 1j * rng.standard_normal(len(sector))
    return build_ladder(3, "open"), psi / np.linalg.norm(psi)


def _phased(m, boundary):
    lat = build_ladder(m, boundary)
    return lat, _complex_phases(rvb_state(lat), m)


def _kicked(m, boundary):
    lat = build_ladder(m, boundary)
    return lat, _perturbed(lat, rvb_state(lat), 1e-6, m)


def _mixed_sectors():
    lat = build_ladder(2, "open")
    psi = rvb_state(lat)
    psi[0] = 0.5  # all spins up: S_z = 2, next to the S_z = 0 liquid
    return lat, psi / np.linalg.norm(psi)


NON_SINGLETS = {
    **{f"one-sector-{down}": functools.partial(_random_sector_state, down)
       for down in (1, 2, 3, 5)},
    **{f"phases-{m}-{b}": functools.partial(_phased, m, b) for m, b in COMPLEX_CASES},
    **{f"kick-1e-6-{m}-{b}": functools.partial(_kicked, m, b) for m, b in COMPLEX_CASES},
    "mixed-sectors": _mixed_sectors,
}


@pytest.mark.parametrize("case", NON_SINGLETS)
def test_edge_werner_parameters_refuse_a_non_singlet(case):
    # normalized states whose marginals need not be Werner: random states of
    # one S_z sector, the liquid with a phase per amplitude or plus 1e-6 of a
    # random S_z = 0 vector, and the liquid mixed with another S_z sector;
    # ggm refuses each through the same precondition
    lat, psi = NON_SINGLETS[case]()
    for call in (lambda: edge_werner_parameters(lat, psi), lambda: ggm(psi)):
        with pytest.raises(ValueError, match="not a total singlet"):
            call()


def test_a_nan_fails_the_singlet_precondition(ladder_state):
    # NaN fails every comparison, so `norm - 1 > tol` let a NaN state through:
    # ggm returned a value with total_spin_sq = nan and the fits NaN averages
    lat, psi = ladder_state(3, "periodic")
    bad = psi.copy()
    bad[np.flatnonzero(bad)[0]] = np.nan
    for call in (lambda: edge_werner_parameters(lat, bad), lambda: ggm(bad)):
        with pytest.raises(ValueError, match="state is not normalized"):
            call()


def test_no_argument_waives_the_singlet_precondition():
    # each public reader measures <S^2> itself; a caller's value cannot stand in
    assert list(inspect.signature(require_singlet).parameters) == ["state"]
    assert list(inspect.signature(edge_werner_parameters).parameters) == ["lattice", "state"]


def test_edge_werner_parameters_refuse_a_state_of_another_lattice():
    # an 8-site state on the 6-site lattice would read marginals of the wrong
    # sites, a 6-site state on the 8-site lattice would index past its sites
    for state_m, lattice_m in ((4, 3), (3, 4)):
        psi = rvb_state(build_ladder(state_m, "periodic"))
        with pytest.raises(ValueError, match=f"{psi.size} amplitudes, the {2 * lattice_m}-site"):
            edge_werner_parameters(build_ladder(lattice_m, "periodic"), psi)


def test_aggregates_match_expected_values(ladder_state):
    for (m, b), exp in oracles.EXPECTED.items():
        if "p_r" not in exp:
            continue
        lat, psi = ladder_state(m, b)
        fits, agg = edge_werner_parameters(lat, psi)
        assert abs(agg.p_r - float(exp["p_r"])) < 1e-11, (m, b)
        assert abs(agg.p_s - float(exp["p_s"])) < 1e-11, (m, b)
        rail_ps, step_ps = oracles.rail_and_step_ps(lat, fits)
        assert min(rail_ps) <= agg.p_r <= max(rail_ps)
        assert min(step_ps) <= agg.p_s <= max(step_ps)


def test_edge_equivalence_under_symmetry(ladder_state):
    # the twisted 3-ring is edge-transitive: every edge carries the same p
    lat, psi = ladder_state(3, "periodic")
    fits, agg = edge_werner_parameters(lat, psi)
    for fit in fits.values():
        assert abs(fit.p - 5.0 / 9.0) < 1e-11
    rail_ps, _ = oracles.rail_and_step_ps(lat, fits)
    assert abs(max(rail_ps) - min(rail_ps)) < 1e-11
    # the 8-site periodic ladder is the cube: rails and steps agree
    lat, psi = ladder_state(4, "periodic")
    _, agg = edge_werner_parameters(lat, psi)
    assert abs(agg.p_r - agg.p_s) < 1e-11


def test_regional_entanglement_values(ladder_state):
    for (m, b), exp in oracles.EXPECTED.items():
        if exp.get("p_avg") is None:
            continue
        lat, psi = ladder_state(m, b)
        _, agg = edge_werner_parameters(lat, psi)
        assert abs(agg.p_avg - float(exp["p_avg"])) < 1e-11, (m, b)


@pytest.mark.parametrize("m, boundary, closure", oracles.with_closures(oracles.CONFIGS))
def test_regional_entanglement_bit_identical_to_per_site_route(ladder_state, m, boundary,
                                                               closure):
    lat, psi = ladder_state(*oracles.ladder_key(m, boundary, closure))
    fits, agg = edge_werner_parameters(lat, psi)
    assert agg.p_avg == oracles.reference_p_avg(lat, fits)


def test_regional_entanglement_skips_degree_two_sites(ladder_state):
    lat, psi = ladder_state(2, "open")
    _, agg = edge_werner_parameters(lat, psi)
    assert agg.p_avg is None  # every site is a corner
    # open m = 3: the four corners have degree 2, the middle sites 1 and 4 degree 3
    lat, psi = ladder_state(3, "open")
    fits, agg = edge_werner_parameters(lat, psi)
    middle = [[fits[e].p for e in lat.edges if s in (e.a, e.b)] for s in (1, 4)]
    assert [len(ps) for ps in middle] == [3, 3]
    want = math.fsum(middle[0] + middle[1]) / 6
    assert agg.p_avg == want


def test_aggregates_of_an_edge_transitive_ladder_equal_its_edge_p(ladder_state):
    # periodic m = 3: all nine edges carry the double nearest 5/9, and a mean
    # of equal values is that value (a per-site np.mean landed one ulp below)
    lat, psi = ladder_state(3, "periodic")
    fits, agg = edge_werner_parameters(lat, psi)
    (p,) = {fit.p for fit in fits.values()}
    assert (agg.p_r, agg.p_s, agg.p_avg) == (p, p, p)


def test_aggregates_of_a_rails_only_ring():
    # a 4-site ring whose bonds are all rails: no step and no degree-3 site
    edges = tuple(Edge(a, b, "rail") for a, b in ((0, 1), (2, 1), (2, 3), (0, 3)))
    lat = Lattice(4, edges)
    fits, agg = edge_werner_parameters(lat, rvb_state(lat))
    (p,) = {fit.p for fit in fits.values()}
    assert agg.p_s is None and agg.p_avg is None
    assert agg.p_r == p


@pytest.mark.parametrize("m, boundary", oracles.CONFIGS)
def test_aggregates_within_one_ulp_of_the_exact_mean(ladder_state, m, boundary):
    lat, psi = ladder_state(m, boundary)
    fits, agg = edge_werner_parameters(lat, psi)
    rails, steps = oracles.rail_and_step_ps(lat, fits)
    regional = [fits[e].p for s in range(lat.n) for e in lat.edges
                if s in (e.a, e.b) and sum(s in (f.a, f.b) for f in lat.edges) == 3]
    for got, ps in ((agg.p_r, rails), (agg.p_s, steps), (agg.p_avg, regional)):
        if not ps:
            assert got is None
            continue
        exact = sum(map(Fraction, ps)) / len(ps)
        assert abs(Fraction(got) - exact) <= Fraction(math.ulp(got)), (m, boundary)


def test_teleportation_fidelities(tmp_path):
    # the written F = (p + 1)/2 of the exact open-ladder p_r, p_s and p_avg
    run_sweep(RunConfig(sizes=(2, 3), boundary="open", out_dir=tmp_path))
    lines = (tmp_path / "detail" / "aggregates.csv").read_text().splitlines()
    assert lines[0] == "n,p_r,p_s,p_avg,F_r,F_s,F_avg"
    # N = 4: p_r = p_s = 2/3 and no degree-3 site, so no p_avg and no F_avg
    assert lines[1].split(",")[3:] == ["", "0.833333333333", "0.833333333333", ""]
    # N = 6: p_r = 5/11, p_s = 25/33, p_avg = 17/33
    assert lines[2].split(",")[4:] == [format((p + 1.0) / 2.0, ".12g")
                                       for p in (5.0 / 11.0, 25.0 / 33.0, 17.0 / 33.0)]
    assert lines[2].split(",")[4:] == ["0.727272727273", "0.878787878788", "0.757575757576"]


def test_fidelities_beat_classical_for_paper_sizes(ladder_state):
    for m, b in oracles.PAPER_SIZES:
        lat, psi = ladder_state(m, b)
        _, agg = edge_werner_parameters(lat, psi)
        for p in (agg.p_r, agg.p_s, agg.p_avg):
            assert (p + 1.0) / 2.0 > 2.0 / 3.0, (m, p)


@pytest.mark.parametrize("scale", [0.0, 1.001])
def test_edge_werner_parameters_refuse_an_unnormalized_state(ladder_state, scale):
    # 1.001 psi gave p_r = p_s = 0.525525 (the liquid's is 11/21 = 0.523810)
    # and the zero vector -1/3 on every edge; ggm refuses both alike
    lat, psi = ladder_state(4, "periodic")
    for call in (lambda: edge_werner_parameters(lat, scale * psi), lambda: ggm(scale * psi)):
        with pytest.raises(ValueError, match="state is not normalized"):
            call()
