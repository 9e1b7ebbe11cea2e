"""Partial traces, Werner fits, regional entanglement, teleportation."""

import math

import numpy as np
import pytest

from rvb_ladder import (build_ladder, edge_werner_parameters, partial_trace,
                        regional_entanglement, rvb_state,
                        teleportation_fidelities, werner_parameter)

import oracles


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return psi / np.linalg.norm(psi)


def test_partial_trace_matches_index_loop_oracle():
    for n, keep, seed in ((4, [0, 2], 1), (4, [3], 2), (5, [1, 4], 3),
                          (6, [0, 2, 5], 4), (6, [5, 0], 5)):
        psi = _random_state(n, seed)
        got = partial_trace(psi, keep)
        want = oracles.oracle_partial_trace(psi, keep)
        assert np.allclose(got, want, atol=1e-12), (n, keep)


def test_partial_trace_keep_order_swaps_sites():
    psi = _random_state(4, 7)
    ab = partial_trace(psi, [1, 3])
    ba = partial_trace(psi, [3, 1])
    # swapping the kept sites permutes the reduced basis: swap the two bits
    perm = [0, 2, 1, 3]
    assert np.allclose(ba, ab[np.ix_(perm, perm)], atol=1e-12)


def test_partial_trace_properties():
    psi = _random_state(5, 11)
    rho = partial_trace(psi, [0, 3])
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.all(np.linalg.eigvalsh(rho) > -1e-12)


def test_partial_trace_of_singlet_is_maximally_mixed():
    psi = oracles.singlet_pair()
    for site in (0, 1):
        rho = partial_trace(psi, [site])
        assert np.max(np.abs(rho - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_validation():
    psi = _random_state(3, 13)
    with pytest.raises(ValueError):
        partial_trace(psi, [])
    with pytest.raises(ValueError):
        partial_trace(psi, [0, 0])
    with pytest.raises(ValueError):
        partial_trace(psi, [0, 3])


def test_partial_trace_rejects_non_power_of_two_length():
    with pytest.raises(ValueError, match="not 2\\^n"):
        partial_trace(np.full(6, 1.0 / math.sqrt(6.0)), [0])


def test_werner_parameter_pure_singlet():
    rho = partial_trace(oracles.singlet_pair(), [0, 1])
    fit = werner_parameter(rho)
    assert abs(fit.p - 1.0) < 1e-12
    assert fit.residual < 1e-12
    assert fit.werner_ok


def test_werner_parameter_maximally_mixed():
    fit = werner_parameter(np.eye(4) / 4.0)
    assert abs(fit.p) < 1e-12
    assert fit.residual < 1e-12


def test_werner_parameter_synthetic_family():
    s = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)
    for p in (-1.0 / 3.0, 0.1, 1.0 / 3.0, 0.62, 1.0):
        rho = p * np.outer(s, s) + (1.0 - p) / 4.0 * np.eye(4)
        fit = werner_parameter(rho)
        assert abs(fit.p - p) < 1e-12
        assert fit.residual < 1e-12 and fit.werner_ok


def test_werner_parameter_flags_non_werner_states():
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0  # |up,up><up,up| is not Werner
    fit = werner_parameter(rho)
    assert abs(fit.p - (-1.0 / 3.0)) < 1e-12  # F = 0
    assert fit.residual > 1e-2
    assert not fit.werner_ok


def test_werner_parameter_validation():
    with pytest.raises(ValueError, match="4x4"):
        werner_parameter(np.eye(2) / 2.0)


def test_single_site_marginals_maximally_mixed(ladder_state):
    for m, b, w in oracles.EXPECTED:
        lat, psi = ladder_state(m, b, w)
        for s in lat.sites:
            rho = partial_trace(psi, [s])
            assert np.max(np.abs(rho - np.eye(2) / 2.0)) < 1e-10, (m, b, w, s)


def test_edge_marginals_are_werner(ladder_state):
    for m, b, w in oracles.EXPECTED:
        lat, psi = ladder_state(m, b, w)
        fits, _ = edge_werner_parameters(lat, psi)
        for e, fit in fits.items():
            assert fit.residual < 1e-8, (m, b, w, e)
            assert fit.werner_ok


def test_edge_p_matches_index_loop_oracle_small(ladder_state):
    for key in ((2, "open", "forbid"), (3, "open", "forbid"),
                (3, "periodic", "twist")):
        lat, psi = ladder_state(*key)
        fits, _ = edge_werner_parameters(lat, psi)
        for e, fit in fits.items():
            rho = oracles.oracle_partial_trace(psi, [e.a, e.b])
            assert abs(fit.p - oracles.oracle_werner_p(rho)) < 1e-10


def test_aggregates_match_expected_values(ladder_state):
    for (m, b, w), exp in oracles.EXPECTED.items():
        if "p_r" not in exp:
            continue
        lat, psi = ladder_state(m, b, w)
        fits, agg = edge_werner_parameters(lat, psi)
        assert abs(agg.p_r - float(exp["p_r"])) < 1e-11, (m, b, w)
        assert abs(agg.p_s - float(exp["p_s"])) < 1e-11, (m, b, w)
        rail_ps, step_ps = oracles.rail_and_step_ps(lat, fits)
        assert min(rail_ps) <= agg.p_r <= max(rail_ps)
        assert min(step_ps) <= agg.p_s <= max(step_ps)


def test_edge_equivalence_under_symmetry(ladder_state):
    # the twisted 3-ring is edge-transitive: every edge carries the same p
    lat, psi = ladder_state(3, "periodic", "twist")
    fits, agg = edge_werner_parameters(lat, psi)
    for fit in fits.values():
        assert abs(fit.p - 5.0 / 9.0) < 1e-11
    rail_ps, _ = oracles.rail_and_step_ps(lat, fits)
    assert abs(max(rail_ps) - min(rail_ps)) < 1e-11
    # the 8-site periodic ladder is the cube: rails and steps agree
    lat, psi = ladder_state(4, "periodic", "forbid")
    _, agg = edge_werner_parameters(lat, psi)
    assert abs(agg.p_r - agg.p_s) < 1e-11


def test_regional_entanglement_values(ladder_state):
    for (m, b, w), exp in oracles.EXPECTED.items():
        if exp.get("p_avg") is None:
            continue
        lat, psi = ladder_state(m, b, w)
        fits, _ = edge_werner_parameters(lat, psi)
        got = regional_entanglement(lat, fits)
        assert abs(got - float(exp["p_avg"])) < 1e-11, (m, b, w)


@pytest.mark.parametrize("m, boundary, odd_wrap", oracles.CONFIGS)
def test_regional_entanglement_bit_identical_to_per_site_route(ladder_state, m, boundary,
                                                               odd_wrap):
    lat, psi = ladder_state(m, boundary, odd_wrap)
    fits, _ = edge_werner_parameters(lat, psi)
    assert regional_entanglement(lat, fits) == oracles.reference_p_avg(lat, fits)


def test_regional_entanglement_skips_degree_two_sites(ladder_state):
    lat, psi = ladder_state(2, "open", "forbid")
    fits, _ = edge_werner_parameters(lat, psi)
    assert regional_entanglement(lat, fits) is None  # every site is a corner
    # open m = 3: the four corners have degree 2, the middle sites 1 and 4 degree 3
    lat, psi = ladder_state(3, "open", "forbid")
    fits, _ = edge_werner_parameters(lat, psi)
    middle = [[fits[e].p for e in lat.edges if s in (e.a, e.b)] for s in (1, 4)]
    assert [len(ps) for ps in middle] == [3, 3]
    want = (float(np.mean(middle[0])) + float(np.mean(middle[1]))) / 2
    assert regional_entanglement(lat, fits) == want


def test_teleportation_fidelities():
    F_r, F_s, F_avg = teleportation_fidelities(0.5, 0.7)
    assert abs(F_r - 0.75) < 1e-15
    assert abs(F_s - 0.85) < 1e-15
    assert abs(F_avg - (2 * 0.75 + 0.85) / 3.0) < 1e-15
    # classical limit 2/3 is crossed exactly at p = 1/3
    assert teleportation_fidelities(1.0 / 3.0, 1.0 / 3.0)[0] == pytest.approx(2.0 / 3.0)


def test_fidelities_beat_classical_for_paper_sizes(ladder_state):
    for m, b, w in oracles.PAPER_SIZES:
        lat, psi = ladder_state(m, b, w)
        _, agg = edge_werner_parameters(lat, psi)
        F_r, F_s, F_avg = teleportation_fidelities(agg.p_r, agg.p_s)
        assert F_r > 2.0 / 3.0 and F_s > 2.0 / 3.0 and F_avg > 2.0 / 3.0
