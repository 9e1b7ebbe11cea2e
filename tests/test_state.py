"""State construction: singlets, covering products, the full superposition."""

import dataclasses
import math

import numpy as np
import pytest

from rvb_ladder import (build_ladder, dump_state, enumerate_coverings,
                        rvb_state, total_spin_squared)
from rvb_ladder.state import _covering_terms, site_count

import oracles

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _covering_vector(covering, n):
    """One covering's product state, scattered from its nonzero entries."""
    indices, amps = _covering_terms(covering, n)
    psi = np.zeros(1 << n)
    psi[indices] = amps
    return psi


def test_singlet_pair_two_sites():
    psi = _covering_vector([(0, 1)], 2)
    # index = bit0 + 2*bit1, bit = 1 means down
    assert np.allclose(psi, [0.0, -INV_SQRT2, INV_SQRT2, 0.0])
    assert np.allclose(oracles.singlet_pair(), [0.0, -INV_SQRT2, INV_SQRT2, 0.0])


def test_singlet_pair_direction_flip_negates():
    assert np.allclose(_covering_vector([(1, 0)], 2), -_covering_vector([(0, 1)], 2))


def test_singlet_pair_normalized_overlap():
    psi = _covering_vector([(0, 1)], 2)
    assert abs(np.dot(psi, psi) - 1.0) < 1e-12


def test_singlet_pair_rejects_equal_sites():
    with pytest.raises(ValueError):
        _covering_terms([(1, 1)], 2)


def test_covering_state_single_dimer():
    assert np.allclose(_covering_vector([(0, 1)], 2), oracles.singlet_pair())


def test_covering_state_product_structure():
    psi = _covering_vector([(0, 1), (2, 3)], 4)
    nonzero = np.flatnonzero(np.abs(psi) > 1e-15)
    assert len(nonzero) == 4
    assert np.allclose(np.abs(psi[nonzero]), 0.5)
    # product of the two independent singlets
    want = np.kron(oracles.singlet_pair(), oracles.singlet_pair())
    assert np.allclose(psi, want)


def test_covering_state_order_independent():
    a = _covering_vector([(0, 1), (2, 3)], 4)
    b = _covering_vector([(2, 3), (0, 1)], 4)
    assert np.allclose(a, b)


def test_covering_state_matches_oracle_products():
    lat = build_ladder(3, "open")
    for covering in enumerate_coverings(lat):
        got = _covering_vector(covering, lat.n)
        want = oracles.oracle_state([covering], lat.n)
        assert np.allclose(got, want, atol=1e-12)
        assert got.tobytes() == oracles.loop_covering_state(covering, lat.n).tobytes()


def test_covering_state_rejects_partial_cover():
    with pytest.raises(ValueError):
        _covering_terms([(0, 1)], 4)
    with pytest.raises(ValueError):
        _covering_terms([(0, 1), (1, 2)], 4)


def test_rvb_state_matches_oracle_small():
    for m, boundary in ((2, "open"), (3, "open"), (2, "periodic"),
                        (3, "periodic"), (4, "periodic")):
        lat = build_ladder(m, boundary)
        psi = rvb_state(lat)
        want = oracles.oracle_state(enumerate_coverings(lat), lat.n)
        assert np.allclose(psi, want, atol=1e-10), (m, boundary)


def test_rvb_state_matches_oracle_twist():
    lat = build_ladder(3, "periodic", "twist")
    psi = rvb_state(lat)
    want = oracles.oracle_state(enumerate_coverings(lat), lat.n)
    assert np.allclose(psi, want, atol=1e-10)


def test_rvb_state_real_and_normalized(ladder_state):
    for m, b, w in oracles.EXPECTED:
        lat, psi = ladder_state(m, b, w)
        assert np.all(np.isreal(psi))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_rvb_state_is_total_singlet(ladder_state):
    largest = ((7, "periodic", "twist"), (7, "open", "forbid"),
               (8, "periodic", "forbid"), (8, "open", "forbid"))  # N = 14, 16
    for m, b, w in (*oracles.EXPECTED, *largest):
        _, psi = ladder_state(m, b, w)
        assert total_spin_squared(psi) < 1e-10, (m, b, w)


def test_total_spin_squared_detects_non_singlets():
    up_up = np.zeros(4)
    up_up[0] = 1.0  # S = 1, S(S+1) = 2
    assert abs(total_spin_squared(up_up) - 2.0) < 1e-12
    triplet = np.zeros(4)
    triplet[1] = triplet[2] = INV_SQRT2  # S = 1, m = 0
    assert abs(total_spin_squared(triplet) - 2.0) < 1e-12


def test_rvb_state_odd_periodic_forbid_equals_open(ladder_state):
    _, per = ladder_state(3, "periodic", "forbid")
    _, opn = ladder_state(3, "open", "forbid")
    assert np.allclose(per, opn, atol=1e-14)


def test_rvb_state_errors_when_no_covering():
    # forbid every edge: the covering sum is empty and must be rejected
    lat = build_ladder(3, "open")
    no_dimers = dataclasses.replace(
        lat, edges=tuple(dataclasses.replace(e, dimer_allowed=False)
                         for e in lat.edges))
    with pytest.raises(ValueError):
        rvb_state(no_dimers)


def test_dump_state_roundtrip(tmp_path):
    lat = build_ladder(2, "open")
    psi = rvb_state(lat)
    path = tmp_path / "state.txt"
    dump_state(psi, path, lat.m, lat.boundary)
    lines = path.read_text().splitlines()
    assert lines[0] == "rvb n=4 boundary=open m=2"
    values = [float(tok) for tok in lines[1:]]
    assert len(values) == 16
    assert np.allclose(values, psi, atol=1e-16)


def test_site_count():
    for n in range(1, 17):
        assert site_count(np.zeros(1 << n)) == n
    for size in (0, 1, 3, 6, 12, 1000):
        with pytest.raises(ValueError, match="not 2\\^n"):
            site_count(np.zeros(size))


def test_total_spin_squared_rejects_non_power_of_two_length():
    with pytest.raises(ValueError, match="not 2\\^n"):
        total_spin_squared(np.full(6, 1.0 / math.sqrt(6.0)))


def test_dump_state_rejects_non_power_of_two_length(tmp_path):
    path = tmp_path / "state.txt"
    with pytest.raises(ValueError, match="not 2\\^n"):
        dump_state(np.full(6, 1.0 / math.sqrt(6.0)), path, 1, "open")
    assert not path.exists()


def test_dump_state_rejects_complex_input(tmp_path):
    path = tmp_path / "state.txt"
    with pytest.raises(ValueError, match="complex"):
        dump_state([0.6 + 0.1j, 0.8j, 0.0, 0.0], path, 1, "open")
    with pytest.raises(ValueError, match="complex"):
        dump_state(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), path, 1, "open")
    assert not path.exists()


@pytest.mark.parametrize("m, boundary, odd_wrap", oracles.CONFIGS)
def test_rvb_state_bit_identical_to_loop_sum(m, boundary, odd_wrap):
    lat = build_ladder(m, boundary, odd_wrap)
    want = oracles.loop_rvb_state(enumerate_coverings(lat), lat.n)
    assert rvb_state(lat).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_total_spin_squared_matches_pauli_sum_oracle(n):
    rng = np.random.default_rng(100 + n)
    real = rng.standard_normal(1 << n)
    cplx = real + 1j * rng.standard_normal(1 << n)
    for psi in (real / np.linalg.norm(real), cplx / np.linalg.norm(cplx)):
        got = total_spin_squared(psi)
        assert abs(got - oracles.oracle_total_spin_squared(psi)) <= 1e-12, (n, psi.dtype)


@pytest.mark.parametrize("n", range(1, 11))
def test_total_spin_squared_fully_polarised_is_exact(n):
    want = (n / 2) * (n / 2 + 1)
    for index in (0, (1 << n) - 1):  # all up, all down
        psi = np.zeros(1 << n)
        psi[index] = 1.0
        assert total_spin_squared(psi) == want


def test_dump_state_bytes_match_line_writer_n16(tmp_path, ladder_state):
    lat, psi = ladder_state(8, "periodic")
    dump_state(psi, tmp_path / "got.txt", lat.m, lat.boundary)
    oracles.reference_dump(psi, tmp_path / "want.txt", lat.m, lat.boundary)
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


def test_dump_state_bytes_keep_signed_zeros_and_subnormals(tmp_path):
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(1024)
    psi[[3, 500, 1000]] = 0.0, -0.0, 5e-324
    assert len(np.unique(psi.view(np.int64))) == 1024
    dump_state(psi, tmp_path / "got.txt", 5, "open")
    oracles.reference_dump(psi, tmp_path / "want.txt", 5, "open")
    got = (tmp_path / "got.txt").read_bytes()
    assert got == (tmp_path / "want.txt").read_bytes()
    lines = got.decode().splitlines()
    assert lines[0] == "rvb n=10 boundary=open m=5"
    assert (lines[4], lines[501], lines[1001]) == ("0", "-0", "4.9406564584124654e-324")
