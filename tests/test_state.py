"""State construction: singlets, covering products, the full superposition."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvb_ladder import (Lattice, build_ladder, dump_state, edge_werner_parameters, ggm,
                        rvb_state, total_spin_squared)
from rvb_ladder.state import _covering_terms, site_count, support_bits

import oracles

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _covering_vector(covering, n):
    """One covering's product state, scattered from its nonzero entries."""
    indices, amps = _covering_terms([covering])
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
    for covering in lat.coverings:
        got = _covering_vector(covering, lat.n)
        want = oracles.oracle_state([covering], lat.n)
        assert np.allclose(got, want, atol=1e-12)
        assert got.tobytes() == oracles.loop_covering_state(covering, lat.n).tobytes()


def test_rvb_state_matches_oracle_small():
    for m, boundary in ((2, "open"), (3, "open"), (2, "periodic"),
                        (3, "periodic"), (4, "periodic")):
        lat = build_ladder(m, boundary)
        psi = rvb_state(lat)
        want = oracles.oracle_state(lat.coverings, lat.n)
        assert np.allclose(psi, want, atol=1e-10), (m, boundary)


def test_rvb_state_matches_oracle_twist():
    # the closure named positionally, as the benchmark builds its ladders
    lat = build_ladder(3, "periodic", "twist")
    psi = rvb_state(lat)
    want = oracles.oracle_state(lat.coverings, lat.n)
    assert np.allclose(psi, want, atol=1e-10)


def test_rvb_state_real_and_normalized(ladder_state):
    for m, b in oracles.EXPECTED:
        lat, psi = ladder_state(m, b)
        assert np.all(np.isreal(psi))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_rvb_state_is_total_singlet(ladder_state):
    largest = ((7, "periodic"), (7, "open"), (8, "periodic"), (8, "open"))  # N = 14, 16
    for m, b in (*oracles.EXPECTED, *largest):
        _, psi = ladder_state(m, b)
        assert total_spin_squared(psi) < 1e-10, (m, b)


def test_total_spin_squared_detects_non_singlets():
    up_up = np.zeros(4)
    up_up[0] = 1.0  # S = 1, S(S+1) = 2
    assert abs(total_spin_squared(up_up) - 2.0) < 1e-12
    triplet = np.zeros(4)
    triplet[1] = triplet[2] = INV_SQRT2  # S = 1, m = 0
    assert abs(total_spin_squared(triplet) - 2.0) < 1e-12


def test_rvb_state_errors_when_no_covering():
    # an edgeless lattice: the covering sum is empty and must be rejected
    no_dimers = Lattice(n=6, edges=())
    with pytest.raises(ValueError, match="no dimer covering"):
        rvb_state(no_dimers)


def test_dump_state_roundtrip(tmp_path):
    lat = build_ladder(2, "open")
    psi = rvb_state(lat)
    path = tmp_path / "state.txt"
    dump_state(psi, path, 2, "open")
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


@pytest.mark.parametrize("shape", [(1, 64), (64, 1), (8, 8)], ids=["1x64", "64x1", "8x8"])
@pytest.mark.parametrize("reader", ["ggm", "total_spin_squared", "edge_werner_parameters",
                                    "dump_state"])
def test_state_readers_refuse_an_array_that_is_not_one_axis(ladder_state, tmp_path, reader,
                                                            shape):
    # a 64-entry state of the right size in the wrong shape is refused, and
    # the error names the shape instead of failing later on an index
    lat, psi = ladder_state(3, "periodic")
    path = tmp_path / "state.txt"
    call = {"ggm": ggm, "total_spin_squared": total_spin_squared,
            "edge_werner_parameters": lambda s: edge_werner_parameters(lat, s),
            "dump_state": lambda s: dump_state(s, path, 3, "periodic")}[reader]
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        call(psi.reshape(shape))
    assert not path.exists()


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


@pytest.mark.parametrize("m, boundary, closure", oracles.with_closures(oracles.CONFIGS))
def test_rvb_state_bit_identical_to_loop_sum(m, boundary, closure):
    lat = build_ladder(*oracles.ladder_key(m, boundary, closure))
    want = oracles.loop_rvb_state(lat.coverings, lat.n)
    assert rvb_state(lat).tobytes() == want.tobytes()


@pytest.mark.parametrize("m, boundary, closure", oracles.with_closures(oracles.CONFIGS))
def test_covering_terms_batch_is_per_covering_concatenation(m, boundary, closure):
    coverings = build_ladder(*oracles.ladder_key(m, boundary, closure)).coverings
    indices, amps = _covering_terms(coverings)
    one_by_one = [_covering_terms([cov]) for cov in coverings]
    assert np.array_equal(indices, np.concatenate([i for i, _ in one_by_one]))
    assert amps.tobytes() == np.concatenate([a for _, a in one_by_one]).tobytes()


@pytest.mark.parametrize("m, boundary, closure", oracles.with_closures(oracles.SMALL_CONFIGS))
def test_total_spin_squared_matches_pauli_sum_oracle_on_ladders(m, boundary, closure,
                                                                ladder_state):
    _, psi = ladder_state(*oracles.ladder_key(m, boundary, closure))
    got = total_spin_squared(psi)
    assert abs(got - oracles.oracle_total_spin_squared(psi)) <= 1e-12


def test_total_spin_squared_signed_zeros_and_subnormals():
    rng = np.random.default_rng(12)
    psi = rng.standard_normal(256)
    psi[rng.permutation(256)[:200]] = -0.0
    psi[[7, 77]] = 5e-324, -2.5e-310
    psi /= np.linalg.norm(psi)
    got = total_spin_squared(psi)
    assert abs(got - oracles.oracle_total_spin_squared(psi)) <= 1e-12
    assert got == oracles.dense_total_spin_squared(psi)


# The support route adds the same nonzero terms into each entry of S_+ psi in
# the same order as the dense strided adds, so the two agree bit for bit.

@pytest.mark.parametrize("m, boundary, closure", oracles.with_closures(oracles.CONFIGS))
def test_total_spin_squared_bit_identical_to_dense_raise_on_ladders(m, boundary, closure,
                                                                    ladder_state):
    _, psi = ladder_state(*oracles.ladder_key(m, boundary, closure))
    assert total_spin_squared(psi) == oracles.dense_total_spin_squared(psi)


@pytest.mark.parametrize("m, boundary", [(3, "open"), (4, "periodic"), (5, "periodic"),
                                         (6, "open"), (8, "periodic")])
def test_total_spin_squared_bit_identical_to_dense_raise_on_complex_phases(m, boundary,
                                                                           ladder_state):
    _, psi = ladder_state(m, boundary)
    support = np.flatnonzero(psi)
    phases = np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, support.size)
    twisted = psi.astype(complex)
    twisted[support] *= np.exp(1j * phases)
    got = total_spin_squared(twisted)
    assert got > 1e-3  # the phases break the singlet
    assert got == oracles.dense_total_spin_squared(twisted)


@pytest.mark.parametrize("n, down", [(2, 1), (5, 2), (8, 3), (8, 4), (10, 7)])
def test_total_spin_squared_bit_identical_to_dense_raise_in_one_sz_sector(n, down):
    rng = np.random.default_rng(10 * n + down)
    sector = [x for x in range(1 << n) if bin(x).count("1") == down]
    for dtype in (float, complex):
        psi = np.zeros(1 << n, dtype=dtype)
        psi[sector] = rng.standard_normal(len(sector))
        if dtype is complex:
            psi[sector] += 1j * rng.standard_normal(len(sector))
        psi /= np.linalg.norm(psi)
        got = total_spin_squared(psi)
        assert abs(got - oracles.oracle_total_spin_squared(psi)) <= 1e-12, (n, down, dtype)
        assert got == oracles.dense_total_spin_squared(psi), (n, down, dtype)


@pytest.mark.parametrize("n", range(1, 11))
def test_total_spin_squared_matches_pauli_sum_oracle(n):
    rng = np.random.default_rng(100 + n)
    real = rng.standard_normal(1 << n)
    cplx = real + 1j * rng.standard_normal(1 << n)
    sparse = np.where(rng.random(1 << n) < 0.3, real, 0.0)
    sparse[[0, (1 << n) - 1]] = 0.5, -0.25  # all up and all down: S_z = +-n/2
    for psi in (real / np.linalg.norm(real), cplx / np.linalg.norm(cplx),
                sparse / np.linalg.norm(sparse)):
        got = total_spin_squared(psi)
        assert abs(got - oracles.oracle_total_spin_squared(psi)) <= 1e-12, (n, psi.dtype)
        assert got == oracles.dense_total_spin_squared(psi), (n, psi.dtype)


@pytest.mark.parametrize("n", range(1, 11))
def test_total_spin_squared_fully_polarised_is_exact(n):
    want = (n / 2) * (n / 2 + 1)
    for index in (0, (1 << n) - 1):  # all up, all down
        psi = np.zeros(1 << n)
        psi[index] = 1.0
        assert total_spin_squared(psi) == want


def test_dump_state_bytes_match_line_writer_n16(tmp_path, ladder_state):
    lat, psi = ladder_state(8, "periodic")
    dump_state(psi, tmp_path / "got.txt", 8, "periodic")
    oracles.reference_dump(psi, tmp_path / "want.txt", 8, "periodic")
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


def test_dump_state_bytes_without_positive_zero(tmp_path):
    rng = np.random.default_rng(13)
    psi = rng.standard_normal(256)
    psi[[0, 9, 255]] = -0.0, 5e-324, -5e-324
    assert not np.any(psi.view(np.int64) == 0)
    dump_state(psi, tmp_path / "got.txt", 4, "periodic")
    oracles.reference_dump(psi, tmp_path / "want.txt", 4, "periodic")
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


def test_dump_state_bytes_mostly_signed_zeros(tmp_path):
    psi = np.zeros(256)
    psi[np.random.default_rng(14).permutation(256)[:120]] = -0.0
    psi[[0, 3, 100, 255]] = 0.25, -0.25, 5e-324, 0.25
    dump_state(psi, tmp_path / "got.txt", 4, "open")
    oracles.reference_dump(psi, tmp_path / "want.txt", 4, "open")
    got = (tmp_path / "got.txt").read_bytes()
    assert got == (tmp_path / "want.txt").read_bytes()
    assert set(got.decode().splitlines()[1:]) == {"0", "-0", "0.25", "-0.25",
                                                  "4.9406564584124654e-324"}


_SPARSE_VALUES = st.one_of(st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072e-308,
                                            0.5, -0.5, 0.1]),
                           st.floats(width=64))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_dump_state_bytes_match_the_line_writer_on_sparse_vectors(tmp_path_factory, data):
    n = data.draw(st.integers(1, 8), label="n")
    last = (1 << n) - 1
    index = st.one_of(st.sampled_from([0, last]), st.integers(0, last))
    entries = data.draw(st.dictionaries(index, _SPARSE_VALUES, max_size=1 << n),
                        label="entries")
    psi = np.zeros(1 << n)
    if data.draw(st.booleans(), label="no +0.0"):
        psi[:] = -0.0
    if entries:
        psi[list(entries)] = list(entries.values())
    tmp = tmp_path_factory.mktemp("dump")
    dump_state(psi, tmp / "got.txt", n // 2, "open")
    oracles.reference_dump(psi, tmp / "want.txt", n // 2, "open")
    assert (tmp / "got.txt").read_bytes() == (tmp / "want.txt").read_bytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_support_bits_match_flatnonzero_and_shifts(data):
    # n up to 18 unpacks one, two and three index bytes
    n = data.draw(st.integers(1, 18), label="n")
    last = (1 << n) - 1
    index = st.one_of(st.sampled_from([0, last, 1 << (n - 1)]), st.integers(0, last))
    value = st.one_of(_SPARSE_VALUES, st.complex_numbers(width=128))
    entries = data.draw(st.dictionaries(index, value, max_size=64), label="entries")
    dtype = complex if any(isinstance(v, complex) for v in entries.values()) else float
    psi = np.zeros(1 << n, dtype=dtype)
    psi[data.draw(index, label="-0.0 at")] = -0.0  # equals 0: not in the support
    if entries:
        psi[list(entries)] = list(entries.values())
    support, amps, bits = support_bits(psi)
    want = np.flatnonzero(psi != 0)
    assert np.array_equal(support, want)
    assert amps.tobytes() == psi[want].tobytes()
    assert bits.dtype == np.uint8 and bits.shape == (n, want.size)
    for k in range(n):
        assert np.array_equal(bits[k], (want >> k) & 1), k
