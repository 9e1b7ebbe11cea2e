"""State vectors of dimer coverings and their equal superposition.

Basis convention: bit k of a computational-basis index is the spin of site k,
little-endian, with bit value 0 = up and 1 = down. A directed singlet on the
pair (i, j) is (|up_i down_j> - |down_i up_j>)/sqrt(2), i the A-sublattice
site; all amplitudes built here are real.
"""

import math

import numpy as np

from .lattice import enumerate_coverings

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def singlet_pair(i, j, n=2):
    """Directed singlet factor on sites (i, j) embedded in n sites.

    Sites other than i and j are pinned to spin up, so for n = 2 this is the
    bare two-site singlet. Amplitude of |up_i down_j> is +1/sqrt(2), of
    |down_i up_j> is -1/sqrt(2).
    """
    if i == j:
        raise ValueError("singlet needs two distinct sites")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"sites ({i}, {j}) out of range for n={n}")
    psi = np.zeros(1 << n)
    psi[1 << j] = INV_SQRT2
    psi[1 << i] = -INV_SQRT2
    return psi


def site_count(psi):
    """Number of sites n of a 2^n-amplitude vector, n >= 1; else ValueError."""
    size = np.asarray(psi).size
    n = size.bit_length() - 1
    if n < 1 or size != 1 << n:
        raise ValueError(f"state length {size} is not 2^n with n >= 1")
    return n


def _covering_terms(covering, n):
    """(indices, amplitudes) of the 2^(n/2) nonzero entries of one covering.

    Orientation bit t of the entry picks the minus branch (down on the
    A-site) of the t-th dimer; entries come in orientation order.
    """
    pairs = list(covering)
    seen = set()
    for a, b in pairs:
        seen.update((a, b))
    if len(seen) != n or len(pairs) * 2 != n or not all(0 <= s < n for s in seen):
        raise ValueError("covering is not a perfect matching of all sites")

    k = len(pairs)
    a_bit = np.array([1 << a for a, _ in pairs], dtype=np.int64)
    b_bit = np.array([1 << b for _, b in pairs], dtype=np.int64)
    flip = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    indices = np.where(flip, a_bit, b_bit).sum(axis=1)
    signs = 1 - 2 * (flip.sum(axis=1) & 1)
    return indices, signs * INV_SQRT2 ** k


def covering_state(covering, n):
    """Product of directed singlets over one dimer covering.

    `covering` is an iterable of (a, b) pairs, a the A-site of each dimer.
    The result has 2^(n/2) nonzero amplitudes, each +-(1/sqrt(2))^(n/2).
    """
    indices, amps = _covering_terms(covering, n)
    psi = np.zeros(1 << n)
    psi[indices] = amps
    return psi


def rvb_state(lattice):
    """Normalized equal superposition of all dimer-covering states.

    One bincount adds the coverings' entries in covering order, so each
    amplitude is the same sum as adding the covering states one by one.
    """
    coverings = enumerate_coverings(lattice)
    if not coverings:
        raise ValueError(f"lattice m={lattice.m} {lattice.boundary} has no dimer covering")
    indices, amps = zip(*(_covering_terms(cov, lattice.n) for cov in coverings))
    psi = np.bincount(np.concatenate(indices), weights=np.concatenate(amps),
                      minlength=1 << lattice.n)
    psi /= np.linalg.norm(psi)
    return psi


def total_spin_squared(state):
    """<psi| S_tot^2 |psi> from S^2 = S_- S_+ + S_z^2 + S_z.

    So <S^2> = |S_+ psi|^2 + <S_z^2 + S_z>. S_+ psi is built on the
    (2,)*n tensor: site k raises a down spin (index 1 on its axis) to up.
    """
    psi = np.asarray(state)
    n = site_count(psi)
    tensor = psi.reshape([2] * n)
    raised = np.zeros_like(tensor)
    for axis in range(n):
        lead = (slice(None),) * axis
        raised[lead + (0,)] += tensor[lead + (1,)]

    # S_z is diagonal, a sum of +-1/2 per site (up +, down -)
    sz = np.zeros(1)
    for _ in range(n):
        sz = np.add.outer(sz, (0.5, -0.5)).ravel()
    weight = (psi * psi.conj()).real
    return float(np.vdot(raised, raised).real) + float(weight @ (sz * (sz + 1.0)))


def bipartition_matrix(psi, n, keep):
    """The n-site vector `psi` as a matrix across the split `keep` | rest.

    Rows run over the `keep` sites in list order, keep[0] the least
    significant bit; columns over the other sites in ascending order, the
    lowest one least significant.
    """
    kept = set(keep)
    rest = [s for s in range(n) if s not in kept]
    # axis of site k in the reshaped tensor is n-1-k; most significant first
    perm = [n - 1 - k for k in reversed(keep)] + [n - 1 - s for s in reversed(rest)]
    return np.asarray(psi).reshape([2] * n).transpose(perm).reshape(1 << len(keep), -1)


def dump_state(state, path, m, boundary):
    """Write amplitudes in index order, one per line, after a header line.

    Each distinct amplitude is formatted once. Distinct means a distinct
    float64 bit pattern, so 0.0 and -0.0 keep their own text.
    """
    psi = np.asarray(state, dtype=np.float64)
    n = site_count(psi)
    bits = np.ascontiguousarray(psi).view(np.int64)
    values = np.unique(bits)
    text = np.array([f"{float(amp):.17g}\n" for amp in values.view(np.float64)], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"rvb n={n} boundary={boundary} m={m}\n")
        fh.write("".join(text[np.searchsorted(values, bits)].tolist()))
